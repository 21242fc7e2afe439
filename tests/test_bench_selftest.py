"""The benchmark's self-test, run from the test suite.

`bench/selftest.py` drives the package the way the benchmark does (including
`dataclasses.replace` on a `CouplingMatrix` and reads of its dense `.matrix`)
and checks that its independent checker accepts real outputs and rejects
perturbed ones. Running it here makes a package change that breaks the
benchmark fail in pytest.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
