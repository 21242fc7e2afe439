"""tools/sanitize.py runs the compiled stages under AddressSanitizer and
UndefinedBehaviorSanitizer. Once, at a small size, here: its run must be
clean and byte-identical, and a write past a buffer must be reported, so
that a clean run means something.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_spec = importlib.util.spec_from_file_location("sanitize", ROOT / "tools" / "sanitize.py")
sanitize = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sanitize)

pytestmark = pytest.mark.skipif(sanitize.libasan() is None, reason="the compiler has no libasan")


def test_a_small_run_is_clean_and_identical(capsys):
    assert sanitize.main(["--calls", "200"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["clean"] and out["identical"] and out["instances"] == 200
    # every compiled entry point ran under the sanitizers
    assert set(out["entry_point_calls"]) == {"meet", "segments", "couple", "check", "oracle"}


def test_a_write_past_a_buffer_is_reported(tmp_path):
    # every length demand of the module guards a buffer: a copy of the
    # source whose couple() takes a rows buffer of one cell, built with the
    # sanitizers, writes past it on a 50-component pair, which a production
    # build would not notice
    copy = tmp_path / "src"
    shutil.copytree(SRC / "mecouple", copy / "mecouple",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = copy / "mecouple" / "_fill.c"
    text = source.read_text()
    demand = """take(&c, args[4], "rows", 'I', 2 * n)"""
    assert text.count(demand) == 1
    source.write_text(text.replace(demand, demand.replace("2 * n", "1")))
    library = sanitize.build(copy, str(tmp_path))
    script = (
        "import numpy as np, mecouple as mc\n"
        "from mecouple import _native\n"
        f"lib = _native.load({library!r})\n"
        "p, q = (mc.make_probvec(v) for v in np.random.default_rng(0).dirichlet(np.ones(50), 2))\n"
        "a, b, n = p.values, q.values, 50\n"
        "lib.couple(a, b, 1e-12, 1e-9, np.empty(1, np.int64), np.empty(2 * n, np.int64),\n"
        "           np.empty(2 * n), np.empty(n + 2, np.int64), np.empty(n),\n"
        "           np.empty(3 * n, np.int64))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=sanitize.sanitized_env(SRC),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "AddressSanitizer: heap-buffer-overflow" in done.stderr
    assert "in fill " in done.stderr and "_fill.c:" in done.stderr
