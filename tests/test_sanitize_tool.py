"""tools/sanitize.py runs the compiled stages under AddressSanitizer and
UndefinedBehaviorSanitizer. Once, at a small size, here: its run must be
clean and byte-identical, and a write past a buffer must be reported, so
that a clean run means something.
"""

import importlib.util
import json
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
    assert set(out["entry_point_calls"]) == {"meet", "prepare", "fill", "check", "oracle"}


def test_a_write_past_a_buffer_is_reported(tmp_path):
    # fill() trusts m to size its buffers: m = 1 on a 50-component pair
    # writes past them, which the production build would not notice
    library = sanitize.build(SRC, str(tmp_path))
    script = (
        "import numpy as np, mecouple as mc\n"
        "from mecouple import _native, lattice\n"
        f"_native.LIB = _native.load({library!r})\n"
        "p, q = (mc.make_probvec(v) for v in np.random.default_rng(0).dirichlet(np.ones(50), 2))\n"
        "ip, a, b = mc.inversion_points(p, q), p.values, q.values\n"
        "z = lattice.meet_values(a, b, 1e-12)\n"
        "_native.fill(a, b, z, ip.indices, mc.DEFAULT_TOL, ip.swapped, 1)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=sanitize.sanitized_env(SRC),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "AddressSanitizer: heap-buffer-overflow" in done.stderr
    assert "in fill " in done.stderr and "_fill.c:" in done.stderr
