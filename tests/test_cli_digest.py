"""One SHA-256 over the stdout and exit codes of fixed-seed CLI calls, pinned
so a change that should keep the CLI's output byte-identical is checked on
every run.

The calls are CALLS from tools/digest.py's cli family (every command, both
formats, both units, tolerances by flag and by environment, exits 0, 1 and
2), then couple at n = 192 on Dirichlet(1) and on Dirichlet(0.1) inputs,
whose tiny cells print in e-notation, in JSON and as text, and oracle calls
at 4 x 4 in both formats. All inputs come from numpy.random.default_rng(SEED).
tools/digest.py's cli line is the slower, wider check.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

import mecouple.cli as cli

SEED = 21
CALLS = 300
PINNED = "42826186c0e09ade6dd4c1159c6f7602d14e668489133bbc952f2f855ff4eef6"

_spec = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parent.parent / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def _calls():
    rng = np.random.default_rng(SEED)
    calls = digest.cli_calls(rng, CALLS)

    def vec(kind, n):
        return json.dumps(digest._vector(rng, kind, n).tolist())

    for kind in ("dirichlet1", "dirichlet0.1"):
        p, q = vec(kind, 192), vec(kind, 192)
        calls += [(["couple", p, q], {}), (["--format", "text", "couple", "--sorted", p, q], {})]
    for kind in ("dirichlet1", "dirichlet0.1"):
        p, q = vec(kind, 4), vec(kind, 4)
        calls += [(["oracle", p, q], {}), (["--format", "text", "oracle", p, q], {})]
    return calls


def test_cli_stdout_matches_the_pinned_digest():
    h = hashlib.sha256()
    digest.run_cli(cli, _calls(), h)
    assert h.hexdigest() == PINNED
