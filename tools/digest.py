"""Print one SHA-256 per family of mecouple outputs, from fixed-seed inputs.

    python3 tools/digest.py                  # this checkout's src/
    python3 tools/digest.py --src OTHER/src  # another tree, for a before/after pair

A change meant to keep outputs bit-identical prints the same lines on both
trees. Every input is drawn from numpy.random.default_rng(SEED) before any
output is hashed, so the inputs do not depend on the tree under test. One
line per family, "family count sha256":

- cli: stdout and exit code of in-process mecouple.cli.main calls over
  every command, couple and oracle with and without --sorted, couple-k with
  and without --dense, --format text, --base nats, tolerances given by flag
  and by environment variable, and inputs that exit 1 (a bad total) or 2 (a
  bad or inconsistent tolerance). Vectors are passed inline as JSON or as plain text.
- pairwise: min_entropy_coupling's rows, cols, vals, row_perm, col_perm, n
  and nnz, plus the dense .matrix and in_original_order(), for pairs of
  lengths 1 to 64 drawn apart: Dirichlet(1), Dirichlet(0.1), exact 1/64
  ties and equal pairs.
- glb: the meet's values and the bounds report of the same pairs.
- kway: k_min_entropy_coupling's values, coords and dims for k = 2 to 39
  marginals of lengths 1 to 12 (the same four kinds), and to_dense() where
  the tensor has at most DENSE_CELLS cells.

A call that raises contributes the exception's class name in place of its
outputs, so a crash is compared too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 12
CLI_CALLS = 3200
PAIRS = 3200
JOINTS = 152
DENSE_CELLS = 4096
KINDS = ("dirichlet1", "dirichlet0.1", "ties64", "equal")
COMMANDS = (
    ("glb",), ("couple",), ("couple", "--sorted"), ("couple-k",), ("couple-k", "--dense"),
    ("bounds",), ("distance",), ("oracle",), ("oracle", "--sorted"),
)


def _vector(rng, kind: str, n: int) -> np.ndarray:
    if kind == "dirichlet1":
        return rng.dirichlet(np.ones(n))
    if kind == "dirichlet0.1":
        return rng.dirichlet(np.full(n, 0.1))
    return rng.multinomial(64, np.full(n, 1.0 / n)) / 64.0


def _pair(rng, kind: str, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    if kind == "equal":
        p = _vector(rng, "dirichlet1", n)
        return p, p.copy()
    return _vector(rng, kind, n), _vector(rng, kind, m)


def _text(rng, v: np.ndarray) -> str:
    """The vector as a JSON array or as whitespace-separated decimals."""
    if rng.integers(2):
        return json.dumps(v.tolist())
    return " ".join(repr(x) for x in v.tolist())


def cli_calls(rng, count: int = CLI_CALLS) -> list[tuple[list[str], dict]]:
    """(argv, environment overrides) for count calls."""
    calls = []
    for i in range(count):
        cmd = COMMANDS[i % len(COMMANDS)]
        kind = KINDS[int(rng.integers(len(KINDS)))]
        if cmd[0] == "couple-k":
            k = int(rng.integers(2, 6))
            vecs = [_vector(rng, kind if kind != "equal" else "dirichlet1",
                            int(rng.integers(1, 7))) for _ in range(k)]
        else:
            hi = 5 if cmd[0] == "oracle" else 13
            vecs = list(_pair(rng, kind, int(rng.integers(1, hi)), int(rng.integers(1, hi))))
        roll = int(rng.integers(16))
        if roll == 0:
            vecs[0] = vecs[0] * 1.01  # exit 1: BadTotal
        pre, env = [], {}
        if rng.integers(4) == 0:
            pre += ["--format", "text"]
        if rng.integers(4) == 0:
            pre += ["--base", "nats"]
        if roll in (1, 2):
            pre += ["--tolerance-sum", "1e-6", "--tolerance-zero", "1e-10"]
        elif roll == 3:
            pre += ["--tolerance-sum", "2"]  # exit 2 from argparse
        elif roll in (4, 5):
            env = {"MECOUPLE_TOLERANCE_SUM": "1e-6", "MECOUPLE_TOLERANCE_ZERO": "1e-10"}
        elif roll == 6:
            env = {"MECOUPLE_TOLERANCE_ZERO": "banana"}  # exit 2
        elif roll == 7:
            env = {"MECOUPLE_TOLERANCE_SUM": "1.5"}  # exit 2
        elif roll == 8:
            pre += ["--tolerance-sum", "1e-12", "--tolerance-zero", "1e-9"]  # exit 2: inconsistent
        calls.append((pre + list(cmd) + [_text(rng, v) for v in vecs], env))
    return calls


def run_cli(cli, calls, h) -> None:
    env_names = ("MECOUPLE_TOLERANCE_SUM", "MECOUPLE_TOLERANCE_ZERO")
    saved = {name: os.environ.pop(name, None) for name in env_names}
    try:
        for argv, env in calls:
            os.environ.update(env)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crash is an outcome to compare too
                    code = type(exc).__name__
            for name in env:
                del os.environ[name]
            h.update(f"{code}\n{out.getvalue()}\0".encode())
    finally:
        for name, value in saved.items():
            if value is not None:
                os.environ[name] = value


def _arrays(h, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def run_pairs(mc, pairs, h_pair, h_glb) -> None:
    for raw_p, raw_q in pairs:
        p, q = mc.make_probvec(raw_p), mc.make_probvec(raw_q)
        try:
            cm = mc.min_entropy_coupling(p, q)
            _arrays(h_pair, cm.rows, cm.cols, cm.vals, cm.row_perm, cm.col_perm,
                    cm.matrix, cm.in_original_order())
            h_pair.update(f"{cm.n},{cm.nnz}\0".encode())
        except Exception as exc:
            h_pair.update(type(exc).__name__.encode())
        try:
            _arrays(h_glb, mc.glb(p, q).meet.values)
            h_glb.update(repr(tuple(mc.bounds(p, q))).encode())
        except Exception as exc:
            h_glb.update(type(exc).__name__.encode())


def run_joints(mc, joints, h) -> None:
    for raws in joints:
        try:
            joint = mc.k_min_entropy_coupling([mc.make_probvec(r) for r in raws])
            _arrays(h, joint.values, joint.coords)
            h.update(repr(tuple(joint.dims)).encode())
            if math.prod(joint.dims) <= DENSE_CELLS:
                _arrays(h, joint.to_dense())
        except Exception as exc:
            h.update(type(exc).__name__.encode())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(DEFAULT_SRC),
                        help="directory holding the mecouple package")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import mecouple as mc
    import mecouple.cli as cli

    rng = np.random.default_rng(SEED)
    calls = cli_calls(rng)
    pairs = [
        _pair(rng, KINDS[i % len(KINDS)], int(rng.integers(1, 65)), int(rng.integers(1, 65)))
        for i in range(PAIRS)
    ]
    joints = []
    for i in range(JOINTS):
        k = 2 + i % 38
        raws = [_vector(rng, KINDS[i % 3], int(rng.integers(1, 13))) for _ in range(k)]
        joints.append([raws[0]] * k if i % 4 == 3 else raws)  # every fourth: equal marginals

    start = time.perf_counter()
    hashes = {name: hashlib.sha256() for name in ("cli", "pairwise", "glb", "kway")}
    run_cli(cli, calls, hashes["cli"])
    run_pairs(mc, pairs, hashes["pairwise"], hashes["glb"])
    run_joints(mc, joints, hashes["kway"])
    counts = {"cli": len(calls), "pairwise": len(pairs), "glb": len(pairs), "kway": len(joints)}
    for name, h in hashes.items():
        print(f"{name:<8} {counts[name]:>5} {h.hexdigest()}")
    print(f"# {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
