"""Run mecouple's compiled stages under AddressSanitizer and UndefinedBehaviorSanitizer.

    python3 tools/sanitize.py                  # 10,000 calls, this checkout's src/
    python3 tools/sanitize.py --calls 300      # a smoke run
    python3 tools/sanitize.py --src OTHER/src  # another tree

_fill.c is built with SANITIZE_FLAGS into a temporary directory, removed
at the end. A child Python then runs with LD_PRELOAD set to the compiler's
libasan (`CC -print-file-name=libasan.so`, which must come first among the
process's libraries) and ASAN_OPTIONS=detect_leaks=0 (the interpreter
keeps objects alive to its exit by design). The child imports mecouple
from --src with its production build, and loads the sanitized build, an
extension module as the production one, with mecouple._native.load.

Each of --calls instances is drawn from numpy.random.default_rng([SEED, i])
and run twice, once with mecouple._native.LIB as imported and once with it
pointed at the sanitized build, and the two outputs must be the same bytes
(arrays by dtype, shape and bytes, a raised InternalInvariant by its
message). The instances cycle through KINDS:

- pairwise: min_entropy_coupling, inversion_points and glb on pairs of
  lengths 1 to 64 drawn apart (Dirichlet(1) and Dirichlet(0.1), exact 1/64
  ties, point masses, tails of masses at or below eps_zero, and pairs equal
  within eps_zero: the diagonal shortcut), and, at n = 0, inversion_points
  of two empty vectors and lattice.meet_values of two empty arrays;
- kway: k_min_entropy_coupling over 2 to 9 such marginals of lengths 1 to 16;
- perturbed: pairwise._check_pieces on a coupling's pieces with one index
  moved outside the square, two pieces exchanged, a value made NaN or
  1e-6 moved along a row, each refused by check();
- bad_segments: _native.fill on boundaries that do not cut 1..n, refused
  before they are read;
- oracle: exact_min_entropy on one 5 x 5 Dirichlet(1) pair (the first
  oracle instance), then, in turn, pairs drawn as tests/test_oracle.py's
  reference draws are (Dirichlet(1) and Dirichlet(0.1), multiples of 1/64
  and 1/8, uniform vectors, point masses and pairs a few ulps from equal,
  n + m <= 8), pairs on multiples of 1/8192 and 2**-20 (residuals on and
  next to the ties of rounding to 12 decimals), Dirichlet(1) supports
  padded by -0.0 components, which make_probvec keeps (residuals whose key
  word is 0), and a side of length 0.

A sanitizer report aborts the child (-fno-sanitize-recover=all); the tool
then exits 1 with the child's stderr. Otherwise one JSON object goes to
stdout: the instance count, how many times the sanitized build ran each
compiled entry point, and whether every output was identical (exit code 1
if not).
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from collections import Counter
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"
SANITIZE_FLAGS = ("-O1", "-g", "-ffp-contract=off", "-fsanitize=address,undefined",
                  "-fno-sanitize-recover=all", "-fPIC", "-shared")
KINDS = ("pairwise", "kway", "perturbed", "bad_segments", "oracle")
SEED = 15
CALLS = 10_000


def compiler() -> list[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def libasan() -> str | None:
    """The compiler's libasan, or None if it has none."""
    done = subprocess.run([*compiler(), "-print-file-name=libasan.so"],
                          capture_output=True, text=True)
    path = done.stdout.strip()
    return path if done.returncode == 0 and os.path.isabs(path) else None


def build(src: Path, out_dir: str) -> str:
    """_fill.c under src built with SANITIZE_FLAGS into out_dir; the extension module's path."""
    out = os.path.join(out_dir, "_fill_sanitized.so")
    cmd = [*compiler(), *SANITIZE_FLAGS, f"-I{sysconfig.get_paths()['include']}", "-o", out,
           str(src / "mecouple" / "_fill.c")]
    subprocess.run(cmd, check=True, capture_output=True, text=True)
    return out


def sanitized_env(src: Path) -> dict:
    """The environment of a child that loads a sanitized build: libasan preloaded."""
    asan = libasan()
    if asan is None:
        raise SystemExit("sanitize: the compiler ships no libasan.so")
    return dict(os.environ, LD_PRELOAD=asan, ASAN_OPTIONS="detect_leaks=0",
                PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")


# -- the child ----------------------------------------------------------------


class Counting:
    """A module whose entry points count their calls."""

    def __init__(self, lib) -> None:
        self.lib, self.calls = lib, Counter()

    def __getattr__(self, name: str):
        fn = getattr(self.lib, name)

        def call(*args):
            self.calls[name] += 1
            return fn(*args)

        return call


def _vector(np, rng, kind: str, n: int, eps: float):
    if kind == "dirichlet1":
        return rng.dirichlet(np.ones(n))
    if kind == "dirichlet0.1":
        return rng.dirichlet(np.full(n, 0.1))
    if kind == "ties64":
        cuts = np.sort(rng.integers(0, 65, size=n - 1))
        return np.diff(np.r_[0, cuts, 64]) / 64.0
    if kind == "point":
        return np.eye(n)[rng.integers(n)]
    # a head and a tail of masses at or below eps_zero
    head = rng.dirichlet(np.ones(max(1, n // 2)))
    return np.r_[head, rng.choice([0.0, eps / 4, eps / 2, eps], size=n - head.size)]


VECTOR_KINDS = ("dirichlet1", "dirichlet0.1", "ties64", "point", "tails", "near_equal")


def _pair(np, mc, rng, eps: float, longest: int = 64):
    kind = VECTOR_KINDS[rng.integers(len(VECTOR_KINDS))]
    n, m = (int(x) for x in rng.integers(1, longest + 1, size=2))
    if kind == "near_equal":
        p = mc.make_probvec(_vector(np, rng, "dirichlet1", n, eps))
        moved = p.values + rng.choice([0.0, eps / 2, -eps / 2], size=n) * (p.values > eps)
        return p, mc.ProbVec(moved, np.arange(n))
    return mc.make_probvec(_vector(np, rng, kind, n, eps)), \
        mc.make_probvec(_vector(np, rng, kind if rng.random() < 0.5 else "dirichlet1", m, eps))


def _oracle_pair(np, mc, rng, nth: int):
    """The nth oracle instance's pair (from 0), drawn from rng."""
    if nth == 0:
        return (mc.make_probvec(rng.dirichlet(np.ones(5))),
                mc.make_probvec(rng.dirichlet(np.ones(5))))
    n = int(rng.integers(1, 7))
    sizes = (n, int(rng.integers(1, 9 - n)))
    draw = ("dirichlet1", "dirichlet0.1", "multiples", "uniform", "point", "near_half",
            "ties", "negative_zero", "empty")[nth % 9]
    if draw == "empty":
        empty, other = mc.ProbVec([], []), mc.make_probvec(rng.dirichlet(np.ones(sizes[0])))
        return (empty, other) if rng.random() < 0.5 else (other, empty)
    if draw == "near_half":
        near = np.array([0.5 + 4e-13, 0.5 - 4e-13])
        return mc.make_probvec(np.full(2, 0.5)), mc.make_probvec(near)
    out = []
    for k in sizes:
        if draw in ("dirichlet1", "dirichlet0.1"):
            v = rng.dirichlet(np.full(k, 1.0 if draw == "dirichlet1" else 0.1))
        elif draw in ("multiples", "ties"):
            den = int(rng.choice([64, 8] if draw == "multiples" else [8192, 2**20]))
            v = np.diff(np.r_[0, np.sort(rng.integers(0, den + 1, size=k - 1)), den]) / den
        elif draw == "uniform":
            v = np.full(k, 1.0 / k)
        elif draw == "negative_zero":
            v = np.full(k, -0.0)
            support = rng.permutation(k)[:int(rng.integers(1, max(2, k)))]
            v[support] = rng.dirichlet(np.ones(support.size))
        else:
            v = np.eye(k)[rng.integers(k)]
        out.append(mc.make_probvec(v))
    return tuple(out)


def _instance(np, mc, kind: str, rng, nth: int):
    """A thunk running the nth instance of kind (from 0), drawn here from rng."""
    from mecouple import _native, lattice, pairwise

    tol = mc.DEFAULT_TOL
    eps = tol.eps_zero
    if kind == "pairwise":
        p, q = _pair(np, mc, rng, eps)
        n = max(p.n, q.n)
        pp, qq = mc.pad_to(p, n), mc.pad_to(q, n)

        empty = mc.ProbVec([], [])

        def run():
            cm = mc.min_entropy_coupling(p, q)
            return (cm.rows, cm.cols, cm.vals, cm.nnz, mc.inversion_points(pp, qq),
                    mc.glb(p, q).meet.values, mc.inversion_points(empty, empty),
                    lattice.meet_values(empty.values, empty.values, eps))
        return run
    if kind == "kway":
        ps = [_pair(np, mc, rng, eps, 16)[0] for _ in range(int(rng.integers(2, 10)))]

        def run():
            joint = mc.k_min_entropy_coupling(ps)
            return joint.values, joint.coords
        return run
    if kind == "perturbed":
        p, q = _pair(np, mc, rng, eps)
        cm = mc.min_entropy_coupling(p, q)
        n = cm.n
        a, b = mc.pad_to(p, n).values, mc.pad_to(q, n).values
        rows, cols, vals = cm.rows.copy(), cm.cols.copy(), cm.vals.copy()
        i = int(rng.integers(vals.size))
        move = int(rng.integers(4))
        if move == 0:
            (rows if rng.random() < 0.5 else cols)[i] = rng.choice([-1, n, 2**62])
        elif move == 1 and vals.size > 1:
            j = (i + 1) % vals.size
            rows[[i, j]], cols[[i, j]], vals[[i, j]] = rows[[j, i]], cols[[j, i]], vals[[j, i]]
        elif move == 2:
            vals[i] = np.nan
        else:
            vals[i] -= 1e-6
            vals[(i + 1) % vals.size] += 1e-6
        return lambda: pairwise._check_pieces(rows, cols, vals, a, b, tol)
    if kind == "oracle":
        p, q = _oracle_pair(np, mc, rng, nth)

        def run():
            opt, vc = mc.exact_min_entropy(p, q)
            return opt, vc.matrix, vc.support_size
        return run
    n = int(rng.integers(2, 65))
    a = b = np.full(n, 1.0 / n)
    bad = ((n + 2, 1), (n + 1, 0), (n + 1, n + 1, 1), (n + 1, 2, 3, 1))
    idx = bad[rng.integers(len(bad))]
    return lambda: _native.fill(a, b, a.copy(), idx, tol, False, n)


def _encode(np, mc, thunk) -> bytes:
    try:
        result = thunk()
    except mc.MecoupleError as exc:
        return f"raised {type(exc).__name__}: {exc}".encode()
    out = []
    for x in result if isinstance(result, tuple) else (result,):
        if isinstance(x, np.ndarray):
            out += [f"{x.dtype.str}{x.shape}".encode(), x.tobytes()]
        else:
            out.append(repr(x).encode())
    return b"\0".join(out)


def child(library: str, calls: int) -> dict:
    import numpy as np

    import mecouple as mc
    from mecouple import _native

    production = _native.LIB
    sanitized = Counting(_native.load(library))
    differing = []
    for i in range(calls):
        kind = KINDS[i % len(KINDS)]
        rng = np.random.default_rng([SEED, i])
        thunk = _instance(np, mc, kind, rng, i // len(KINDS))
        want = _encode(np, mc, thunk)
        _native.LIB = sanitized
        try:
            got = _encode(np, mc, thunk)
        finally:
            _native.LIB = production
        if got != want:
            differing.append(i)
    return {"instances": calls, "kinds": KINDS, "entry_point_calls": dict(sanitized.calls),
            "identical": not differing, "differing_instances": differing[:10]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(DEFAULT_SRC), help="directory holding the mecouple package")
    parser.add_argument("--calls", type=int, default=CALLS, help="instances to run")
    parser.add_argument("--child", metavar="LIBRARY", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child, args.calls)))
        return 0
    src = Path(args.src).resolve()
    with tempfile.TemporaryDirectory(prefix="mecouple-sanitize-") as scratch:
        library = build(src, scratch)
        cmd = [sys.executable, __file__, "--src", str(src), "--calls", str(args.calls),
               "--child", library]
        done = subprocess.run(cmd, env=sanitized_env(src), capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return 1
    result = json.loads(done.stdout.splitlines()[-1])
    print(json.dumps({"tool": "tools/sanitize.py", "flags": " ".join(SANITIZE_FLAGS),
                      "seed": SEED, "clean": True, **result}, indent=1))
    return 0 if result["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
