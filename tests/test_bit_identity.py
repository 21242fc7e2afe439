"""One SHA-256 over fixed-seed coupling outputs, pinned so a change that
should keep outputs bit-identical is checked on every run.

The inputs come from numpy.random.default_rng(SEED) alone. The hash covers
min_entropy_coupling's rows, cols, vals, row_perm, col_perm, n and nnz for
PAIRS pairs, and k_min_entropy_coupling's values, coords and dims for
JOINTS joints. A call that raises hashes its exception's class name.
tools/digest.py is the slower, wider check, CLI included.
"""

import hashlib

import numpy as np

from mecouple import k_min_entropy_coupling, make_probvec, min_entropy_coupling
from mecouple.probvec import DEFAULT_TOL

SEED = 15
PAIRS = 300
JOINTS = 20
KINDS = ("dirichlet1", "dirichlet0.1", "ties64", "equal", "tails")
PINNED = "8646718939fd94cf77b8fdd14d85173a040f044145cad86771941997cc22d3cb"


def _vector(rng, kind: str, n: int) -> np.ndarray:
    if kind == "dirichlet1":
        return rng.dirichlet(np.ones(n))
    if kind == "dirichlet0.1":
        return rng.dirichlet(np.full(n, 0.1))
    if kind == "ties64":
        return rng.multinomial(64, np.full(n, 1.0 / n)) / 64.0
    # a distribution followed by masses at or below eps_zero
    eps = DEFAULT_TOL.eps_zero
    tail = rng.choice([0.0, eps / 4, eps / 2, eps], size=int(rng.integers(1, 9)))
    return np.concatenate((rng.dirichlet(np.ones(n)), tail))


def _inputs():
    """PAIRS pairs of lengths 1 to 48 drawn apart, then JOINTS k-way lists."""
    rng = np.random.default_rng(SEED)
    pairs = []
    for i in range(PAIRS):
        kind = KINDS[i % len(KINDS)]
        n, m = (int(x) for x in rng.integers(1, 49, size=2))
        if kind == "equal":
            p = _vector(rng, "dirichlet1", n)
            pairs.append((p, p.copy()))
        else:
            pairs.append((_vector(rng, kind, n), _vector(rng, kind, m)))
    joints = []
    for i in range(JOINTS):
        kind = KINDS[i % len(KINDS)]
        k = int(rng.integers(2, 12))
        if kind == "equal":
            joints.append([_vector(rng, "dirichlet1", int(rng.integers(1, 13)))] * k)
        else:
            joints.append([_vector(rng, kind, int(rng.integers(1, 13))) for _ in range(k)])
    return pairs, joints


def _arrays(h, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())


def outputs_digest() -> str:
    pairs, joints = _inputs()
    h = hashlib.sha256()
    for raw_p, raw_q in pairs:
        try:
            cm = min_entropy_coupling(make_probvec(raw_p), make_probvec(raw_q))
            _arrays(h, cm.rows, cm.cols, cm.vals, cm.row_perm, cm.col_perm)
            h.update(f"{cm.n},{cm.nnz}\0".encode())
        except Exception as exc:  # a crash is an outcome to compare too
            h.update(type(exc).__name__.encode())
    for raws in joints:
        try:
            joint = k_min_entropy_coupling([make_probvec(r) for r in raws])
            _arrays(h, joint.values, joint.coords)
            h.update(repr(joint.dims).encode())
        except Exception as exc:
            h.update(type(exc).__name__.encode())
    return h.hexdigest()


def test_outputs_match_the_pinned_digest():
    assert outputs_digest() == PINNED
