"""Exact minimum-entropy coupling by exhaustive search, for desk-size instances.

Entropy is concave, and the minimum of a concave function over a polytope is
attained at a vertex. Every vertex of the coupling polytope can be produced
by a greedy fill: pick any cell, assign it the smaller of its row and column
residuals, retire the exhausted index, repeat. (In a vertex's support forest
some row or column is a leaf, and its single cell carries exactly that
minimum, so induction over all cell orders reaches every vertex.) Minimizing
over all greedy fills therefore gives the true optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLarge
from .probvec import DEFAULT_TOL, ProbVec, Tolerances, entropy_bits

DEFAULT_SIZE_CAP = 10
_KEY_DIGITS = 12


@dataclass(frozen=True, eq=False)
class VertexCoupling:
    """A coupling whose support is a forest (a basic feasible solution)."""

    matrix: np.ndarray
    support_size: int

    def entropy(self) -> float:
        return entropy_bits(self.matrix)


def exact_min_entropy(
    p: ProbVec,
    q: ProbVec,
    tol: Tolerances = DEFAULT_TOL,
    cap: int = DEFAULT_SIZE_CAP,
) -> tuple[float, VertexCoupling]:
    """The true minimum coupling entropy in bits, with one attaining matrix.

    Runs a dynamic program over residual-marginal states: the optimal
    completion of a partial greedy fill depends only on the residuals, and
    cell contributions -v log2 v are additive, so states collapse heavily
    compared to enumerating whole fills.
    """
    if p.n + q.n > cap:
        raise InstanceTooLarge(f"instance size {p.n}+{q.n} exceeds the enumeration cap {cap}")
    eps = tol.eps_zero
    n, m = p.n, q.n
    memo: dict[tuple, tuple[float, tuple[int, int] | None]] = {}

    def key_of(res_p, res_q):
        return (
            tuple(round(v, _KEY_DIGITS) for v in res_p),
            tuple(round(v, _KEY_DIGITS) for v in res_q),
        )

    def solve(res_p: tuple, res_q: tuple) -> float:
        rows = [i for i in range(n) if res_p[i] > eps]
        cols = [j for j in range(m) if res_q[j] > eps]
        if not rows or not cols:
            return 0.0
        key = key_of(res_p, res_q)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        best = math.inf
        choice: tuple[int, int] | None = None
        for i in rows:
            for j in cols:
                v = min(res_p[i], res_q[j])
                rp = list(res_p)
                rq = list(res_q)
                rp[i] -= v
                rq[j] -= v
                h = -v * math.log2(v) + solve(tuple(rp), tuple(rq))
                if h < best:
                    best = h
                    choice = (i, j)
        memo[key] = (best, choice)
        return best

    # the search runs on Python floats, converted once
    res_p, res_q = p.values.tolist(), q.values.tolist()
    opt = solve(tuple(res_p), tuple(res_q))

    # replay the stored choices to materialize one optimal fill
    mat = np.zeros((n, m))
    while any(v > eps for v in res_p) and any(v > eps for v in res_q):
        _, choice = memo[key_of(res_p, res_q)]
        if choice is None:
            break
        i, j = choice
        v = min(res_p[i], res_q[j])
        mat[i, j] = v
        res_p[i] -= v
        res_q[j] -= v
    mat.flags.writeable = False
    return opt, VertexCoupling(mat, int((mat > eps).sum()))
