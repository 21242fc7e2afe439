"""Exact minimum-entropy coupling by exhaustive search, for desk-size instances.

Entropy is concave, and the minimum of a concave function over a polytope is
attained at a vertex. Every vertex of the coupling polytope can be produced
by a greedy fill: pick any cell, assign it the smaller of its row and column
residuals, retire the exhausted index, repeat. (In a vertex's support forest
some row or column is a leaf, and its single cell carries exactly that
minimum, so induction over all cell orders reaches every vertex.) Minimizing
over all greedy fills therefore gives the true optimum.

The search memoises states by their residual marginals, rounded to
_KEY_DIGITS decimals. A move touches one row and one column residual and
leaves one of them at exactly 0.0, so each child's key is its parent's with
two entries replaced, and each distinct residual is rounded once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLarge
from .probvec import DEFAULT_TOL, ProbVec, Tolerances, entropy_bits

DEFAULT_SIZE_CAP = 10
_KEY_DIGITS = 12


class _Rounded(dict):
    """round(x, _KEY_DIGITS) by x, computed on first lookup."""

    def __missing__(self, x: float) -> float:
        r = self[x] = round(x, _KEY_DIGITS)
        return r


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
    compared to enumerating whole fills. The residuals are one list, rows
    0..n-1 then columns n..n+m-1, and a state's memo key is the tuple of
    them rounded to _KEY_DIGITS. A move (i, j) changes two residuals, one of
    them to exactly 0.0, so a child's key is its parent's with those two
    entries replaced, and its active lines are the parent's less any line
    the move retires. The child is looked up before its residuals are
    copied; cells are tried row-major over the active lines, and the first
    strictly better move is kept.
    """
    if p.n + q.n > cap:
        raise InstanceTooLarge(f"instance size {p.n}+{q.n} exceeds the enumeration cap {cap}")
    eps = tol.eps_zero
    n, m = p.n, q.n
    memo: dict[tuple, tuple[float, tuple[int, int] | None]] = {}
    rnd = _Rounded()  # local to the call, so no residual outlives it

    def solve(res: list, key: tuple, rows: list, cols: list) -> float:
        # res and key cover rows then columns; cols holds offsets n + j
        best = math.inf
        choice: tuple[int, int] | None = None
        cols_left = [[c for c in cols if c != j] for j in cols]
        for i in rows:
            ri = res[i]
            rows_left = [r for r in rows if r != i]
            for j, cols_j in zip(cols, cols_left):
                cj = res[j]
                v = cj if cj < ri else ri  # min(ri, cj)
                a = ri - v
                b = cj - v
                child_rows = rows if a > eps else rows_left
                child_cols = cols if b > eps else cols_j
                if not child_rows or not child_cols:
                    sub = 0.0
                else:
                    child_key = list(key)
                    child_key[i] = rnd[a]
                    child_key[j] = rnd[b]
                    child_key = tuple(child_key)
                    hit = memo.get(child_key)
                    if hit is not None:
                        sub = hit[0]
                    else:
                        child = res.copy()
                        child[i] = a
                        child[j] = b
                        sub = solve(child, child_key, child_rows, child_cols)
                h = -v * math.log2(v) + sub
                if h < best:
                    best = h
                    choice = (i, j - n)
        memo[key] = (best, choice)
        return best

    # the search runs on Python floats, converted once
    res = p.values.tolist() + q.values.tolist()
    rows = [i for i in range(n) if res[i] > eps]
    cols = [j for j in range(n, n + m) if res[j] > eps]
    opt = solve(res, tuple(map(rnd.__getitem__, res)), rows, cols) if rows and cols else 0.0

    # replay the stored choices to materialize one optimal fill
    mat = np.zeros((n, m))
    while any(v > eps for v in res[:n]) and any(v > eps for v in res[n:]):
        _, choice = memo[tuple(map(rnd.__getitem__, res))]
        if choice is None:
            break
        i, j = choice
        v = min(res[i], res[n + j])
        mat[i, j] = v
        res[i] -= v
        res[n + j] -= v
    mat.flags.writeable = False
    return opt, VertexCoupling(mat, int((mat > eps).sum()))
