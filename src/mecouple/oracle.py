"""Exact minimum-entropy coupling by exhaustive search, for desk-size instances.

Entropy is concave, and the minimum of a concave function over a polytope is
attained at a vertex. Every vertex of the coupling polytope can be produced
by a greedy fill: pick any cell, assign it the smaller of its row and column
residuals, retire the exhausted index, repeat. (In a vertex's support forest
some row or column is a leaf, and its single cell carries exactly that
minimum, so induction over all cell orders reaches every vertex.) Minimizing
over all greedy fills therefore gives the true optimum.

The search memoises states by their residual marginals, rounded to
_KEY_DIGITS decimals. Each distinct rounded residual gets a small integer id,
0 for zero, once per call, and a state's key is the tuple of its residuals'
ids: two keys are equal exactly when the rounded tuples are, and small ints
hash faster than floats. A move touches one row and one column residual and
retires one of the two lines, leaving its residual at exactly 0.0, so each
child's key is its parent's with two entries replaced. A child's active
lines are built only when the child is solved, not when the memo holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLarge
from .probvec import DEFAULT_TOL, ProbVec, Tolerances, entropy_bits

DEFAULT_SIZE_CAP = 10
_KEY_DIGITS = 12


class _KeyIds(dict):
    """An int id by residual x, one per distinct round(x, _KEY_DIGITS), 0 for zero."""

    def __init__(self) -> None:
        super().__init__()
        self._by_rounded = {0.0: 0}  # -0.0 == 0.0, so it takes id 0 too

    def __missing__(self, x: float) -> int:
        by_rounded = self._by_rounded
        r = self[x] = by_rounded.setdefault(round(x, _KEY_DIGITS), len(by_rounded))
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
    their ids, one per value rounded to _KEY_DIGITS. A move (i, j) fills
    v = min(r_i, c_j) and retires column j when c_j < r_i, row i otherwise
    (a tie retires the row), leaving that residual at exactly 0.0; so a
    child's key is its parent's with those two entries replaced, and its
    active lines are the parent's less the retired line, and less the other
    one if its residual falls to eps_zero or below. Each line's -v log2 v
    is computed once per state. The child is looked up before anything else
    is built: its residuals and active lines are built only when it is
    solved. Cells are tried row-major over the active lines, and the first
    strictly better move is kept.
    """
    if p.n + q.n > cap:
        raise InstanceTooLarge(f"instance size {p.n}+{q.n} exceeds the enumeration cap {cap}")
    eps = tol.eps_zero
    n, m = p.n, q.n
    memo: dict[tuple, tuple[float, tuple[int, int] | None]] = {}
    ids = _KeyIds()  # local to the call, so no residual outlives it

    def solve(res: list, key: tuple, rows: list, cols: list) -> float:
        # res and key cover rows then columns; cols holds offsets n + j
        best = math.inf
        choice: tuple[int, int] | None = None
        last_row = len(rows) == 1
        last_col = len(cols) == 1
        col_terms = [(j, res[j], -res[j] * math.log2(res[j])) for j in cols]
        for i in rows:
            ri = res[i]
            h_row = -ri * math.log2(ri)
            for j, cj, h_col in col_terms:
                if cj < ri:  # v = cj retires column j
                    a = ri - cj
                    if last_col or (a <= eps and last_row):
                        h = h_col + 0.0  # the fill is done; + 0.0 turns -0.0 into 0.0
                    else:
                        child_key = list(key)
                        child_key[i] = ids[a]
                        child_key[j] = 0
                        child_key = tuple(child_key)
                        hit = memo.get(child_key)
                        if hit is None:
                            child = res.copy()
                            child[i] = a
                            child[j] = 0.0
                            child_rows = rows if a > eps else [r for r in rows if r != i]
                            sub = solve(child, child_key, child_rows, [c for c in cols if c != j])
                        else:
                            sub = hit[0]
                        h = h_col + sub
                else:  # v = ri retires row i
                    b = cj - ri
                    if last_row or (b <= eps and last_col):
                        h = h_row + 0.0
                    else:
                        child_key = list(key)
                        child_key[i] = 0
                        child_key[j] = ids[b]
                        child_key = tuple(child_key)
                        hit = memo.get(child_key)
                        if hit is None:
                            child = res.copy()
                            child[i] = 0.0
                            child[j] = b
                            child_cols = cols if b > eps else [c for c in cols if c != j]
                            sub = solve(child, child_key, [r for r in rows if r != i], child_cols)
                        else:
                            sub = hit[0]
                        h = h_row + sub
                if h < best:
                    best = h
                    choice = (i, j - n)
        memo[key] = (best, choice)
        return best

    # the search runs on Python floats, converted once
    res = p.values.tolist() + q.values.tolist()
    rows = [i for i in range(n) if res[i] > eps]
    cols = [j for j in range(n, n + m) if res[j] > eps]
    opt = solve(res, tuple(map(ids.__getitem__, res)), rows, cols) if rows and cols else 0.0

    # replay the stored choices to materialize one optimal fill
    mat = np.zeros((n, m))
    while any(v > eps for v in res[:n]) and any(v > eps for v in res[n:]):
        _, choice = memo[tuple(map(ids.__getitem__, res))]
        if choice is None:
            break
        i, j = choice
        v = min(res[i], res[n + j])
        mat[i, j] = v
        res[i] -= v
        res[n + j] -= v
    mat.flags.writeable = False
    return opt, VertexCoupling(mat, int((mat > eps).sum()))
