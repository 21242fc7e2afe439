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
child's key is its parent's with two entries replaced. Its active lines,
each held with its residual and its -v log2 v term, are a copy of its
parent's with the retired line deleted and the other line's entry replaced
(or deleted too, at eps_zero or below). Nothing of a child is built when
the memo already holds it, and the memo is freed when the call returns.
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
    compared to enumerating whole fills. A state is its memo key, the tuple
    of the ids of its residuals (rows 0..n-1 then columns n..n+m-1, one id
    per value rounded to _KEY_DIGITS), and its active rows and columns, each
    as (line, residual, -residual log2 residual) in index order. A move
    (i, j) fills v = min(r_i, c_j) and retires column j when c_j < r_i, row
    i otherwise (a tie retires the row), leaving that residual at exactly
    0.0. Each state builds one key list; a move sets that list's two
    entries, takes the child's key as a tuple and restores them, and the
    child is looked up before anything else is built. A child that is
    solved inherits copies of its parent's line lists: the retired line is
    deleted at its known position, and the other line's entry is replaced,
    with its term computed once, or deleted if its residual falls to
    eps_zero or below. Best values and first moves are kept in two dicts,
    so a memo hit is one lookup that returns the value. Cells are tried
    row-major over the active lines, and the first strictly better move is
    kept. The search function is deleted once it has run, which breaks its
    reference to itself, so the memo is freed by reference counting when
    the call returns rather than left for the cyclic garbage collector.
    """
    if p.n + q.n > cap:
        raise InstanceTooLarge(f"instance size {p.n}+{q.n} exceeds the enumeration cap {cap}")
    eps = tol.eps_zero
    n, m = p.n, q.n
    values: dict[tuple, float] = {}  # a solved state's optimal completion
    choices: dict[tuple, tuple[int, int]] = {}  # and its first move
    ids = _KeyIds()  # local to the call, so no residual outlives it

    def solve(key: tuple, rows: list, cols: list) -> float:
        # rows and cols hold (line, residual, -residual*log2(residual)) per
        # active line; key covers rows then columns, and columns are n + j
        best = math.inf
        choice = None
        last_row = len(rows) == 1
        last_col = len(cols) == 1
        child_key = list(key)
        for pos_i, (i, ri, h_row) in enumerate(rows):
            key_i = key[i]
            for pos_j, (j, cj, h_col) in enumerate(cols):
                if cj < ri:  # v = cj retires column j
                    a = ri - cj
                    if last_col or (a <= eps and last_row):
                        h = h_col + 0.0  # the fill is done; + 0.0 turns -0.0 into 0.0
                    else:
                        child_key[i] = ids[a]
                        child_key[j] = 0
                        hit_key = tuple(child_key)
                        child_key[i] = key_i
                        child_key[j] = key[j]
                        sub = values.get(hit_key)
                        if sub is None:
                            child_rows = rows.copy()
                            child_cols = cols.copy()
                            if a > eps:
                                child_rows[pos_i] = (i, a, -a * math.log2(a))
                            else:
                                del child_rows[pos_i]
                            del child_cols[pos_j]
                            sub = solve(hit_key, child_rows, child_cols)
                        h = h_col + sub
                else:  # v = ri retires row i
                    b = cj - ri
                    if last_row or (b <= eps and last_col):
                        h = h_row + 0.0
                    else:
                        child_key[i] = 0
                        child_key[j] = ids[b]
                        hit_key = tuple(child_key)
                        child_key[i] = key_i
                        child_key[j] = key[j]
                        sub = values.get(hit_key)
                        if sub is None:
                            child_rows = rows.copy()
                            child_cols = cols.copy()
                            if b > eps:
                                child_cols[pos_j] = (j, b, -b * math.log2(b))
                            else:
                                del child_cols[pos_j]
                            del child_rows[pos_i]
                            sub = solve(hit_key, child_rows, child_cols)
                        h = h_row + sub
                if h < best:
                    best = h
                    choice = (i, j - n)
        values[key] = best
        choices[key] = choice
        return best

    # the search runs on Python floats, converted once
    res = p.values.tolist() + q.values.tolist()
    rows = [(i, v, -v * math.log2(v)) for i, v in enumerate(res[:n]) if v > eps]
    cols = [(j, v, -v * math.log2(v)) for j, v in enumerate(res[n:], n) if v > eps]
    opt = solve(tuple(map(ids.__getitem__, res)), rows, cols) if rows and cols else 0.0
    del solve  # clears the closure cell through which solve holds itself and the memo

    # replay the stored choices to materialize one optimal fill
    mat = np.zeros((n, m))
    while any(v > eps for v in res[:n]) and any(v > eps for v in res[n:]):
        i, j = choices[tuple(map(ids.__getitem__, res))]
        v = min(res[i], res[n + j])
        mat[i, j] = v
        res[i] -= v
        res[n + j] -= v
    mat.flags.writeable = False
    return opt, VertexCoupling(mat, int((mat > eps).sum()))
