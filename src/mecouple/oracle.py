"""Exact minimum-entropy coupling by exhaustive search, for desk-size instances.

Entropy is concave, and the minimum of a concave function over a polytope is
attained at a vertex. Every vertex of the coupling polytope can be produced
by a greedy fill: pick any cell, assign it the smaller of its row and column
residuals, retire the exhausted index, repeat. (In a vertex's support forest
some row or column is a leaf, and its single cell carries exactly that
minimum, so induction over all cell orders reaches every vertex.) Minimizing
over all greedy fills therefore gives the true optimum.

The search runs in compiled C, _fill.c's oracle(), through _native.oracle,
which hands it the marginals and eps alone. It memoises states by their
residuals rounded to _KEY_DIGITS decimals (the compiled module's
KEY_DIGITS), as the reference does: a state's key is one word per residual,
the bits of its rounded value (Python's round, which _fill.c's rounded()
gives bit for bit), or 0 where it rounds to zero, -0.0 included. The
residuals' copy, the memo and every buffer are sized from n + m on the
heap and freed when the call returns. A call holds its thread in C until
it returns, so Ctrl-C waits for it (about 20 ms at the default cap).
tests/util.py's reference_exact_min_entropy is the search written in
Python, and the two agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import InstanceTooLarge
from .probvec import DEFAULT_TOL, ProbVec, Tolerances, entropy_bits

DEFAULT_SIZE_CAP = 10
_KEY_DIGITS = _native.LIB.KEY_DIGITS


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
    compared to enumerating whole fills. The active lines are those whose
    residual is above eps_zero. A move (i, j) fills v = min(r_i, c_j) and
    retires column j when c_j < r_i, row i otherwise (a tie retires the
    row), leaving that residual at exactly 0.0. Cells are tried row-major
    over the active lines, and the first strictly better move is kept; its
    stored first moves are replayed from the marginals to give the matrix.
    InstanceTooLarge if n + m exceeds cap.
    """
    if p.n + q.n > cap:
        raise InstanceTooLarge(f"instance size {p.n}+{q.n} exceeds the enumeration cap {cap}")
    opt, mat = _native.oracle(p.values, q.values, tol.eps_zero)
    mat.flags.writeable = False
    return opt, VertexCoupling(mat, int((mat > tol.eps_zero).sum()))
