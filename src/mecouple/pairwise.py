"""Two-marginal coupling with entropy at most one bit above the minimum.

inversion_points orients the pair by one bit, swapped, set where b
exceeds a at the last component in which they differ, and cuts indices
n..1 into alternating runs ("segments"): in odd ones the suffix sums of
the marginal larger there dominate the other's, in even ones the reverse,
and a run ends where the sign of the suffix differences flips. The greedy
kernel, _native.fill, then walks the segments downward over the caller's
pair: each component z_j of the meet z = p ∧ q becomes a part on the diagonal
cell (j, j) plus a remainder carried toward the next index, and at a
segment boundary the carried remainders are flushed one index further.
Every output cell is therefore one of at most two pieces of some z_j,
which caps the joint entropy at H(z) + 1 bit and the support size at 2n,
while H(z) itself lower-bounds every coupling's entropy. The kernel merges
its ascending diagonal parts with its remainders as it ends, so the
pieces leave it row-major and no sort follows.

min_entropy_coupling makes three calls into _fill.c, through _native:
prepare orients the pair, writes the segments and the meet, and counts m,
its components z_j > 0; fill writes the pieces into buffers of 2m cells;
check sees only those pieces and the marginals, refuses a cell outside the
n x n square or out of row-major order, and sums each axis as np.bincount
does. This module keeps the policy: the entry check, the padding, the
equal-marginals shortcut and the eps_sum, total and support checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import _native
from .errors import InstanceTooLarge, InternalInvariant, LengthMismatch
from .lattice import glb
from .probvec import (
    DEFAULT_TOL,
    ProbVec,
    Tolerances,
    _check_entry,
    entropy,
    entropy_bits,
    _padded,
)


@dataclass(frozen=True)
class InversionPoints:
    """Decreasing index sequence splitting 1..n into dominance segments.

    indices is 1-based: indices[0] = n+1, indices[-1] = 1. Segment s
    (1-based) covers indices[s] .. indices[s-1]-1; odd segments are where
    the first marginal's suffix sums dominate, even segments the reverse.
    swapped records whether the two inputs were exchanged to make the last
    differing component belong to the larger side.
    """

    indices: tuple[int, ...]
    swapped: bool

    @property
    def k(self) -> int:
        return len(self.indices) - 1


MATRIX_CELL_CAP = 4096 * 4096


def _scatter(shape: tuple, index: tuple, values: np.ndarray, cap: int) -> np.ndarray:
    """Values at index in zeros of shape; InstanceTooLarge above cap cells, before allocating."""
    cells = math.prod(shape)
    if cells > cap:
        raise InstanceTooLarge(f"dense array needs {cells} cells, cap is {cap}")
    out = np.zeros(shape)
    out[index] = values
    return out


class _Derived:
    """Data descriptor for a dataclass field computed from the other fields.

    A value passed to the constructor is kept as given; otherwise build(obj)
    computes it on first read and caches it, an array read-only since every
    reader shares it. Class access returns None, which dataclasses takes as
    the field's default.
    """

    def __init__(self, build) -> None:
        self.build = build

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = f"_{name}"

    def __get__(self, obj, owner: type | None = None):
        if obj is None:
            return None
        value = obj.__dict__.get(self.slot)
        if value is None:
            value = obj.__dict__[self.slot] = self.build(obj)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.slot] = value


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Joint distribution of p and q, stored as its nonzero pieces.

    Piece i holds mass vals[i] at cell (rows[i], cols[i]) in sorted
    (non-increasing marginal) order; there are at most 2n pieces, listed
    row-major with each cell once, as min_entropy_coupling checks.
    row_perm/col_perm are the inputs' read-only perm arrays, mapping sorted
    positions back to the caller's indices. nnz counts pieces above
    eps_zero. The dense n x n matrix is built from the pieces only when
    .matrix is read, is cached and read-only, and is refused above
    MATRIX_CELL_CAP cells. A matrix passed to the constructor
    (dataclasses.replace passes the current one) is kept as given,
    unchecked against the pieces.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    row_perm: np.ndarray
    col_perm: np.ndarray
    nnz: int
    matrix: np.ndarray = _Derived(
        lambda cm: _scatter((cm.n, cm.n), (cm.rows, cm.cols), cm.vals, MATRIX_CELL_CAP)
    )

    @property
    def n(self) -> int:
        return self.row_perm.size

    def __repr__(self) -> str:
        return f"CouplingMatrix(n={self.n}, nnz={self.nnz})"

    def entropy(self) -> float:
        """Joint Shannon entropy in bits."""
        return entropy_bits(self.vals)

    def in_original_order(self) -> np.ndarray:
        """The dense matrix rearranged back to the callers' indexing."""
        index = (self.row_perm[self.rows], self.col_perm[self.cols])
        return _scatter((self.n, self.n), index, self.vals, MATRIX_CELL_CAP)


class BoundsReport(NamedTuple):
    """Entropy and mutual-information bounds derivable from marginals alone."""

    h_p: float
    h_q: float
    h_glb: float
    mi_upper_improved: float
    mi_upper_classic: float
    joint_lower_classic: float


class DistanceInterval(NamedTuple):
    """Certified interval for the entropic distance 2W - H(p) - H(q)."""

    lower: float
    upper: float
    estimate: float


def inversion_points(p: ProbVec, q: ProbVec, tol: Tolerances = DEFAULT_TOL) -> InversionPoints:
    """Dominance segments of a pair of equal-length distributions, by _native.prepare.

    The pair is oriented first: if the largest index where the components
    differ by more than eps_zero has p below q, the roles are exchanged and
    swapped is set, as in min_entropy_coupling. Inputs with no such
    component are equal, as its diagonal shortcut judges them: a single
    segment, indices (n+1, 1), not swapped.
    """
    if p.n != q.n:
        raise LengthMismatch(f"lengths differ: {p.n} vs {q.n}; pad first")
    at = _native.addresses(p.values, q.values)
    _, idx, swapped, _ = _native.prepare(at, p.n, tol.eps_zero)
    return InversionPoints(tuple(idx.tolist()), bool(swapped))


def _check_pieces(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, a: np.ndarray, b: np.ndarray,
    tol: Tolerances, at: Sequence[int] | None = None,
) -> int:
    """Post-condition of min_entropy_coupling: _native.check, the total, the support.

    Raises InternalInvariant, in this order, for the first piece outside the
    n x n square or out of row-major order (or written twice), an axis off a
    or b or a total off 1 beyond eps_sum (a NaN fails both), and more than
    2n pieces. Returns nnz, the count of values above eps_zero; at as in
    _native.fill. tests/util.py's reference_check_pieces is its numpy form.
    """
    nnz, devs = _native.check(rows, cols, vals, a, b, tol.eps_zero, at)
    for axis in (0, 1):
        if not devs[axis] <= tol.eps_sum:
            raise InternalInvariant(f"axis {axis} marginal off by {devs[axis]!r}")
    _check_mass(vals, tol)
    if vals.size > 2 * a.size:
        raise InternalInvariant(f"support size {vals.size} exceeds 2n = {2 * a.size}")
    return nnz


def _check_mass(vals: np.ndarray, tol: Tolerances) -> None:
    total = float(np.add.reduce(vals))
    if not abs(total - 1.0) <= tol.eps_sum:
        raise InternalInvariant(f"coupling mass {total!r} deviates from 1 beyond eps_sum")


def min_entropy_coupling(
    p: ProbVec,
    q: ProbVec,
    tol: Tolerances = DEFAULT_TOL,
) -> CouplingMatrix:
    """A coupling of p and q with entropy within one bit of the minimum.

    The coupling has side n = max(p.n, q.n) (inputs are zero-padded to a
    common length), exact marginals and total mass up to eps_sum, at most
    2n nonzero cells, and H(p ∧ q) <= H(M) <= H(p ∧ q) + 1 bit. It is built
    row-major and checked as its pieces in O(n) time and memory; the dense
    .matrix is built only when read, and is refused above MATRIX_CELL_CAP
    cells. Identical inputs always produce identical couplings. Inputs are
    taken as given, not re-sorted: values out of non-increasing order raise
    ValidationError, and a total off 1 by more than eps_sum raises BadTotal.
    That entry check is skipped for an input that make_probvec validated
    under an eps_sum no wider than tol's, which passes it.
    """
    _check_entry((p, q), tol)
    n = max(p.n, q.n)
    a, row_perm = _padded(p, n)
    b, col_perm = _padded(q, n)
    at = a.ctypes.data, b.ctypes.data
    z, idx, swapped, m = _native.prepare(at, n, tol.eps_zero)
    if z is None:
        # componentwise-equal marginals couple on the diagonal, in lines where
        # both are positive: a mass at or below eps_zero opposite a zero stays
        # out of that zero's line
        rows = cols = ((a > 0.0) & (b > 0.0)).nonzero()[0]
        vals = a[rows]
    else:
        rows, cols, vals = _native.fill(a, b, z, idx, tol, swapped, m, at)
    nnz = _check_pieces(rows, cols, vals, a, b, tol, at)
    for arr in (rows, cols, vals):
        arr.flags.writeable = False
    return CouplingMatrix(
        rows=rows,
        cols=cols,
        vals=vals,
        row_perm=row_perm,
        col_perm=col_perm,
        nnz=nnz,
    )


def bounds(p: ProbVec, q: ProbVec, tol: Tolerances = DEFAULT_TOL) -> BoundsReport:
    """Marginal-only bounds on joint entropy and mutual information.

    H(p ∧ q) lower-bounds every coupling's entropy and dominates the classic
    bound max(H(p), H(q)); dually H(p) + H(q) - H(p ∧ q) upper-bounds the
    mutual information below the classic min(H(p), H(q)).
    """
    h_p = entropy(p)
    h_q = entropy(q)
    h_glb = entropy(glb(p, q, tol).meet)
    return BoundsReport(
        h_p=h_p,
        h_q=h_q,
        h_glb=h_glb,
        mi_upper_improved=h_p + h_q - h_glb,
        mi_upper_classic=min(h_p, h_q),
        joint_lower_classic=max(h_p, h_q),
    )


def distance_interval(
    p: ProbVec,
    q: ProbVec,
    tol: Tolerances = DEFAULT_TOL,
) -> DistanceInterval:
    """Certified enclosure of the entropic distance 2W(p,q) - H(p) - H(q).

    W is the (intractable) minimum coupling entropy; H(p ∧ q) <= W <= H(M)
    brackets it with a gap of at most one bit, so the interval below has
    width at most 2 and lower + 1 estimates the distance with additive error
    at most 1.
    """
    rep = bounds(p, q, tol)
    h_m = min_entropy_coupling(p, q, tol).entropy()
    lower = 2.0 * rep.h_glb - rep.h_p - rep.h_q
    upper = 2.0 * h_m - rep.h_p - rep.h_q
    return DistanceInterval(lower=lower, upper=upper, estimate=lower + 1.0)
