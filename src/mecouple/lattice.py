"""The greatest lower bound (meet) in the majorization lattice."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .errors import InternalInvariant
from .probvec import DEFAULT_TOL, ProbVec, Tolerances, _check_entry, _padded


@dataclass(frozen=True, eq=False)
class GlbResult:
    """Greatest lower bound of two distributions; the meet carries the identity perm."""

    meet: ProbVec


NEGATIVE_MEET = "meet produced a component below -eps_zero"


def meet_values(a: np.ndarray, b: np.ndarray, eps_zero: float) -> np.ndarray:
    """First differences of the pointwise minimum of two prefix-sum curves.

    Both inputs must be sorted non-increasingly, C-contiguous float64 and of
    one length. The minimum of two concave sequences is concave, so the
    differences come out non-increasing without any re-sort. Micro-negative
    differences produced by floating-point cancellation are clamped to zero.
    _fill.c's meet() computes them in one pass, with the floats of
    np.diff(np.minimum(a.cumsum(), b.cumsum()), prepend=0.0).
    """
    at, z = _native.addresses(a, b), np.empty(a.size)
    # from_buffer refuses an empty buffer
    if a.size and _native.LIB.meet(*at, a.size, eps_zero, _native.DOUBLES(z)) < 0:
        raise InternalInvariant(NEGATIVE_MEET)
    return z


def glb(p: ProbVec, q: ProbVec, tol: Tolerances = DEFAULT_TOL) -> GlbResult:
    """The unique largest distribution majorized by both p and q.

    Its i-th prefix sum is the smaller of p's and q's i-th prefix sums;
    unequal lengths are zero-padded first, as min_entropy_coupling pads
    them, and the meet is read by meet_values in O(n), the routine the
    coupling uses. Inputs are checked as in min_entropy_coupling
    (_check_entry): ValidationError if unsorted, BadTotal on a bad total.
    """
    _check_entry((p, q), tol)
    n = max(p.n, q.n)
    z = meet_values(_padded(p, n)[0], _padded(q, n)[0], tol.eps_zero)
    # z: fresh, >= 0 after the clamp-or-raise, finite as both totals passed
    return GlbResult(meet=ProbVec._adopt(z, np.arange(n)))
