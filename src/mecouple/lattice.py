"""The greatest lower bound (meet) in the majorization lattice."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariant
from .probvec import DEFAULT_TOL, ProbVec, Tolerances, check_sorted_total, pad_to


@dataclass(frozen=True, eq=False)
class GlbResult:
    """Greatest lower bound of two distributions, plus their cached prefix sums.

    prefix_p and prefix_q are read-only float64 arrays of the zero-padded
    inputs' prefix sums; the meet carries the identity perm.
    """

    meet: ProbVec
    prefix_p: np.ndarray
    prefix_q: np.ndarray


def meet_values(a: np.ndarray, b: np.ndarray, eps_zero: float) -> np.ndarray:
    """First differences of the pointwise minimum of two prefix-sum curves.

    Both inputs must be sorted non-increasingly and of equal length. The
    minimum of two concave sequences is concave, so the differences come out
    non-increasing without any re-sort. Micro-negative differences produced
    by floating-point cancellation are clamped to zero.
    """
    ca = np.cumsum(a)
    cb = np.cumsum(b)
    z = np.diff(np.minimum(ca, cb), prepend=0.0)
    tiny = (z < 0.0) & (z >= -eps_zero)
    z[tiny] = 0.0
    if np.any(z < 0.0):
        raise InternalInvariant("meet produced a component below -eps_zero")
    return z


def glb(p: ProbVec, q: ProbVec, tol: Tolerances = DEFAULT_TOL) -> GlbResult:
    """The unique largest distribution majorized by both p and q.

    Its i-th prefix sum is min(prefix_p[i], prefix_q[i]); unequal lengths are
    zero-padded first. Runs in O(n) after the prefix sums. Inputs are checked
    as in min_entropy_coupling: ValidationError if unsorted, BadTotal on a bad total.
    """
    check_sorted_total(p.values, tol)
    check_sorted_total(q.values, tol)
    n = max(p.n, q.n)
    a = pad_to(p, n).as_array()
    b = pad_to(q, n).as_array()
    z = meet_values(a, b, tol.eps_zero)
    prefix_p = np.cumsum(a)
    prefix_q = np.cumsum(b)
    prefix_p.flags.writeable = False
    prefix_q.flags.writeable = False
    return GlbResult(meet=ProbVec(z, np.arange(n)), prefix_p=prefix_p, prefix_q=prefix_q)

