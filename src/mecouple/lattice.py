"""The greatest lower bound (meet) in the majorization lattice."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .probvec import DEFAULT_TOL, ProbVec, Tolerances, _check_entry, _padded


@dataclass(frozen=True, eq=False)
class GlbResult:
    """Greatest lower bound of two distributions; the meet carries the identity perm."""

    meet: ProbVec


# the meet's values in one O(n) pass, the routine min_entropy_coupling's prepare runs
meet_values = _native.meet


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
