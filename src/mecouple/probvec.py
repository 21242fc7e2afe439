"""Validated probability vectors and Shannon entropy.

Every distribution in this package is kept in non-increasing order together
with the permutation back to the caller's original indexing, so downstream
results can be reported either way. Both are read-only numpy arrays, so the
numeric layers read them in place.

A vector is validated once, where it enters or is made. The public ProbVec
constructor copies and checks whatever a caller passes; the vectors the
package builds itself (make_probvec's result, glb's meet, pad_to's result
and the k-way merge inputs) are made from arrays that are valid by
construction, and ProbVec._adopt takes those arrays as they are.

The algorithms that take a ProbVec as given (min_entropy_coupling, glb and
k_min_entropy_coupling) start with _check_entry, which runs
check_sorted_total on each input's values, since a hand-built vector may be
unsorted or short. make_probvec's result has passed that very check: its
values are a gather in the order of a sort by -value, ties by ascending
original index, so exactly non-increasing, and its total was summed as
check_sorted_total sums it. It records the eps_sum it passed under, and
_check_entry skips it (and the k-way merge leaf cut from it) under any
eps_sum at least as wide. Every other vector, such as a dataclasses.replace
copy, glb's meet, pad_to's result or a merge node's values, is checked.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadTotal,
    Empty,
    NegativeMass,
    ShrinkRequested,
    ValidationError,
)


@dataclass(frozen=True)
class Tolerances:
    """Numeric slack used by validation and comparisons.

    eps_sum bounds how far total mass may drift from 1; eps_zero is the
    magnitude below which a value is treated as exactly zero.
    """

    eps_sum: float = 1e-9
    eps_zero: float = 1e-12

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_zero < self.eps_sum < 1.0):
            raise ValueError(
                "tolerances must satisfy 0 < eps_zero < eps_sum < 1, got "
                f"eps_zero={self.eps_zero!r}, eps_sum={self.eps_sum!r}"
            )


DEFAULT_TOL = Tolerances()
STABLE_MAX = 128  # up to this many values a stable sort costs what a default one and a tie check do


@dataclass(frozen=True, eq=False)
class ProbVec:
    """A discrete distribution, sorted non-increasingly.

    values is a read-only float64 array of finite, non-negative masses; perm
    is a read-only intp array mapping each sorted position to the caller's
    original index, a bijection on range(n). The constructor copies both
    inputs, so later changes to the caller's arrays do not reach it. It
    checks neither order nor total (see check_sorted_total).
    """

    values: np.ndarray
    perm: np.ndarray
    # the eps_sum under which make_probvec checked order and total; set on
    # its results only (see _check_entry), a class default everywhere else
    _checked_eps_sum = float("inf")

    def __post_init__(self) -> None:
        values = _float_array(self.values).copy()
        perm = np.asarray(self.perm)
        if perm.size and perm.dtype.kind not in "iu":
            raise ValidationError("perm must hold integers")
        perm = perm.astype(np.intp)
        if values.ndim != 1 or values.shape != perm.shape:
            raise ValidationError("values and perm must be 1-D and of equal length")
        n = values.size
        if n and (
            perm.min() < 0
            or perm.max() >= n
            or not (np.bincount(perm, minlength=n) == 1).all()
        ):
            raise ValidationError("perm must be a bijection on range(n)")
        if not np.isfinite(values).all():
            raise ValidationError("ProbVec components must be finite")
        if (values < 0.0).any():
            raise NegativeMass("ProbVec components must be non-negative")
        values.flags.writeable = False
        perm.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "perm", perm)

    @classmethod
    def _adopt(cls, values: np.ndarray, perm: np.ndarray) -> ProbVec:
        """A ProbVec over fresh arrays the package has just made valid.

        No copy and no check: the caller guarantees what __post_init__ would
        check (1-D float64 values, finite and non-negative; an intp perm that
        is a bijection on range(n)) and hands the arrays over, so no one else
        writes to them. Both are made read-only here.
        """
        values.flags.writeable = False
        perm.flags.writeable = False
        self = object.__new__(cls)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "perm", perm)
        return self

    @property
    def n(self) -> int:
        return self.values.size

    def in_original_order(self) -> np.ndarray:
        """The components rearranged back to the caller's indexing."""
        out = np.empty(self.n)
        out[self.perm] = self.values
        return out


def make_probvec(raw: Sequence[float] | Iterable[float], tol: Tolerances = DEFAULT_TOL) -> ProbVec:
    """Validate a raw vector and sort it non-increasingly.

    Ties keep ascending original index, as a stable sort would (0.0 and
    -0.0 tie), values in [-eps_zero, 0) are clamped to zero, and total mass
    is checked on the sorted, clamped values but never rescaled: a bad total
    is the caller's bug to fix. Arrays, lists and tuples are read in place;
    other iterables are collected first.

    Up to STABLE_MAX components the sort is numpy's stable argsort. Above,
    it is the default argsort, which is not stable, and the perm is then
    unique wherever the values are distinct; only when two sorted values are
    equal are the runs of equal values put back in ascending original index,
    by sorting the keys run * n + index.
    """
    arr = _float_array(raw)
    if arr.ndim != 1:
        raise ValidationError("input must be a flat sequence of numbers")
    if arr.size == 0:
        raise Empty("a distribution needs at least one component")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValidationError("input contains non-finite entries")
    neg = arr < 0.0
    if np.count_nonzero(neg):
        bad = (arr < -tol.eps_zero).nonzero()[0]
        if bad.size:
            i = int(bad[0])
            raise NegativeMass(f"component {i} is {arr[i]!r}, below -eps_zero")
        arr = np.where(neg, 0.0, arr)
    small = arr.size <= STABLE_MAX
    order = (-arr).argsort(kind="stable" if small else None)
    values = arr[order]
    if not small:
        step = values[1:] != values[:-1]
        if np.count_nonzero(step) != step.size:
            # run r of equal values has keys in [r * n, (r + 1) * n), below
            # n**2 < 2**63 in int64 whatever intp's width, so one sort of the
            # keys orders each run by index; add.accumulate is step.cumsum()
            # without its method's call overhead
            n = arr.size
            run = np.zeros(n, np.int64)
            np.add.accumulate(step, dtype=np.int64, out=run[1:])
            run *= n
            key = run + order
            key.sort()
            order = np.subtract(key, run, out=key).astype(np.intp, copy=False)
            values = arr[order]  # again: a -0.0 in a run of zeros moves with its index
    _check_total(values, tol)  # of the array returned, as check_sorted_total sums it
    # values: a fresh gather of finite entries clamped at 0; order: a perm of range(n)
    p = ProbVec._adopt(values, order)
    # a gather in sorted order is exactly non-increasing, so with the total
    # checked above, check_sorted_total(values, tol) passes
    object.__setattr__(p, "_checked_eps_sum", tol.eps_sum)
    return p


def _float_array(raw: Sequence[float] | Iterable[float]) -> np.ndarray:
    """raw as a float array; float arrays are read in place, other arrays,
    lists and tuples converted. ValidationError for entries that are not
    reals or overflow a float: a complex entry, imaginary part zero or not,
    is refused before numpy would drop that part with a ComplexWarning."""
    try:
        if not isinstance(raw, np.ndarray):
            raw = np.asarray(raw if isinstance(raw, (list, tuple)) else list(raw))
        if raw.dtype.kind == "c":
            raise TypeError("complex entries")
        return np.asarray(raw, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"input is not a vector of real numbers: {exc}") from None


def _check_total(values: np.ndarray, tol: Tolerances) -> None:
    if values.size and values[-1] == 0.0:
        # numpy's pairwise sum depends on the length, so trailing zeros are
        # cut: a zero-padded copy then has the same total as its source
        nonzero = values.nonzero()[0]
        values = values[: nonzero[-1] + 1 if nonzero.size else 0]
    total = float(np.add.reduce(values))
    if not abs(total - 1.0) <= tol.eps_sum:  # written so that a NaN total fails
        raise BadTotal(f"total mass {total!r} deviates from 1 beyond eps_sum")


def check_sorted_total(values: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> None:
    """Entry check on a ProbVec's values for algorithms that take it as given.

    The ProbVec constructor checks neither order nor total, so a hand-built
    one may be unsorted or short. Raises ValidationError unless the values
    are non-increasing within eps_zero, and BadTotal unless they sum to 1
    within eps_sum. The sum stops at the last nonzero value, as in
    make_probvec, so a zero-padded copy passes exactly when its source does.
    """
    if np.count_nonzero(values[1:] - values[:-1] > tol.eps_zero):
        raise ValidationError("components must be sorted non-increasingly")
    _check_total(values, tol)


def _check_entry(vectors: Iterable[ProbVec], tol: Tolerances) -> None:
    """check_sorted_total on each vector's values, skipped for one that
    make_probvec checked under an eps_sum no wider than tol's, which passes it."""
    for p in vectors:
        if p._checked_eps_sum > tol.eps_sum:
            check_sorted_total(p.values, tol)


def pad_to(p: ProbVec, n: int) -> ProbVec:
    """Append zeros up to length n; fresh original indices for the padding."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValidationError(f"length {n!r} is not an integer") from None
    if n < p.n:
        raise ShrinkRequested(f"cannot pad length-{p.n} vector down to {n}")
    # _padded of a valid p: its values and perm extended by zeros and fresh indices
    return p if n == p.n else ProbVec._adopt(*_padded(p, n))


def _padded(p: ProbVec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """pad_to(p, n)'s values and read-only perm, without building a ProbVec."""
    if p.n == n:
        return p.values, p.perm
    perm = np.concatenate((p.perm, np.arange(p.n, n)))
    perm.flags.writeable = False
    return np.concatenate((p.values, np.zeros(n - p.n))), perm


def entropy_bits(values: np.ndarray | Sequence[float] | Iterable[float]) -> float:
    """Shannon entropy of a collection of probabilities, in bits.

    Arrays, lists and tuples are read in place; other iterables (generators)
    are collected first. Zero components contribute nothing, and the result
    is never below 0.
    """
    # flat, and copied only to drop values that are not positive: the
    # positive values reach log2 and the sum in the same order either way
    v = _float_array(values).ravel()
    positive = v > 0.0
    if np.count_nonzero(positive) != v.size:
        v = v[positive]
    # the products overwrite the log2 buffer, as numpy's temporary elision
    # did for v * np.log2(v) without promising to: the same floats, summed
    # the same way
    t = np.log2(v)
    np.multiply(v, t, out=t)
    # clamped: a point mass slightly above 1 would read -3e-16, and 1.0 reads -0.0
    return max(0.0, float(-np.add.reduce(t)))


def entropy(p: ProbVec) -> float:
    """Shannon entropy of a distribution, in bits."""
    return entropy_bits(p.values)

