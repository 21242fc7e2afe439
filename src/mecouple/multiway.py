"""Joint distributions of k marginals within ceil(log2 k) bits of minimum entropy.

The marginals sit at the leaves of a balanced binary tree; each internal node
couples its two children pairwise and keeps only the nonzero cells. A node
holds two arrays: its cell values, sorted non-increasingly, and a leaf-major
int32 (leaves x cells) array of the original leaf indices each cell covers,
built from the children's columns by np.take.
Every merge splits the components of the children's meet into at most two
pieces, so each level of the tree costs at most one bit over the meet of all
leaves below it. The merged values are fresh positive pieces, already sorted,
whose marginals and total the pairwise coupling checked, so they go to the
next merge as ProbVec._adopt wrappers, neither copied nor re-validated;
the pairwise entry check still reads their order and total. SparseJoint
keeps the root's values and the real leaves' coordinate rows and reads its
entropy, marginals and dense tensor from them.

When k is not a power of two, the leaf list is padded with point-mass
distributions: coupling with a deterministic marginal changes neither the
entropy nor the other marginals, and the meet with a point mass is the other
argument, so the additive bound survives. A subtree of padding leaves only
is built, not merged: one cell of mass 1.0 at index 0 of each of its leaves.
The padded coordinate rows are dropped from the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import AxisOutOfRange, InternalInvariant, TooFewMarginals
from .pairwise import _Derived, _check_marginals, _scatter, min_entropy_coupling
from .probvec import (
    DEFAULT_TOL,
    ProbVec,
    Tolerances,
    check_sorted_total,
    entropy_bits,
    make_probvec,
    _padded,
)

DENSE_CELL_CAP = 10**6


@dataclass(frozen=True, eq=False)
class SparseJoint:
    """A k-dimensional joint distribution stored as its nonzero cells.

    values holds the cell masses, positive and summing to one; coords is an
    int32 (k x cells) array whose column i is cell i's index in each
    marginal's original (caller) indexing. Columns are distinct, since every
    merge of k_min_entropy_coupling refuses a cell written twice, so the
    constructor checks only the shapes and that each coordinate lies in
    [0, dims[axis]). entries, the cells as (value, index tuple) pairs, is
    built only when read; a value passed in (as dataclasses.replace does) is
    kept as given, unchecked against the arrays.
    """

    values: np.ndarray
    coords: np.ndarray
    dims: tuple[int, ...]
    entries: tuple[tuple[float, tuple[int, ...]], ...] = _Derived(
        lambda j: tuple(zip(j.values.tolist(), map(tuple, j.coords.T.tolist())))
    )

    def __post_init__(self) -> None:
        if self.values.ndim != 1 or self.coords.shape != (self.k, self.values.size):
            raise InternalInvariant("coords must have shape (k, cells)")
        if self.values.size and (
            (self.coords.min(axis=1) < 0).any()
            or (self.coords.max(axis=1) >= self.dims).any()
        ):
            raise InternalInvariant("a coordinate lies outside its axis")

    @property
    def k(self) -> int:
        return len(self.dims)

    def entropy(self) -> float:
        """Joint Shannon entropy in bits."""
        return entropy_bits(self.values)

    def to_dense(self, cap: int = DENSE_CELL_CAP) -> np.ndarray:
        """Materialize the full tensor; refused beyond cap cells."""
        return _scatter(self.dims, tuple(self.coords), self.values, cap)


@dataclass(frozen=True, eq=False)
class MergeNode:
    """One node of the merge tree, as two arrays over its cells.

    values holds the cell masses, sorted non-increasingly. coords is a
    leaf-major int32 array with one row per covered leaf (leaf_lo..leaf_hi)
    and one column per cell: column i gives, in each leaf's original
    indexing, the component whose mass values[i] was drawn from. Each leaf's
    row is contiguous, so the root's per-axis checks read it in one pass.
    """

    values: np.ndarray
    coords: np.ndarray
    leaf_lo: int

    @property
    def leaf_hi(self) -> int:
        return self.leaf_lo + self.coords.shape[0] - 1


def _leaf(values: np.ndarray, perm: np.ndarray, position: int) -> MergeNode:
    kept = values > 0.0
    return MergeNode(
        values=values[kept],
        coords=perm[kept].astype(np.int32).reshape(1, -1),
        leaf_lo=position,
    )


def _merge(left: MergeNode, right: MergeNode, tol: Tolerances) -> MergeNode:
    # node values are fresh positive pieces or np.ones(1), owned by the node
    cm = min_entropy_coupling(
        ProbVec._adopt(left.values, np.arange(left.values.size)),
        ProbVec._adopt(right.values, np.arange(right.values.size)),
        tol,
    )
    # pieces come row-major; a stable sort by -value keeps that order among ties
    order = np.argsort(-cm.vals, kind="stable")
    # take, unlike [:, idx], returns C order, so each leaf's row stays contiguous
    return MergeNode(
        values=cm.vals[order],
        coords=np.vstack((
            left.coords.take(cm.rows[order], axis=1),
            right.coords.take(cm.cols[order], axis=1),
        )),
        leaf_lo=left.leaf_lo,
    )


def _point_mass(leaf_lo: int, leaf_hi: int) -> MergeNode:
    """A node of padding leaves only: the single cell 1.0 at index 0 of each."""
    coords = np.zeros((leaf_hi - leaf_lo + 1, 1), dtype=np.int32)
    return MergeNode(np.ones(1), coords, leaf_lo)


def _merge_tree(ps: Sequence[ProbVec], tol: Tolerances = DEFAULT_TOL) -> Iterator[list[MergeNode]]:
    """The levels of the balanced merge tree, leaves first, root last.

    Levels are yielded one at a time, so a caller that keeps only the
    latest holds at most two levels. The leaf list is padded with point
    masses up to the next power of two; a node whose leaves are all padding
    is built whole, as the merge of two point masses returns it.
    """
    k = len(ps)
    n = max(p.n for p in ps)
    total = 1 << (k - 1).bit_length()
    current = [_leaf(*_padded(p, n), pos) for pos, p in enumerate(ps)]
    current += [_point_mass(pos, pos) for pos in range(k, total)]
    yield current
    while len(current) > 1:
        current = [
            _point_mass(a.leaf_lo, b.leaf_hi) if a.leaf_lo >= k else _merge(a, b, tol)
            for a, b in zip(current[::2], current[1::2])
        ]
        yield current


def k_min_entropy_coupling(
    ps: Sequence[ProbVec],
    tol: Tolerances = DEFAULT_TOL,
) -> SparseJoint:
    """A joint distribution of k >= 2 marginals, close to minimum entropy.

    Reproduces every marginal up to eps_sum and satisfies
    H(meet of all marginals) <= H(result) <= H(meet) + ceil(log2 k) bits.
    The support holds at most 2**ceil(log2 k) * n cells. The result keeps the
    merge tree root's value array and the coordinate rows of the k real
    leaves (copied when padding leaves follow them), read-only; its entries
    tuples are built only if read. As in min_entropy_coupling, each marginal
    is taken as given: values out of non-increasing order raise
    ValidationError, a total off 1 raises BadTotal.
    """
    if len(ps) < 2:
        raise TooFewMarginals(f"need at least 2 marginals, got {len(ps)}")
    for p in ps:
        check_sorted_total(p.values, tol)
    k = len(ps)
    for level in _merge_tree(ps, tol):
        pass  # each finished level is dropped once the next one is built
    (root,) = level
    values, coords = root.values, root.coords
    if coords.shape[0] > k:
        # a copy, not a view: a view would keep the padding leaves' rows alive
        coords = coords[:k].copy()
    _check_marginals(coords, values, [p.in_original_order() for p in ps], tol)
    values.flags.writeable = False
    coords.flags.writeable = False
    return SparseJoint(values=values, coords=coords, dims=tuple(p.n for p in ps))


def marginalize(j: int, joint: SparseJoint, tol: Tolerances = DEFAULT_TOL) -> ProbVec:
    """Sum the cells over all axes except j and sort the result."""
    if not 0 <= j < joint.k:
        raise AxisOutOfRange(f"axis {j} out of range for k = {joint.k}")
    summed = np.bincount(joint.coords[j], weights=joint.values, minlength=joint.dims[j])
    return make_probvec(summed, tol)
