"""Joint distributions of k marginals within ceil(log2 k) bits of minimum entropy.

The marginals sit at the leaves of a balanced binary tree; each internal node
couples its two children pairwise and keeps only the nonzero cells. A node
holds two arrays: its cell values, sorted non-increasingly, and a leaf-major
int32 (leaves x cells) array of the original leaf indices each cell covers,
built from the children's columns by np.take. Node i of level l covers
leaves i * 2**l up to (i + 1) * 2**l - 1, or up to the last leaf.
Every merge splits the components of the children's meet into at most two
pieces, so each level of the tree costs at most one bit over the meet of all
leaves below it. The merged values are fresh positive pieces, already sorted,
whose marginals and total the pairwise coupling checked, so they go to the
next merge as ProbVec._adopt wrappers, neither copied nor re-validated;
the pairwise entry check still reads their order and total. SparseJoint
keeps the root's arrays and reads its entropy, marginals and dense tensor
from them.

When k is not a power of two, the paper pads the leaves with point masses,
which change neither the entropy, the other marginals nor the meet. Only the
k real leaves are built: a padding-only subtree is a point mass, and a real
node meets one exactly when its level has odd length, so that level's last
node is merged with the point mass [1.0], a node with no coordinate rows.
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
    leaf-major int32 array with one row per real leaf the node covers and
    one column per cell: column i gives, in each leaf's original indexing,
    the component whose mass values[i] was drawn from. Each leaf's row is
    contiguous, so the root's per-axis checks read it in one pass.
    """

    values: np.ndarray
    coords: np.ndarray


def _leaf(p: ProbVec) -> MergeNode:
    kept = p.values > 0.0
    return MergeNode(
        values=p.values[kept],
        coords=p.perm[kept].astype(np.int32).reshape(1, -1),
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
    )


def _merge_tree(ps: Sequence[ProbVec], tol: Tolerances = DEFAULT_TOL) -> Iterator[list[MergeNode]]:
    """The levels of the merge tree over the k real leaves, leaves first, root last.

    Levels are yielded one at a time, so a caller that keeps only the
    latest holds at most two levels. A level of odd length merges its last
    node with the point mass [1.0], which has no coordinate rows; the tree
    has ceil(log2 k) levels above the leaves.
    """
    current = [_leaf(p) for p in ps]
    yield current
    while len(current) > 1:
        if len(current) % 2:
            current = [*current, MergeNode(np.ones(1), np.empty((0, 1), dtype=np.int32))]
        current = [_merge(a, b, tol) for a, b in zip(current[::2], current[1::2])]
        yield current


def k_min_entropy_coupling(
    ps: Sequence[ProbVec],
    tol: Tolerances = DEFAULT_TOL,
) -> SparseJoint:
    """A joint distribution of k >= 2 marginals, close to minimum entropy.

    Reproduces every marginal up to eps_sum and satisfies
    H(meet of all marginals) <= H(result) <= H(meet) + ceil(log2 k) bits.
    The support holds at most 2**ceil(log2 k) * n cells. The result keeps the
    merge tree root's value and coordinate arrays, read-only; its entries
    tuples are built only if read. As in min_entropy_coupling, each marginal
    is taken as given: values out of non-increasing order raise
    ValidationError, a total off 1 raises BadTotal.
    """
    if len(ps) < 2:
        raise TooFewMarginals(f"need at least 2 marginals, got {len(ps)}")
    for p in ps:
        check_sorted_total(p.values, tol)
    for level in _merge_tree(ps, tol):
        pass  # each finished level is dropped once the next one is built
    (root,) = level
    values, coords = root.values, root.coords
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
