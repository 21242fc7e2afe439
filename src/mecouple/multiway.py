"""Joint distributions of k marginals within ceil(log2 k) bits of minimum entropy.

The marginals sit at the leaves of a balanced binary tree; each internal node
couples its two children pairwise and keeps only the nonzero cells. A node
holds its cell values, sorted non-increasingly, and for each child the
child's cell that each of its cells was drawn from; a leaf holds the original
index of each positive component. Node i of level l covers leaves i * 2**l
up to (i + 1) * 2**l - 1, or up to the last leaf.
Every merge splits the components of the children's meet into at most two
pieces, so each level of the tree costs at most one bit over the meet of all
leaves below it. Merged values are fresh positive pieces, sorted and checked
by the pairwise coupling; the next merge adopts them uncopied and re-checks
them, except a leaf that keeps its marginal's make_probvec record (its
values are the checked ones less trailing zeros). These indices compose down
the tree: the root's leaf-major int32 (k x cells) coords are written once, by
one walk; SparseJoint keeps them and the root's values. The root is checked
top-down, one bincount per node down to each leaf's marginal.

When k is not a power of two, the paper pads the leaves with point masses,
which change neither the entropy, the other marginals nor the meet. Only the
k real leaves are built: a padding-only subtree is a point mass, and a real
node meets one exactly when its level has odd length, so that level's last
node is merged with the point mass [1.0], a node with no leaves below it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import AxisOutOfRange, InternalInvariant, TooFewMarginals
from .pairwise import _Derived, _check_mass, _scatter, min_entropy_coupling
from .probvec import (
    DEFAULT_TOL,
    STABLE_MAX,
    ProbVec,
    Tolerances,
    _check_entry,
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
    constructor checks only the shapes, that coords holds integers and that
    each coordinate lies in [0, dims[axis]). entries, the cells as (value,
    index tuple) pairs, is built only when read; a value passed in (as
    dataclasses.replace does) is kept as given, unchecked against the arrays.
    """

    values: np.ndarray
    coords: np.ndarray
    dims: tuple[int, ...]
    entries: tuple[tuple[float, tuple[int, ...]], ...] = _Derived(
        lambda j: tuple(zip(j.values.tolist(), map(tuple, j.coords.T.tolist())))
    )

    def __repr__(self) -> str:
        return f"SparseJoint(k={self.k}, cells={self.values.size})"

    def __post_init__(self) -> None:
        if self.values.ndim != 1 or self.coords.shape != (self.k, self.values.size):
            raise InternalInvariant("coords must have shape (k, cells)")
        if self.coords.dtype.kind not in "iu":
            raise InternalInvariant("coords must hold integers")
        if self.values.size and (
            np.count_nonzero(np.minimum.reduce(self.coords, axis=1) < 0)
            or np.count_nonzero(np.maximum.reduce(self.coords, axis=1) >= self.dims)
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
    """One node of the merge tree: its cell values and where each came from.

    values holds the cell masses, sorted non-increasingly. parts holds one
    (pick, child) pair per child: cell i was drawn from cell pick[i] of
    child. A leaf's one part picks each positive component's original index,
    with child None; the point mass [1.0] has no parts. checked_eps_sum: a
    leaf's marginal's make_probvec record (see probvec._check_entry).
    """

    values: np.ndarray
    parts: tuple[tuple[np.ndarray, MergeNode | None], ...]
    checked_eps_sum: float = float("inf")


def _leaf(p: ProbVec) -> MergeNode:
    kept = p.values > 0.0
    return MergeNode(p.values[kept], ((p.perm[kept], None),), p._checked_eps_sum)


def _merge(left: MergeNode, right: MergeNode, tol: Tolerances) -> MergeNode:
    # node values are fresh positive pieces or np.ones(1), owned by the node
    sides = [ProbVec._adopt(node.values, np.arange(node.values.size)) for node in (left, right)]
    for side, node in zip(sides, (left, right)):
        object.__setattr__(side, "_checked_eps_sum", node.checked_eps_sum)
    cm = min_entropy_coupling(*sides, tol)
    # pieces come row-major and keep that order among ties: above STABLE_MAX the
    # default sort, unique on distinct values, is redone stably on an exact tie
    stable = cm.vals.size <= STABLE_MAX
    if not stable:
        order = (-cm.vals).argsort()
        values = cm.vals[order]
        step = values[1:] != values[:-1]
        stable = np.count_nonzero(step) != step.size
    if stable:
        order = (-cm.vals).argsort(kind="stable")
        values = cm.vals[order]
    return MergeNode(values, ((cm.rows[order], left), (cm.cols[order], right)))


def _gather(node: MergeNode, cells: np.ndarray) -> Iterator[np.ndarray]:
    """Each real leaf's original indices of the given cells of node, in leaf order."""
    for pick, child in node.parts:
        if child is None:
            yield pick.take(cells)
        else:
            yield from _gather(child, pick.take(cells))


def _pushed(node: MergeNode, mass: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(original index, mass) of each real leaf's cells, in leaf order, when node's hold mass."""
    for pick, child in node.parts:
        if child is None:
            yield pick, mass
        else:
            yield from _pushed(child, np.bincount(pick, weights=mass, minlength=child.values.size))


def _merge_tree(ps: Sequence[ProbVec], tol: Tolerances = DEFAULT_TOL) -> Iterator[list[MergeNode]]:
    """The levels of the merge tree over the k real leaves, leaves first, root last.

    Levels are yielded as they are built; every node keeps its children, so
    the root holds the whole tree. A level of odd length merges its last node
    with the point mass [1.0]; the tree has ceil(log2 k) levels above the leaves.
    """
    current = [_leaf(p) for p in ps]
    yield current
    while len(current) > 1:
        if len(current) % 2:
            current = [*current, MergeNode(np.ones(1), ())]
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
    merge tree root's values and the coordinates gathered for its cells,
    read-only; its entries tuples are built only if read. As in
    min_entropy_coupling, each marginal is taken as given: values out of
    non-increasing order raise ValidationError, a total off 1 raises BadTotal,
    and the check is skipped for a marginal that make_probvec validated
    under an eps_sum no wider than tol's.
    """
    if len(ps) < 2:
        raise TooFewMarginals(f"need at least 2 marginals, got {len(ps)}")
    _check_entry(ps, tol)
    *_, (root,) = _merge_tree(ps, tol)
    values = root.values
    coords = np.empty((len(ps), values.size), dtype=np.int32)
    for row, line in zip(coords, _gather(root, np.arange(values.size)), strict=True):
        row[...] = line
    # top-down: each marginal, whole, against its leaf's share of the root's values
    for axis, (p, (pick, mass)) in enumerate(zip(ps, _pushed(root, values), strict=True)):
        got = np.bincount(pick, weights=mass, minlength=p.n)
        dev = float(np.maximum.reduce(np.abs(got - p.in_original_order())))
        if not dev <= tol.eps_sum:
            raise InternalInvariant(f"axis {axis} marginal off by {dev!r}")
    _check_mass(values, tol)
    values.flags.writeable = False
    coords.flags.writeable = False
    return SparseJoint(values=values, coords=coords, dims=tuple(p.n for p in ps))


def marginalize(j: int, joint: SparseJoint, tol: Tolerances = DEFAULT_TOL) -> ProbVec:
    """Sum the cells over all axes except j and sort the result."""
    try:
        j = operator.index(j)
    except TypeError:
        raise AxisOutOfRange(f"axis {j!r} is not an integer") from None
    if not 0 <= j < joint.k:
        raise AxisOutOfRange(f"axis {j} out of range for k = {joint.k}")
    summed = np.bincount(joint.coords[j], weights=joint.values, minlength=joint.dims[j])
    return make_probvec(summed, tol)
