"""Joint distributions of k marginals within ceil(log2 k) bits of minimum entropy.

The marginals sit at the leaves of a balanced binary tree; each internal node
couples its two children pairwise and keeps only the nonzero cells, each cell
remembering the tuple of original leaf indices it covers. Every merge splits
the components of the children's meet into at most two pieces, so each level
of the tree costs at most one bit over the meet of all leaves below it.

When k is not a power of two, the leaf list is padded with point-mass
distributions: coupling with a deterministic marginal changes neither the
entropy nor the other marginals, and the meet with a point mass is the other
argument, so the additive bound survives. The padded coordinates are dropped
from the output index tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AxisOutOfRange, InstanceTooLarge, InternalInvariant, TooFewMarginals
from .pairwise import min_entropy_coupling
from .probvec import DEFAULT_TOL, ProbVec, Tolerances, entropy_bits, make_probvec, pad_to

DENSE_CELL_CAP = 10**6


@dataclass(frozen=True)
class SparseJoint:
    """A k-dimensional joint distribution stored as (value, index tuple) pairs.

    Index tuples use each marginal's original (caller) indexing and are
    pairwise distinct; values are strictly positive and sum to one.
    """

    entries: tuple[tuple[float, tuple[int, ...]], ...]
    k: int
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k != len(self.dims):
            raise InternalInvariant("dims length must equal k")
        tuples = [c for _, c in self.entries]
        if any(len(c) != self.k for c in tuples):
            raise InternalInvariant("every index tuple must have k coordinates")
        if len(set(tuples)) != len(tuples):
            raise InternalInvariant("index tuples must be distinct")

    def entropy(self) -> float:
        """Joint Shannon entropy in bits."""
        return entropy_bits(v for v, _ in self.entries)

    def to_dense(self, cap: int = DENSE_CELL_CAP) -> np.ndarray:
        """Materialize the full tensor; refused beyond cap cells."""
        cells = math.prod(self.dims)
        if cells > cap:
            raise InstanceTooLarge(f"dense tensor needs {cells} cells, cap is {cap}")
        out = np.zeros(self.dims)
        for v, c in self.entries:
            out[c] = v
        return out


@dataclass(frozen=True)
class MergeNode:
    """One node of the merge tree: sorted values plus covered leaf coordinates."""

    values: tuple[float, ...]
    coords: tuple[tuple[int, ...], ...]
    level: int
    leaf_lo: int
    leaf_hi: int


def _leaf(p: ProbVec, position: int) -> MergeNode:
    kept = [(float(v), (int(orig),)) for v, orig in zip(p.values, p.perm) if v > 0.0]
    return MergeNode(
        values=tuple(v for v, _ in kept),
        coords=tuple(c for _, c in kept),
        level=0,
        leaf_lo=position,
        leaf_hi=position,
    )


def _merge(left: MergeNode, right: MergeNode, level: int, tol: Tolerances) -> MergeNode:
    pl = make_probvec(left.values, tol)
    pr = make_probvec(right.values, tol)
    cm = min_entropy_coupling(pl, pr, tol)
    # pieces come row-major; a stable sort by -value keeps that order among ties
    rows, cols, vals = cm.rows.tolist(), cm.cols.tolist(), cm.vals.tolist()
    entries = [
        (vals[i], left.coords[rows[i]] + right.coords[cols[i]])
        for i in np.argsort(-cm.vals, kind="stable").tolist()
    ]
    return MergeNode(
        values=tuple(v for v, _ in entries),
        coords=tuple(c for _, c in entries),
        level=level,
        leaf_lo=left.leaf_lo,
        leaf_hi=right.leaf_hi,
    )


def _merge_tree(ps: Sequence[ProbVec], tol: Tolerances = DEFAULT_TOL) -> list[list[MergeNode]]:
    """All levels of the balanced merge tree, leaves first, root last.

    The leaf list is padded with point masses up to the next power of two.
    """
    k = len(ps)
    n = max(p.n for p in ps)
    total = 1 << (k - 1).bit_length()
    leaves = [_leaf(pad_to(p, n), pos) for pos, p in enumerate(ps)]
    for pos in range(k, total):
        leaves.append(MergeNode((1.0,), ((0,),), 0, pos, pos))
    levels = [leaves]
    current = leaves
    level = 0
    while len(current) > 1:
        level += 1
        current = [
            _merge(a, b, level, tol) for a, b in zip(current[::2], current[1::2])
        ]
        levels.append(current)
    return levels


def _axis_sums(joint: SparseJoint) -> list[np.ndarray]:
    """Every axis marginal, in entry order, from one (entries x k) index array."""
    vals = np.array([v for v, _ in joint.entries])
    coords = np.array([c for _, c in joint.entries], dtype=np.int32)
    coords = coords.reshape(vals.size, joint.k)
    return [
        np.bincount(coords[:, axis], weights=vals, minlength=dim)
        for axis, dim in enumerate(joint.dims)
    ]


def k_min_entropy_coupling(
    ps: Sequence[ProbVec],
    tol: Tolerances = DEFAULT_TOL,
) -> SparseJoint:
    """A joint distribution of k >= 2 marginals, close to minimum entropy.

    Reproduces every marginal up to eps_sum and satisfies
    H(meet of all marginals) <= H(result) <= H(meet) + ceil(log2 k) bits.
    The support holds at most 2**ceil(log2 k) * n entries.
    """
    if len(ps) < 2:
        raise TooFewMarginals(f"need at least 2 marginals, got {len(ps)}")
    k = len(ps)
    dims = tuple(p.n for p in ps)
    root = _merge_tree(ps, tol)[-1][0]
    joint = SparseJoint(
        entries=tuple((v, c[:k]) for v, c in zip(root.values, root.coords)),
        k=k,
        dims=dims,
    )
    for axis, (got, p) in enumerate(zip(_axis_sums(joint), ps)):
        dev = float(np.abs(got - p.in_original_order()).max())
        if dev > tol.eps_sum:
            raise InternalInvariant(f"axis {axis} marginal off by {dev!r}")
    total = float(np.sum(root.values))
    if abs(total - 1.0) > tol.eps_sum:
        raise InternalInvariant(f"joint mass {total!r} deviates from 1 beyond eps_sum")
    return joint


def marginalize(j: int, joint: SparseJoint, tol: Tolerances = DEFAULT_TOL) -> ProbVec:
    """Sum the entries over all axes except j and sort the result."""
    if not 0 <= j < joint.k:
        raise AxisOutOfRange(f"axis {j} out of range for k = {joint.k}")
    return make_probvec(_axis_sums(joint)[j], tol)
