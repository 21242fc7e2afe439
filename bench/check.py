"""Independent output checks, computed with numpy from the raw inputs.

Nothing here calls into mecouple: the meet, the entropies and the marginals
are recomputed from the arrays the workload generated, so a wrong result
cannot vouch for itself. The CLI checks compare against library results the
caller passes in.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9          # marginals, total mass, entropy agreement
EPS_ZERO = 1e-12    # the package's documented threshold for counting nnz


class CheckFailed(Exception):
    pass


def expect(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def sig(x: float) -> float:
    """12 significant digits, the precision the CLI prints."""
    return float(f"{float(x):.12g}")


def close(a: float, b: float, what: str) -> None:
    expect(abs(float(a) - float(b)) <= TOL, f"{what}: {a!r} vs {b!r}")


def entropy(values) -> float:
    v = np.asarray(values, dtype=float).ravel()
    v = v[v > 0.0]
    return float(-(v * np.log2(v)).sum())


def padded(raw, n: int) -> np.ndarray:
    out = np.zeros(n)
    out[: len(raw)] = raw
    return out


def meet(*raws) -> np.ndarray:
    """Meet of several distributions: differences of the pointwise minimum of
    their sorted prefix-sum curves (the minimum of concave curves is concave,
    so no re-sort is needed)."""
    n = max(len(r) for r in raws)
    curves = [np.cumsum(np.sort(padded(r, n))[::-1]) for r in raws]
    return np.diff(np.minimum.reduce(curves), prepend=0.0)


def probvec(pv, raw) -> None:
    """make_probvec output: raw values sorted non-increasingly, with the
    permutation back to the caller's indices."""
    vals = np.asarray(pv.values, dtype=float)
    perm = np.asarray(pv.perm, dtype=int)
    expect(len(vals) == len(raw), "probvec length")
    expect(np.array_equal(np.sort(perm), np.arange(len(raw))), "probvec perm is not a bijection")
    expect(np.array_equal(vals, np.asarray(raw)[perm]), "probvec values do not follow perm")
    expect(bool(np.all(np.diff(vals) <= 0.0)), "probvec values not non-increasing")


def marginals(matrix: np.ndarray, p, q) -> None:
    """Per-index row and column sums and total mass, within TOL."""
    expect(bool(np.all(matrix >= 0.0)), "negative cell")
    rows, cols = matrix.shape
    expect(rows >= len(p) and cols >= len(q), f"shape {matrix.shape} too small")
    row_dev = np.abs(matrix.sum(axis=1) - padded(p, rows)).max()
    col_dev = np.abs(matrix.sum(axis=0) - padded(q, cols)).max()
    expect(row_dev <= TOL, f"row marginal off by {row_dev!r}")
    expect(col_dev <= TOL, f"column marginal off by {col_dev!r}")
    total = float(matrix.sum())
    expect(abs(total - 1.0) <= TOL, f"total mass {total!r}")


def original_order(cm) -> np.ndarray:
    """A CouplingMatrix's sorted-order cells moved to the callers' indices."""
    out = np.zeros(cm.matrix.shape)
    out[np.ix_(np.asarray(cm.row_perm), np.asarray(cm.col_perm))] = cm.matrix
    return out


def coupling(cm, p, q) -> tuple[float, float]:
    """Marginals, the one-bit sandwich and the 2n support bound of a pairwise
    coupling; returns (H(M), H(meet)) as computed here."""
    n = max(len(p), len(q))
    expect(cm.matrix.shape == (n, n), f"matrix shape {cm.matrix.shape}, want {(n, n)}")
    mat = original_order(cm)
    marginals(mat, p, q)
    h_m = entropy(mat)
    h_z = entropy(meet(p, q))
    expect(h_z - TOL <= h_m <= h_z + 1.0 + TOL, f"sandwich: H(meet)={h_z!r} H(M)={h_m!r}")
    support = int(np.count_nonzero(mat > 0.0))
    expect(support <= 2 * n, f"support {support} exceeds 2n = {2 * n}")
    expect(cm.nnz == int(np.count_nonzero(mat > EPS_ZERO)), f"nnz {cm.nnz} disagrees with the cells")
    return h_m, h_z


def bounds_report(rep, p, q, h_z: float) -> None:
    h_p, h_q = entropy(p), entropy(q)
    close(rep.h_p, h_p, "bounds.h_p")
    close(rep.h_q, h_q, "bounds.h_q")
    close(rep.h_glb, h_z, "bounds.h_glb")
    close(rep.mi_upper_improved, h_p + h_q - h_z, "bounds.mi_upper_improved")
    close(rep.mi_upper_classic, min(h_p, h_q), "bounds.mi_upper_classic")
    close(rep.joint_lower_classic, max(h_p, h_q), "bounds.joint_lower_classic")


def joint(j, raws) -> tuple[float, float]:
    """Marginals, the ceil(log2 k)-bit sandwich, support and distinctness of a
    k-way SparseJoint; returns (H(J), H(meet))."""
    k = len(raws)
    dims = tuple(len(r) for r in raws)
    expect(j.k == k and tuple(j.dims) == dims, f"k={j.k} dims={j.dims}")
    vals = np.array([v for v, _ in j.entries], dtype=float)
    coords = np.array([c for _, c in j.entries], dtype=int).reshape(len(vals), k)
    expect(bool(np.all(vals > 0.0)), "non-positive entry")
    expect(bool(np.all((coords >= 0) & (coords < np.array(dims)))), "index out of range")
    expect(len(np.unique(coords, axis=0)) == len(vals), "repeated index tuple")
    expect(abs(float(vals.sum()) - 1.0) <= TOL, f"total mass {vals.sum()!r}")
    for axis, raw in enumerate(raws):
        got = np.bincount(coords[:, axis], weights=vals, minlength=dims[axis])
        dev = np.abs(got - raw).max()
        expect(dev <= TOL, f"axis {axis} marginal off by {dev!r}")
    levels = (k - 1).bit_length()
    h_j = entropy(vals)
    h_z = entropy(meet(*raws))
    expect(h_z - TOL <= h_j <= h_z + levels + TOL, f"sandwich: H(meet)={h_z!r} H(J)={h_j!r}")
    cap = (1 << levels) * max(dims)
    expect(len(vals) <= cap, f"support {len(vals)} exceeds {cap}")
    return h_j, h_z
