"""Shared generators and independent oracles used across the test modules.

Also home to the operators that only state the paper's proofs (the
majorization order, halving, aggregation, vertex enumeration); the runtime
package does not need them.
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
from collections import deque
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from mecouple import _native
from mecouple import (
    InstanceTooLarge,
    ProbVec,
    ValidationError,
    VertexCoupling,
    inversion_points,
    make_probvec,
    min_entropy_coupling,
    pad_to,
)
from mecouple.errors import InternalInvariant
from mecouple.lattice import meet_values
from mecouple.oracle import _KEY_DIGITS, DEFAULT_SIZE_CAP
from mecouple.pairwise import _check_mass
from mecouple.probvec import DEFAULT_TOL, Tolerances, check_sorted_total


TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def unchecked_probvec(values, perm) -> ProbVec:
    """A ProbVec built around the constructor's checks, for testing the
    checks that sit behind it."""
    return ProbVec._adopt(np.array(values, dtype=float), np.array(perm, dtype=np.intp))


def run_python_bounded(script: str, timeout: float = 30.0, mem_bytes: int = 2 << 30) -> str:
    """Run script in a fresh interpreter that imports mecouple from src/
    and this directory's helpers (util).

    For code that hangs when it regresses: the child is killed after
    timeout seconds, and its address space is capped at mem_bytes so that a
    runaway loop fails with MemoryError instead of exhausting memory.
    Returns stdout, stripped; a non-zero exit fails with its stderr.
    """

    def cap_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (mem_bytes, mem_bytes))

    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(TESTS))),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=cap_memory,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def spy_on_zeros(monkeypatch) -> list:
    """Record the shape of every np.zeros call until monkeypatch undoes it."""
    allocated = []
    real_zeros = np.zeros

    def zeros(shape, *args, **kwargs):
        allocated.append(shape)
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", zeros)
    return allocated


def random_probvec(rng: np.random.Generator, n: int) -> ProbVec:
    return make_probvec(rng.dirichlet(np.ones(n)))


def comparable_pair(rng: np.random.Generator, n: int, rounds: int = 3):
    """A pair (lower, upper) with lower majorized by upper.

    lower is an average of permuted copies of upper, i.e. a doubly-stochastic
    image, which can only move it down the majorization order.
    """
    upper = np.sort(rng.dirichlet(np.ones(n)))[::-1]
    avg = np.zeros(n)
    for _ in range(rounds):
        avg += upper[rng.permutation(n)]
    avg /= rounds
    return make_probvec(avg), make_probvec(upper)


def suffix_diffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """d[i-1] = sum(a[i-1:]) - sum(b[i-1:]) for 1-based positions i."""
    return np.cumsum((a - b)[::-1])[::-1]


def brute_inversion_sequences(a: np.ndarray, b: np.ndarray, eps: float = 1e-12):
    """All minimal-length alternating dominance partitions, by exhaustive scan.

    Enumerates every decreasing index sequence n+1 > i_1 > ... > i_k = 1 and
    keeps those whose odd segments satisfy suffix-sum dominance of a over b
    (and even segments the reverse), returning the ones with the fewest
    segments. Independent of the production single-scan computation.
    """
    n = len(a)
    d = suffix_diffs(a, b)

    def segment_ok(lo: int, hi: int, odd: bool) -> bool:
        if odd:
            return all(d[i - 1] >= -eps for i in range(lo, hi + 1))
        return all(d[i - 1] <= eps for i in range(lo, hi + 1))

    for interior_count in range(0, n):
        valid = []
        for combo in combinations(range(2, n + 1), interior_count):
            idx = (n + 1,) + tuple(sorted(combo, reverse=True)) + (1,)
            if all(
                segment_ok(idx[s], idx[s - 1] - 1, s % 2 == 1)
                for s in range(1, len(idx))
            ):
                valid.append(idx)
        if valid:
            return valid
    raise AssertionError("no valid dominance partition found")


def flatten_sorted(matrix: np.ndarray) -> ProbVec:
    """All cells of a joint matrix as one sorted distribution."""
    return make_probvec(matrix.ravel())


def oriented(p: ProbVec, q: ProbVec):
    """(a, b, indices) for an equal-length pair, oriented as inversion_points
    orients it before the greedy kernel runs."""
    ip = inversion_points(p, q)
    a, b = p.values, q.values
    return (b, a, ip.indices) if ip.swapped else (a, b, ip.indices)


def kernel_pieces(a, b, tol: Tolerances = DEFAULT_TOL):
    """The pieces of the caller's pair (a, b), as min_entropy_coupling gets them: one
    compiled couple(), which orients and cuts the pair, then runs the meet and the greedy
    fill, or, where no component differs beyond eps_zero, writes the diagonal."""
    return _native.couple(a, b, tol)


def owns_exactly(x: np.ndarray, count: int) -> bool:
    """x owns its memory, no view of a larger buffer, and holds count cells."""
    return x.base is None and x.flags.owndata and x.size == count


def majorizes(a: ProbVec, b: ProbVec, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff a majorizes b: every prefix sum of a dominates b's.

    Unequal lengths are compared after zero-padding the shorter vector.
    Comparisons carry eps_zero slack so analytically equal vectors never
    flip on rounding.
    """
    n = max(a.n, b.n)
    pa = np.cumsum(pad_to(a, n).values)
    pb = np.cumsum(pad_to(b, n).values)
    return bool(np.all(pa >= pb - tol.eps_zero))


def half(p: ProbVec) -> ProbVec:
    """Split every component into two equal halves (length doubles).

    Adds exactly one bit of entropy and preserves sortedness.
    """
    return ProbVec(np.repeat(p.values, 2) / 2.0, np.arange(2 * p.n))


def half_pow(p: ProbVec, i: int) -> ProbVec:
    """Apply half() i times; i = 0 returns p unchanged."""
    if i < 0:
        raise ValueError(f"exponent must be non-negative, got {i}")
    out = p
    for _ in range(i):
        out = half(out)
    return out


class BadPartition(ValidationError):
    """Aggregation partition has an overlap, a gap, or an out-of-range index."""


def aggregate(
    p: ProbVec,
    partition: Sequence[Iterable[int]],
    tol: Tolerances = DEFAULT_TOL,
) -> ProbVec:
    """Sum components over a partition of the index range and re-sort.

    The partition must consist of disjoint, nonempty blocks of sorted
    positions 0..n-1 that together cover all of them. The result always
    majorizes p.
    """
    blocks = [tuple(block) for block in partition]
    seen: set[int] = set()
    for block in blocks:
        if not block:
            raise BadPartition("empty block")
        for i in block:
            if not isinstance(i, (int, np.integer)):
                raise BadPartition(f"non-integer index {i!r}")
            if not 0 <= i < p.n:
                raise BadPartition(f"index {i} out of range for length {p.n}")
            if i in seen:
                raise BadPartition(f"index {i} appears in more than one block")
            seen.add(int(i))
    if len(seen) != p.n:
        missing = sorted(set(range(p.n)) - seen)
        raise BadPartition(f"indices not covered: {missing}")
    sums = [float(sum(p.values[i] for i in block)) for block in blocks]
    return make_probvec(sums, tol)


def enumerate_vertices(
    p: ProbVec,
    q: ProbVec,
    tol: Tolerances = DEFAULT_TOL,
    cap: int = DEFAULT_SIZE_CAP,
) -> tuple[VertexCoupling, ...]:
    """Every matrix reachable by greedy fills; a superset of the vertices.

    The same fills exact_min_entropy searches (see mecouple.oracle), here
    enumerated whole. Matrices are deduplicated after rounding to 12
    decimal digits, since many cell orders regenerate the same fill.
    """
    if p.n + q.n > cap:
        raise InstanceTooLarge(f"instance size {p.n}+{q.n} exceeds the enumeration cap {cap}")
    eps = tol.eps_zero
    n, m = p.n, q.n
    seen: set[frozenset] = set()
    found: dict[tuple, np.ndarray] = {}

    def rec(cells: tuple, key: frozenset, res_p: tuple, res_q: tuple) -> None:
        rows = [i for i in range(n) if res_p[i] > eps]
        cols = [j for j in range(m) if res_q[j] > eps]
        if not rows or not cols:
            final = tuple(sorted(key))
            if final not in found:
                mat = np.zeros((n, m))
                for i, j, v in cells:
                    mat[i, j] = v
                found[final] = mat
            return
        for i in rows:
            for j in cols:
                v = min(res_p[i], res_q[j])
                nxt_key = key | {(i, j, round(v, _KEY_DIGITS))}
                if nxt_key in seen:
                    continue
                seen.add(nxt_key)
                rp = list(res_p)
                rq = list(res_q)
                rp[i] -= v
                rq[j] -= v
                rec(cells + ((i, j, v),), nxt_key, tuple(rp), tuple(rq))

    rec((), frozenset(), tuple(p.values.tolist()), tuple(q.values.tolist()))
    out = []
    for key in sorted(found):
        mat = found[key]
        mat.flags.writeable = False
        out.append(VertexCoupling(mat, int((mat > eps).sum())))
    return tuple(out)


def reference_exact_min_entropy(
    p: ProbVec,
    q: ProbVec,
    tol: Tolerances = DEFAULT_TOL,
    cap: int = DEFAULT_SIZE_CAP,
) -> tuple[float, VertexCoupling]:
    """exact_min_entropy as first written: every state re-keyed from scratch.

    Reference for mecouple.oracle, whose optimum and matrix must be
    identical: the same DFS order over (i, j), the same strict comparison
    and the same float arithmetic, with keys built as a pair of rounded
    residual tuples (rows, columns) on every call.
    """
    if p.n + q.n > cap:
        raise InstanceTooLarge(f"instance size {p.n}+{q.n} exceeds the enumeration cap {cap}")
    eps = tol.eps_zero
    n, m = p.n, q.n
    memo: dict[tuple, tuple[float, tuple[int, int] | None]] = {}

    def key_of(res_p, res_q):
        return (
            tuple(round(v, _KEY_DIGITS) for v in res_p),
            tuple(round(v, _KEY_DIGITS) for v in res_q),
        )

    def solve(res_p: tuple, res_q: tuple) -> float:
        rows = [i for i in range(n) if res_p[i] > eps]
        cols = [j for j in range(m) if res_q[j] > eps]
        if not rows or not cols:
            return 0.0
        key = key_of(res_p, res_q)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        best = math.inf
        choice: tuple[int, int] | None = None
        for i in rows:
            for j in cols:
                v = min(res_p[i], res_q[j])
                rp = list(res_p)
                rq = list(res_q)
                rp[i] -= v
                rq[j] -= v
                h = -v * math.log2(v) + solve(tuple(rp), tuple(rq))
                if h < best:
                    best = h
                    choice = (i, j)
        memo[key] = (best, choice)
        return best

    # the search runs on Python floats, converted once
    res_p, res_q = p.values.tolist(), q.values.tolist()
    opt = solve(tuple(res_p), tuple(res_q))

    # replay the stored choices to materialize one optimal fill
    mat = np.zeros((n, m))
    while any(v > eps for v in res_p) and any(v > eps for v in res_q):
        _, choice = memo[key_of(res_p, res_q)]
        if choice is None:
            break
        i, j = choice
        v = min(res_p[i], res_q[j])
        mat[i, j] = v
        res_p[i] -= v
        res_q[j] -= v
    mat.flags.writeable = False
    return opt, VertexCoupling(mat, int((mat > eps).sum()))


def reference_entropy_bits(values) -> float:
    """probvec.entropy_bits as first written, as one expression.

    Reference for entropy_bits, which must return the same float.
    """
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    v = np.asarray(values, dtype=float)
    v = v[v > 0.0]
    return max(0.0, float(-(v * np.log2(v)).sum()))


def reference_meet_values(a: np.ndarray, b: np.ndarray, eps_zero: float) -> np.ndarray:
    """lattice.meet_values as first written: np.diff with a prepended zero and
    an unconditional clamp. Reference for the production meet, whose floats
    must be the same."""
    z = np.diff(np.minimum(np.cumsum(a), np.cumsum(b)), prepend=0.0)
    tiny = (z < 0.0) & (z >= -eps_zero)
    z[tiny] = 0.0
    if np.any(z < 0.0):
        raise InternalInvariant("meet produced a component below -eps_zero")
    return z


def reference_glb(p: ProbVec, q: ProbVec, tol: Tolerances = DEFAULT_TOL):
    """lattice.glb's meet values as first written: both inputs padded
    through pad_to, then reference_meet_values."""
    check_sorted_total(p.values, tol)
    check_sorted_total(q.values, tol)
    n = max(p.n, q.n)
    a = pad_to(p, n).values
    b = pad_to(q, n).values
    return reference_meet_values(a, b, tol.eps_zero)


def _suffix_table(arr: np.ndarray) -> np.ndarray:
    """table[i] = sum(arr[i-1:]) for 1-based i; table[n+1] = 0."""
    n = len(arr)
    out = np.zeros(n + 2)
    out[1 : n + 1] = np.cumsum(arr[::-1])[::-1]
    return out


def check_meet_segment_identities(a, b, idx, z, atol=1e-12):
    """Segmentwise identities tying the meet z to the oriented pair (a, b).

    Within odd segments the suffix sums of z equal a's and interior
    components coincide with a's (even segments: b). At each boundary the
    single crossover component is fixed by the suffix-sum gap and dominates
    the other marginal's component.
    """
    sa, sb, sz = _suffix_table(a), _suffix_table(b), _suffix_table(z)
    k = len(idx) - 1
    for s in range(1, k + 1):
        lo, hi = idx[s], idx[s - 1] - 1
        odd = s % 2 == 1
        for i in range(lo, hi + 1):
            ref = sa[i] if odd else sb[i]
            assert abs(sz[i] - ref) <= atol, (s, i)
        for i in range(lo, hi):
            ref = a[i - 1] if odd else b[i - 1]
            assert abs(z[i - 1] - ref) <= atol, (s, i)
    for s in range(0, k):
        t = idx[s] - 1
        gap = sa[idx[s]] - sb[idx[s]]
        if s % 2 == 1:
            assert abs(z[t - 1] - (b[t - 1] - gap)) <= atol, s
            assert z[t - 1] >= a[t - 1] - atol, s
        else:
            assert abs(z[t - 1] - (a[t - 1] + gap)) <= atol, s
            assert z[t - 1] >= b[t - 1] - atol, s


def check_boundary_invariants(a, b, z, trace, atol=1e-12):
    """Row/column bookkeeping at every segment boundary of the coupling loop.

    After segment s finishes, all rows and columns from its low index upward
    are exactly satisfied, the flush line one index below holds exactly the
    segment's surplus, and nothing below that line has been touched.
    """
    n = len(a)
    for event in trace["boundaries"]:
        m, lo, odd = event["matrix"], event["lo"], event["odd"]
        rows = m.sum(axis=1)
        cols = m.sum(axis=0)
        for j in range(lo, n + 1):
            assert abs(rows[j - 1] - a[j - 1]) <= atol, (lo, j)
            assert abs(cols[j - 1] - b[j - 1]) <= atol, (lo, j)
        if lo != 1:
            t = lo - 1
            if odd:
                assert abs(cols[t - 1] - (b[t - 1] - z[t - 1])) <= atol
                assert rows[t - 1] <= atol
            else:
                assert abs(rows[t - 1] - (a[t - 1] - z[t - 1])) <= atol
                assert cols[t - 1] <= atol
            assert np.all(m[: t - 1, : t - 1] == 0.0)


def check_piece_partition(z, trace, atol=1e-12, coverage_floor=1e-9):
    """Every meet component is written as at most two cells that sum back to it."""
    groups: dict[int, list[float]] = {}
    for src, val in trace["pieces"]:
        groups.setdefault(src, []).append(val)
    for src, vals in groups.items():
        assert len(vals) <= 2, src
        assert abs(sum(vals) - z[src - 1]) <= atol, src
    for j, zj in enumerate(z, start=1):
        if zj > coverage_floor:
            assert j in groups, j


def check_segment_strips(m: np.ndarray, idx, z, atol=1e-9):
    """Per-segment strips hold <= 2 cells per line summing to z, covering all mass."""
    k = len(idx) - 1
    covered = np.zeros_like(m, dtype=bool)
    for s in range(1, k + 1):
        lo, hi = idx[s], idx[s - 1] - 1
        line_lo = max(lo - 1, 1)
        if s % 2 == 1:
            for i in range(lo, hi + 1):
                line = m[i - 1, line_lo - 1 : hi]
                assert (line > 0).sum() <= 2, (s, i)
                assert abs(line.sum() - z[i - 1]) <= atol, (s, i)
            covered[lo - 1 : hi, line_lo - 1 : hi] = True
        else:
            for j in range(lo, hi + 1):
                line = m[line_lo - 1 : hi, j - 1]
                assert (line > 0).sum() <= 2, (s, j)
                assert abs(line.sum() - z[j - 1]) <= atol, (s, j)
            covered[line_lo - 1 : hi, lo - 1 : hi] = True
    assert np.all(m[~covered] == 0.0)


def scan_inversion_indices(a: np.ndarray, b: np.ndarray, eps_zero: float) -> tuple[int, ...]:
    """Segment boundaries for an oriented pair, by the scalar downward scan.

    Reference for the segments _fill.c's segments() writes (inversion_points
    of the oriented pair), which must be the same tuple. Scans d = suffix sums of a - b from index n downward with maximal
    extension: an odd segment runs while d >= -eps_zero, an even one while
    d <= eps_zero, and each stop opens the next segment.
    """
    d = np.cumsum((a - b)[::-1])[::-1]
    n = len(a)
    out = [n + 1]
    i = n
    want_ge = True
    while True:
        if want_ge:
            while i >= 1 and d[i - 1] >= -eps_zero:
                i -= 1
        else:
            while i >= 1 and d[i - 1] <= eps_zero:
                i -= 1
        out.append(i + 1)
        if i == 0:
            return tuple(out)
        want_ge = not want_ge


def reference_couple_oriented(
    a: np.ndarray,
    b: np.ndarray,
    tol: Tolerances,
    trace: dict | None = None,
) -> tuple[list[int], list[int], list[float]]:
    """The pairwise greedy loop as first written: one write closure per cell.

    Reference for the greedy kernel, _native.couple, which on an oriented
    pair (kernel_pieces) must return the same pieces: the same cells with
    the same value bytes, in any order (compare them with
    assert_same_pieces). The trace exists only here. Returns the
    written pieces, in write order, as parallel lists (rows, cols, vals) of
    0-based cells whose row sums are a and column sums b. When trace is a
    dict it receives "pieces" (component index, written value) for every
    cell and "boundaries" (segment number, parity, low index, dense matrix
    copy) after each segment's flush. The segments come from
    scan_inversion_indices.
    """
    n = len(a)
    eps = tol.eps_zero
    idx = scan_inversion_indices(a, b, eps)
    z = meet_values(a, b, eps)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    carried: deque[tuple[int, float]] = deque()
    m = None
    if trace is not None:
        m = np.zeros((n, n))
        trace.setdefault("pieces", [])
        trace.setdefault("boundaries", [])
        trace["indices"] = idx
        trace["meet"] = z.copy()

    def write(row: int, col: int, value: float, source: int) -> None:
        rows.append(row - 1)
        cols.append(col - 1)
        vals.append(value)
        if trace is not None:
            m[row - 1, col - 1] = value
            trace["pieces"].append((source, value))

    for s in range(1, len(idx)):
        lo, hi = idx[s], idx[s - 1] - 1
        odd = s % 2 == 1
        marginal = b if odd else a
        for j in range(hi, lo - 1, -1):
            zj = float(z[j - 1])
            if zj <= 0.0:
                continue
            x = float(marginal[j - 1])
            acc = 0.0
            while carried and acc + carried[0][1] < x - eps:
                src, v = carried.popleft()
                if odd:
                    write(src, j, v, src)
                else:
                    write(j, src, v, src)
                acc += v
            diag = x - acc
            if diag > eps:
                write(j, j, diag, j)
            rem = zj - diag
            if rem < -tol.eps_sum:
                raise InternalInvariant(
                    f"carried remainder {rem!r} for component {j} below zero"
                )
            if rem > eps:
                carried.append((j, rem))
        if lo != 1:
            while carried:
                src, v = carried.popleft()
                if odd:
                    write(src, lo - 1, v, src)
                else:
                    write(lo - 1, src, v, src)
        if trace is not None:
            trace["boundaries"].append(
                {"segment": s, "odd": odd, "lo": lo, "matrix": m.copy()}
            )
    leftover = 0.0
    for _, v in carried:  # in order: from Python 3.12, sum() of floats compensates
        leftover += v
    if leftover > tol.eps_sum:
        raise InternalInvariant(f"bookkeeping left {leftover!r} mass unplaced")
    return rows, cols, vals


def reference_check_pieces(rows, cols, vals, a, b, tol: Tolerances = DEFAULT_TOL) -> int:
    """pairwise._check_pieces in numpy, as min_entropy_coupling first ran it:
    the row-major key check, np.bincount marginals, the total and the support.

    Reference for _fill.c's check(), which must give the same verdict and
    message: nnz, the count of values above eps_zero, or InternalInvariant.
    A cell outside [0, n)^2, which np.bincount would refuse untyped, is
    refused in key order: the first piece that is outside, or whose key
    rows * n + cols does not exceed the one before, decides.
    """
    n = a.size
    rows, cols, vals = (np.asarray(x) for x in (rows, cols, vals))
    outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
    key = np.where(outside, 0, rows) * n + np.where(outside, 0, cols)
    bad = np.flatnonzero(outside | np.r_[False, key[1:] <= key[:-1]])
    if bad.size:
        i = int(bad[0])
        if outside[i]:
            raise InternalInvariant(f"piece {i} at ({rows[i]}, {cols[i]}) lies outside 0..{n - 1}")
        raise InternalInvariant("pieces out of row-major order, or a cell written twice")
    for axis, (line, margin) in enumerate(((rows, a), (cols, b))):
        got = np.bincount(line, weights=vals, minlength=n)
        dev = float(np.maximum.reduce(np.abs(got - margin)))
        if not dev <= tol.eps_sum:
            raise InternalInvariant(f"axis {axis} marginal off by {dev!r}")
    total = float(np.add.reduce(vals))
    if not abs(total - 1.0) <= tol.eps_sum:
        raise InternalInvariant(f"coupling mass {total!r} deviates from 1 beyond eps_sum")
    if vals.size > 2 * n:
        raise InternalInvariant(f"support size {vals.size} exceeds 2n = {2 * n}")
    return int(np.count_nonzero(vals > tol.eps_zero))


def assert_same_pieces(got, ref) -> None:
    """Parallel (rows, cols, vals) pieces got and ref hold the same cells,
    each with the same value bytes, in whatever order each lists them."""

    def by_cell(pieces):
        rows, cols, vals = (np.asarray(x) for x in pieces)
        order = np.lexsort((cols, rows))
        return rows[order].astype(np.intp), cols[order].astype(np.intp), vals[order].astype(float)

    got, ref = by_cell(got), by_cell(ref)
    assert got[0].size == ref[0].size, (got[0].size, ref[0].size)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    assert got[2].tobytes() == ref[2].tobytes()


def _reference_merge(left, right, tol):
    """Merge two nodes given as lists of (value, leaf-index tuple) cells."""
    cm = min_entropy_coupling(
        make_probvec([v for v, _ in left], tol),
        make_probvec([v for v, _ in right], tol),
        tol,
    )
    rows, cols, vals = cm.rows.tolist(), cm.cols.tolist(), cm.vals.tolist()
    return [
        (vals[i], left[rows[i]][1] + right[cols[i]][1])
        for i in np.argsort(-cm.vals, kind="stable").tolist()
    ]


def reference_check_marginals(
    lines: Sequence[np.ndarray], vals: np.ndarray, margins: Sequence[np.ndarray],
    tol: Tolerances = DEFAULT_TOL,
) -> None:
    """The k-way joint's post-condition over its gathered coordinates, as
    k_min_entropy_coupling first ran it: exact marginals and total mass.

    Cell i holds vals[i] at index lines[axis][i] of each axis. Raises
    InternalInvariant unless each axis's per-index sums match margins[axis]
    and the values total 1, both within eps_sum; a NaN fails either check.
    Reference for the top-down root check, which must give the same verdict.
    """
    for axis, (line, margin) in enumerate(zip(lines, margins)):
        got = np.bincount(line, weights=vals, minlength=margin.size)
        dev = float(np.maximum.reduce(np.abs(got - margin)))
        if not dev <= tol.eps_sum:
            raise InternalInvariant(f"axis {axis} marginal off by {dev!r}")
    _check_mass(vals, tol)


def reference_node_coords(node) -> np.ndarray:
    """A merge-tree node's leaf-major int32 (leaves x cells) coordinates,
    composed merge by merge as the tree first built them.

    A leaf's one row is its pick; the point mass [1.0] has no rows; a merge
    stacks each child's coordinates taken at that child's pick. Reference
    for multiway._gather, whose rows must be equal.
    """
    if not node.parts:
        return np.empty((0, node.values.size), dtype=np.int32)
    return np.vstack([
        pick.astype(np.int32).reshape(1, -1) if child is None
        else reference_node_coords(child).take(pick, axis=1)
        for pick, child in node.parts
    ])


def assert_distinct_cells(joint) -> None:
    """No two cells of a SparseJoint share an index tuple.

    k_min_entropy_coupling does not re-check this at run time: it holds
    because every merge refuses a cell written twice and every leaf's perm
    is a bijection. Reads coords only, so entries stay unbuilt.
    """
    cells = np.ascontiguousarray(joint.coords.T)
    assert np.unique(cells, axis=0).shape[0] == cells.shape[0], "repeated index tuple"


def reference_k_entries(ps, tol: Tolerances = DEFAULT_TOL):
    """SparseJoint entries of the k-way merge tree, built cell by cell.

    Every node is a list of (value, leaf-index tuple) cells; each merge
    re-validates both children with make_probvec and concatenates index
    tuples per cell. Reference for multiway's array-native tree.
    """
    k = len(ps)
    n = max(p.n for p in ps)
    nodes = []
    for p in ps:
        padded = pad_to(p, n)
        nodes.append(
            [(float(v), (int(i),)) for v, i in zip(padded.values, padded.perm) if v > 0.0]
        )
    nodes += [[(1.0, (0,))]] * ((1 << (k - 1).bit_length()) - k)
    while len(nodes) > 1:
        nodes = [_reference_merge(a, b, tol) for a, b in zip(nodes[::2], nodes[1::2])]
    return tuple((v, c[:k]) for v, c in nodes[0])
