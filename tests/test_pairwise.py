import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mecouple.pairwise
import mecouple.probvec
from mecouple import _native
from mecouple import (
    BadTotal,
    InstanceTooLarge,
    InternalInvariant,
    InversionPoints,
    LengthMismatch,
    MecoupleError,
    ProbVec,
    ValidationError,
    bounds,
    distance_interval,
    entropy,
    exact_min_entropy,
    glb,
    inversion_points,
    k_min_entropy_coupling,
    make_probvec,
    min_entropy_coupling,
    pad_to,
)
from mecouple.lattice import meet_values
from mecouple.pairwise import MATRIX_CELL_CAP, _check_pieces
from mecouple.probvec import DEFAULT_TOL, Tolerances, check_sorted_total
from golden13 import (
    COUPLING_CELLS13,
    H_COUPLING13,
    INVERSIONS13,
    P13,
    Q13,
    coupling_matrix13,
)
from util import (
    assert_same_pieces,
    check_boundary_invariants,
    check_meet_segment_identities,
    check_piece_partition,
    kernel_pieces,
    oriented,
    random_probvec,
    reference_check_pieces,
    reference_couple_oriented,
    run_python_bounded,
    scan_inversion_indices,
    spy_on_zeros,
    suffix_diffs,
    brute_inversion_sequences,
)

H_06_04 = 0.9709505944546686
OPT_2X2 = 1.3609640474436812  # entropy of the cell multiset {0.5, 0.4, 0.1}


class TestInversionPoints:
    def test_golden_13(self):
        ip = inversion_points(make_probvec(P13), make_probvec(Q13))
        assert ip.indices == INVERSIONS13
        assert ip.swapped is False
        assert ip.k == 4

    def test_equal_vectors_single_segment(self):
        p = make_probvec([0.5, 0.5])
        ip = inversion_points(p, p)
        assert ip.indices == (3, 1)
        assert ip.k == 1
        assert ip.swapped is False

    def test_no_difference_beyond_eps_zero_never_swaps(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 7, 64):
            p = random_probvec(rng, n)
            # q is p with its last component, which orients the pair, raised
            # by eps_zero / 2; (q, p) sees it lowered
            shift = np.zeros(n)
            shift[-1] = 5e-13
            q = ProbVec(p.values + shift, p.perm)
            for x, y in ((p, p), (p, q), (q, p)):
                ip = inversion_points(x, y)
                assert ip.swapped is False
                assert ip.indices == (n + 1, 1)

    def test_equal_within_eps_zero_agrees_with_the_coupling(self):
        # every component moved by at most eps_zero / 2, the order kept: the
        # suffix sums of the moves can pass eps_zero, but the pair is equal as
        # min_entropy_coupling judges it, which couples it on the diagonal
        for seed in range(200):
            rng = np.random.default_rng(seed)
            a = np.sort(rng.dirichlet(np.ones(64)))[::-1]
            b = a + rng.uniform(-5e-13, 5e-13, 64)
            assert (np.diff(b) <= 0.0).all()
            p, q = ProbVec(a, np.arange(64)), ProbVec(b, np.arange(64))
            cm = min_entropy_coupling(p, q)
            assert np.array_equal(cm.rows, cm.cols)
            for x, y in ((p, q), (q, p)):
                assert inversion_points(x, y) == InversionPoints((65, 1), False)

    def test_swap_orientation(self):
        ip = inversion_points(make_probvec([0.6, 0.4]), make_probvec([0.5, 0.5]))
        assert ip.swapped is True
        assert ip.indices == (3, 1)
        assert ip.k == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch, match="lengths differ: 1 vs 2; pad first") as info:
            inversion_points(make_probvec([1.0]), make_probvec([0.5, 0.5]))
        # caller vectors of unequal length are bad input, not a bug
        assert isinstance(info.value, ValidationError)
        assert not isinstance(info.value, InternalInvariant)

    def test_agrees_with_exhaustive_scan(self):
        rng = np.random.default_rng(20)
        eps = DEFAULT_TOL.eps_zero
        for _ in range(200):
            n = int(rng.integers(2, 8))
            a, b, idx = oriented(random_probvec(rng, n), random_probvec(rng, n))
            valid = brute_inversion_sequences(a, b, eps)
            assert idx in valid
            # maximal extension makes every boundary pointwise minimal
            for other in valid:
                assert all(g <= o for g, o in zip(idx, other))

    def test_segment_conditions_and_minimality(self):
        rng = np.random.default_rng(21)
        eps = DEFAULT_TOL.eps_zero
        for _ in range(300):
            n = int(rng.integers(2, 32))
            a, b, idx = oriented(random_probvec(rng, n), random_probvec(rng, n))
            d = suffix_diffs(a, b)
            assert idx[0] == n + 1 and idx[-1] == 1
            assert all(x > y for x, y in zip(idx, idx[1:]))
            for s in range(1, len(idx)):
                lo, hi = idx[s], idx[s - 1] - 1
                odd = s % 2 == 1
                for i in range(lo, hi + 1):
                    assert d[i - 1] >= -eps if odd else d[i - 1] <= eps
                if s < len(idx) - 1:
                    # the segment could not extend one index further
                    probe = d[lo - 2]
                    assert probe < -eps if odd else probe > eps


class TestCoupling:
    def test_golden_13_matrix(self):
        cm = min_entropy_coupling(make_probvec(P13), make_probvec(Q13))
        assert np.allclose(cm.matrix, coupling_matrix13(), atol=1e-9)
        assert cm.nnz == len(COUPLING_CELLS13)
        assert cm.entropy() == pytest.approx(H_COUPLING13, abs=1e-9)

    def test_hand_traced_2x2(self):
        cm = min_entropy_coupling(make_probvec([0.5, 0.5]), make_probvec([0.6, 0.4]))
        assert np.allclose(cm.matrix, [[0.5, 0.0], [0.1, 0.4]], atol=1e-12)
        assert cm.entropy() == pytest.approx(OPT_2X2, abs=1e-12)
        z = glb(make_probvec([0.5, 0.5]), make_probvec([0.6, 0.4])).meet
        assert cm.entropy() <= entropy(z) + 1.0 + 1e-12

    def test_identical_marginals_couple_diagonally(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            p = random_probvec(rng, int(rng.integers(1, 12)))
            cm = min_entropy_coupling(p, p)
            assert np.array_equal(cm.matrix, np.diag(p.values))
            assert cm.entropy() == pytest.approx(entropy(p), abs=1e-12)

    def test_marginals_sandwich_support_random(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            n = int(rng.integers(2, 33))
            m = int(rng.integers(2, 33))
            p = random_probvec(rng, n)
            q = random_probvec(rng, m)
            cm = min_entropy_coupling(p, q)
            side = max(n, m)
            assert cm.matrix.shape == (side, side)
            assert np.abs(cm.matrix.sum(axis=1) - pad_to(p, side).values).max() <= 1e-9
            assert np.abs(cm.matrix.sum(axis=0) - pad_to(q, side).values).max() <= 1e-9
            gap = cm.entropy() - entropy(glb(p, q).meet)
            assert -1e-12 <= gap <= 1.0 + 1e-12
            assert cm.nnz == int(np.count_nonzero(cm.matrix > 1e-12))
            assert cm.nnz <= 2 * side
            assert np.all(cm.matrix >= 0.0)

    def test_swapping_arguments_transposes(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            p = random_probvec(rng, int(rng.integers(2, 16)))
            q = random_probvec(rng, int(rng.integers(2, 16)))
            assert np.array_equal(
                min_entropy_coupling(q, p).matrix,
                min_entropy_coupling(p, q).matrix.T,
            )

    def test_deterministic(self):
        rng = np.random.default_rng(26)
        p = random_probvec(rng, 20)
        q = random_probvec(rng, 20)
        first = min_entropy_coupling(p, q).matrix
        second = min_entropy_coupling(p, q).matrix
        assert np.array_equal(first, second)

    def test_original_order_mapping(self):
        p = make_probvec([0.4, 0.6])
        q = make_probvec([0.5, 0.5])
        cm = min_entropy_coupling(p, q)
        original = cm.in_original_order()
        assert np.allclose(original.sum(axis=1), [0.4, 0.6], atol=1e-12)
        assert np.allclose(original.sum(axis=0), [0.5, 0.5], atol=1e-12)

    def test_matrix_is_frozen(self):
        cm = min_entropy_coupling(make_probvec([0.5, 0.5]), make_probvec([0.6, 0.4]))
        with pytest.raises(ValueError):
            cm.matrix[0, 0] = 1.0

    def test_meet_segment_identities_random(self):
        rng = np.random.default_rng(27)
        eps = DEFAULT_TOL.eps_zero
        for _ in range(300):
            n = int(rng.integers(2, 24))
            a, b, idx = oriented(random_probvec(rng, n), random_probvec(rng, n))
            z = meet_values(a, b, eps)
            check_meet_segment_identities(a, b, idx, z)

    def test_boundary_bookkeeping_and_two_piece_structure(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            n = int(rng.integers(2, 24))
            a, b, idx = oriented(random_probvec(rng, n), random_probvec(rng, n))
            # the trace comes from the reference, whose pieces the kernel matches
            trace = {}
            pieces = reference_couple_oriented(a, b, DEFAULT_TOL, trace)
            assert_same_pieces(kernel_pieces(a, b, idx), pieces)
            z = trace["meet"]
            check_boundary_invariants(a, b, z, trace)
            check_piece_partition(z, trace)


def dense_entropy(m: np.ndarray) -> float:
    v = m[m > 0.0]
    return float(-(v * np.log2(v)).sum())


@st.composite
def sixty_fourths(draw, max_len=12):
    """Multiples of 1/64 summing to exactly 1: exact ties and zeros."""
    n = draw(st.integers(1, max_len))
    cuts = sorted(draw(st.lists(st.integers(0, 64), min_size=n - 1, max_size=n - 1)))
    return list(np.diff([0, *cuts, 64]) / 64.0)


@st.composite
def point_masses(draw, max_len=12):
    n = draw(st.integers(1, max_len))
    out = [0.0] * n
    out[draw(st.integers(0, n - 1))] = 1.0
    return out


marginals = st.one_of(sixty_fourths(), point_masses())


@st.composite
def generic_floats(draw, max_len=12):
    """Positive floats scaled to sum to 1: no decimal structure."""
    raw = draw(st.lists(st.floats(0.001, 1.0), min_size=1, max_size=max_len))
    total = math.fsum(raw)
    return [v / total for v in raw]


@st.composite
def tiny_tails(draw, max_len=12):
    """A distribution followed by components at or below eps_zero, so the
    tail's suffix differences fall in the segment scan's dead zone."""
    head = draw(st.one_of(sixty_fourths(max_len), generic_floats(max_len)))
    eps = DEFAULT_TOL.eps_zero
    tiny = st.sampled_from([0.0, eps / 4, eps / 2, eps])
    return head + draw(st.lists(tiny, min_size=1, max_size=max_len))


@st.composite
def near_equal_pairs(draw, max_len=12):
    """Two marginals that differ by at most eps_zero per component (equal
    within eps_zero as the coupling judges them), some by exactly eps_zero
    at 1/64 ties: the suffix differences may still pass eps_zero."""
    head = draw(st.one_of(sixty_fourths(max_len), generic_floats(max_len)))
    eps = DEFAULT_TOL.eps_zero
    moves = st.sampled_from([0.0, eps / 2, -eps / 2, eps, -eps])
    head = sorted(head, reverse=True)
    return head, [v + draw(moves) if v > eps else v for v in head]


def assert_segments_match_the_scalar_scan(a, b):
    """_fill.c's prepare() (through inversion_points), in both orders,
    orients the pair by its last component differing beyond eps_zero, or
    not at all when none does, and cuts it where the scalar scan does."""
    eps = DEFAULT_TOL.eps_zero
    for x, y in ((a, b), (b, a)):
        differ = np.flatnonzero(np.abs(x - y) > eps)
        ip = inversion_points(*(ProbVec(v, np.arange(v.size)) for v in (x, y)))
        if not differ.size:
            assert ip == InversionPoints((x.size + 1, 1), False)
            continue
        assert ip.swapped == bool(x[differ[-1]] < y[differ[-1]])
        x, y = (y, x) if ip.swapped else (x, y)
        assert ip.indices == scan_inversion_indices(x, y, eps)


@st.composite
def signed_zeros(draw, max_len=12):
    """sixty_fourths plus a few zeros, some of the zeros written as -0.0,
    which make_probvec keeps: the kernel reads x = -0.0, and z_j = 0."""
    values = draw(sixty_fourths(max_len)) + [0.0] * draw(st.integers(0, 3))
    flips = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    return [-0.0 if v == 0.0 and flip else v for v, flip in zip(values, flips)]


kernel_inputs = st.one_of(sixty_fourths(), point_masses(), generic_floats(), signed_zeros())


class TestKernelReference:
    @settings(max_examples=400, deadline=None)
    @given(kernel_inputs, kernel_inputs)
    def test_pieces_and_trace_match_the_closure_loop(self, raw_p, raw_q):
        p, q = make_probvec(raw_p), make_probvec(raw_q)
        n = max(p.n, q.n)
        a, b, idx = oriented(pad_to(p, n), pad_to(q, n))
        trace = {}
        got = kernel_pieces(a, b, idx)
        ref = reference_couple_oriented(a, b, DEFAULT_TOL, trace)
        assert_same_pieces(got, ref)
        again = kernel_pieces(a, b, idx)
        for g, r in zip(got, again):
            assert g.dtype == r.dtype and g.tobytes() == r.tobytes()
        # equal pieces, so the reference trace is the kernel's as well
        assert trace["indices"] == idx
        check_piece_partition(trace["meet"], trace)
        check_boundary_invariants(a, b, trace["meet"], trace)

    def test_a_deep_fifo_matches_the_closure_loop(self):
        # 4,095 remainders pass through the compiled loop's FIFO, whose write
        # index only grows, so its reads and writes reach deep into its
        # buffers; no trace, whose n x n copies would not fit
        rng = np.random.default_rng(4096)
        p, q = (make_probvec(v) for v in rng.dirichlet(np.ones(4096), size=2))
        a, b, idx = oriented(p, q)
        got = kernel_pieces(a, b, idx)
        assert_same_pieces(got, reference_couple_oriented(a, b, DEFAULT_TOL))
        assert np.count_nonzero(got[0] != got[1]) == 4095

    @pytest.mark.parametrize("n", range(2, 9))
    def test_full_buffers_match_the_closure_loop(self, n):
        # 2n - 1 pieces, n diagonal parts and n - 1 remainders: with every
        # meet component positive, fill()'s buffers of 2m = 2n hold them
        # with one slot to spare, in either orientation: the pair swapped
        # gives the same cells transposed
        rng = np.random.default_rng(n)
        p, q = (make_probvec(v) for v in rng.dirichlet(np.ones(n), size=2))
        a, b, idx = oriented(p, q)
        ref = reference_couple_oriented(a, b, DEFAULT_TOL)
        for swapped in (False, True):
            rows, cols, vals = kernel_pieces(*((b, a) if swapped else (a, b)), idx,
                                             DEFAULT_TOL, swapped)
            assert vals.size == 2 * n - 1
            assert all(x.base.size == 2 * n for x in (rows, cols, vals))
            assert_same_pieces((cols, rows, vals) if swapped else (rows, cols, vals), ref)

    @pytest.mark.parametrize("swapped", [False, True])
    def test_buffers_hold_two_cells_per_positive_meet_component(self, swapped):
        # zeros at the tail of both marginals are zeros of the meet, which
        # give no pieces, so the buffers hold 2m < 2n cells
        rng = np.random.default_rng(36)
        p, q = (make_probvec(np.r_[v, np.zeros(4)]) for v in rng.dirichlet(np.ones(6), size=2))
        a, b, idx = oriented(p, q)
        m = np.count_nonzero(meet_values(a, b, DEFAULT_TOL.eps_zero) > 0.0)
        assert m == 6 < p.n
        rows, cols, vals = kernel_pieces(*((b, a) if swapped else (a, b)), idx,
                                         DEFAULT_TOL, swapped)
        assert all(x.base.size == 2 * m for x in (rows, cols, vals))
        assert_same_pieces((cols, rows, vals) if swapped else (rows, cols, vals),
                           reference_couple_oriented(a, b, DEFAULT_TOL))

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(kernel_inputs, tiny_tails()),
        st.one_of(kernel_inputs, tiny_tails()),
    )
    def test_segment_scan_matches_the_scalar_scan(self, raw_p, raw_q):
        p, q = make_probvec(raw_p), make_probvec(raw_q)
        n = max(p.n, q.n)
        assert_segments_match_the_scalar_scan(pad_to(p, n).values, pad_to(q, n).values)

    @settings(max_examples=200, deadline=None)
    @given(near_equal_pairs())
    def test_segment_scan_of_pairs_equal_within_eps_zero(self, pair):
        assert_segments_match_the_scalar_scan(*(np.array(v) for v in pair))

    @settings(max_examples=300, deadline=None)
    @given(kernel_inputs, kernel_inputs)
    def test_swapped_inputs_give_the_transposed_pieces(self, raw_p, raw_q):
        p, q = make_probvec(raw_p), make_probvec(raw_q)
        n = max(p.n, q.n)
        a, b = pad_to(p, n).values, pad_to(q, n).values
        assume(np.any(np.abs(a - b) > DEFAULT_TOL.eps_zero))
        pq = min_entropy_coupling(p, q)
        qp = min_entropy_coupling(q, p)
        order = np.lexsort((pq.rows, pq.cols))
        assert np.array_equal(qp.rows, pq.cols[order])
        assert np.array_equal(qp.cols, pq.rows[order])
        assert np.array_equal(qp.vals, pq.vals[order])


def check_per_component_pieces(a, b, idx, pieces, tol=DEFAULT_TOL):
    """The kernel's pieces split each meet component z_j as the paper does.

    For each j: at most one diagonal piece (j, j) and at most one remainder,
    a piece off the diagonal whose larger line is j. The remainder's other
    line is strictly below j and no lower than its segment's lo - 1; it sits
    at (j, line) in odd segments and (line, j) in even ones. diag_j is
    rebuilt by the kernel's recurrence, x_j minus the remainders that line j
    absorbed within its segment, summed in push order; the diagonal piece is
    diag_j exactly, present iff diag_j > eps_zero, and the remainder is
    z_j - diag_j exactly, present iff above eps_zero, unless it is still
    carried after the last segment. Those unplaced remainders total at most
    eps_sum.
    """
    eps = tol.eps_zero
    n, k = len(a), len(idx) - 1
    z = meet_values(a, b, eps)
    seg = np.empty(n, dtype=int)
    seg_lo = np.empty(n, dtype=int)
    for s in range(1, k + 1):
        seg[idx[s] - 1 : idx[s - 1] - 1] = s
        seg_lo[idx[s] - 1 : idx[s - 1] - 1] = idx[s] - 1
    diag, rem = {}, {}
    for r, c, v in zip(*(np.asarray(x).tolist() for x in pieces)):
        if r == c:
            assert r not in diag, ("second diagonal piece", r)
            diag[r] = v
        else:
            j, line = max(r, c), min(r, c)
            assert j not in rem, ("second remainder", j)
            assert seg_lo[j] - 1 <= line < j, (j, line, seg_lo[j])
            assert (r == j) == (seg[j] % 2 == 1), ("orientation", j, seg[j])
            rem[j] = (line, v)
    absorbed: dict[int, list[tuple[int, float]]] = {}
    for j, (line, v) in rem.items():
        if seg[line] == seg[j]:  # a pop; a flush lands in the next segment
            absorbed.setdefault(line, []).append((j, v))
    unplaced = []
    for j in range(n):
        zj = float(z[j])
        if zj <= 0.0:
            assert j not in diag and j not in rem and j not in absorbed, j
            continue
        acc = 0.0
        for _, v in sorted(absorbed.get(j, ()), reverse=True):
            acc += v
        d = float((b if seg[j] % 2 == 1 else a)[j]) - acc
        got = diag.pop(j, None)
        if d > eps:
            assert got is not None and got.hex() == d.hex(), j
        else:
            assert got is None, j
        remainder = zj - d
        if j in rem:
            assert remainder > eps and rem[j][1].hex() == remainder.hex(), j
        elif remainder > eps:
            assert seg[j] == k, ("remainder left out before the last segment", j)
            unplaced.append(remainder)
    assert sum(unplaced) <= tol.eps_sum


class TestPerComponentKernel:
    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(kernel_inputs, tiny_tails()),
        st.one_of(kernel_inputs, tiny_tails()),
    )
    @example(list(P13), list(Q13))
    def test_each_component_is_one_diagonal_part_and_one_remainder(self, raw_p, raw_q):
        p, q = make_probvec(raw_p), make_probvec(raw_q)
        n = max(p.n, q.n)
        a, b, idx = oriented(pad_to(p, n), pad_to(q, n))
        check_per_component_pieces(a, b, idx, kernel_pieces(a, b, idx))

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(kernel_inputs, tiny_tails()),
        st.one_of(kernel_inputs, tiny_tails()),
    )
    @example(list(P13), list(Q13))
    def test_the_pieces_leave_the_loop_row_major(self, raw_p, raw_q):
        # in either orientation: the pair swapped, with swapped set, gives
        # the same cells transposed, and still listed row-major
        p, q = make_probvec(raw_p), make_probvec(raw_q)
        n = max(p.n, q.n)
        a, b, idx = oriented(pad_to(p, n), pad_to(q, n))
        rows, cols, vals = kernel_pieces(a, b, idx)
        assert np.all(np.diff(rows * n + cols) > 0)
        t_rows, t_cols, t_vals = kernel_pieces(b, a, idx, DEFAULT_TOL, True)
        assert np.all(np.diff(t_rows * n + t_cols) > 0)
        assert_same_pieces((t_cols, t_rows, t_vals), (rows, cols, vals))

    # In the fill tests below, NaN stands where a segment must not read: b
    # in even segments, a in odd ones. A NaN read would change the pieces.

    def test_remainders_still_carried_at_the_end_are_counted(self):
        # one odd segment ending at component 1, so nothing is flushed: the
        # two 2e-10 remainders stay carried in the FIFO, the first at its
        # read index and the second behind it
        a, b = np.full(3, np.nan), np.array([1e-10, 0.0, 0.0])
        z = np.array([1e-10, 2e-10, 2e-10])
        assert as_lists(fill(a, b, z, (4, 1), DEFAULT_TOL)) == ([0], [0], [1e-10])
        tight = Tolerances(eps_sum=3e-10, eps_zero=1e-12)
        with pytest.raises(InternalInvariant, match=r"^bookkeeping left 4e-10 mass unplaced$"):
            fill(a, b, z, (4, 1), tight)

    def test_carried_remainders_beyond_eps_sum_raise(self):
        a, b = np.full(5, np.nan), np.array([1e-10, 0.0, 0.0, 0.0, 0.0])
        z = np.array([1e-10] + [3e-10] * 4)
        with pytest.raises(InternalInvariant, match=r"^bookkeeping left 1\.2e-09 mass unplaced$"):
            fill(a, b, z, (6, 1), DEFAULT_TOL)

    def test_a_negative_remainder_raises_with_its_component(self):
        # component 3 is one odd segment, components 1..2 an even one; the
        # marginal 0.5 read at component 2 exceeds its meet component 0.25
        a, b = np.array([0.5, 0.5, np.nan]), np.array([np.nan, np.nan, 0.0])
        z = np.array([0.5, 0.25, 0.0])
        with pytest.raises(
            InternalInvariant, match=r"^carried remainder -0\.25 for component 2 below zero$"
        ):
            fill(a, b, z, (4, 3, 1), DEFAULT_TOL)

    def test_ties_at_eps_zero_neither_pop_nor_carry(self):
        # with eps_zero = 2**-40 every sum below is exact, so each test
        # meets its bound with equality: a carried value equal to x -
        # eps_zero, or a run of pops reaching it, is not popped, and a
        # remainder equal to eps_zero is not carried
        tol = Tolerances(eps_sum=1e-9, eps_zero=2**-40)
        x = 0.25 + 2**-40
        a, b = np.full(3, np.nan), np.array([np.nan, x, 0.25])
        got = fill(a, b, np.array([0.0, x, 0.5]), (4, 2, 1), tol)
        assert as_lists(got) == ([1, 2, 2], [1, 0, 2], [x, 0.25, 0.25])
        a, b = np.full(4, np.nan), np.array([np.nan, x, 0.125, 0.125])
        z = np.array([0.0, 0.125 + 2**-40, 0.25, 0.25])
        got = fill(a, b, z, (5, 2, 1), tol)
        assert as_lists(got) == ([1, 2, 2, 3, 3], [1, 0, 2, 1, 3],
                               [0.125 + 2**-40, 0.125, 0.125, 0.125, 0.125])
        a, b = np.full(2, np.nan), np.array([0.5, 0.25])
        got = fill(a, b, np.array([0.5, x]), (3, 1), tol)
        assert as_lists(got) == ([0, 1], [0, 1], [0.5, 0.25])

    def test_a_meet_with_no_positive_component_gives_no_pieces(self):
        # m = 0: the buffers are empty, and go in as they are
        a = np.array([0.5, 0.5])
        assert as_lists(fill(a, a, np.zeros(2), (3, 1), DEFAULT_TOL)) == ([], [], [])

    def test_arrays_the_loop_cannot_read_are_refused(self):
        # refused before the call: the loop reads n doubles from each
        good = np.array([0.5, 0.5])
        unreadable = (
            (np.array([0.5, 0.5], np.float32), TypeError, "must be a C-contiguous float64"),
            (np.array([0.5]), ValueError, r"has \d items, not \d"),
            (np.array([0.5, 0.0, 0.5, 0.0])[::2], TypeError, "must be a C-contiguous float64"),
        )
        for arr, error, match in unreadable:
            for args in ((arr, good, good), (good, arr, good), (good, good, arr)):
                with pytest.raises(error, match=rf"^fill\(\): [abz] {match}"):
                    fill(*args, (3, 1), DEFAULT_TOL)
        for idx in ((4, 1), (3, 0), (3, 2, 3, 1)):
            with pytest.raises(InternalInvariant, match=r"^segment boundaries .* do not cut 1\.\.2$"):
                fill(good, good, good, idx, DEFAULT_TOL)
        # boundaries that leave part of 1..n uncut, none at all, or one
        # repeated, which would cut an empty segment and flip the parity
        a, b = np.array([0.5, 0.3, 0.2]), np.array([0.4, 0.4, 0.2])
        z = meet_values(a, b, DEFAULT_TOL.eps_zero)
        for idx in ((4,), (2, 1), (), (4, 2, 2, 1)):
            message = rf"^segment boundaries {re.escape(str(idx))} do not cut 1\.\.3$"
            with pytest.raises(InternalInvariant, match=message):
                _native.fill(a, b, z, idx, DEFAULT_TOL, False, 3)
        # a ProbVec's values are read-only, and go in as they are
        a, b, idx = oriented(make_probvec([0.6, 0.4]), make_probvec([0.5, 0.5]))
        assert not (a.flags.writeable or b.flags.writeable)
        got = fill(a, b, meet_values(a, b, DEFAULT_TOL.eps_zero), idx, DEFAULT_TOL)
        assert_same_pieces(got, reference_couple_oriented(a, b, DEFAULT_TOL))


def fill(a, b, z, idx, tol):
    """_native.fill on the unswapped pair, its buffers sized by z's positive components."""
    return _native.fill(a, b, z, idx, tol, False, np.count_nonzero(z > 0.0))


def as_lists(got) -> tuple[list, list, list]:
    """fill's pieces as lists, in the order it returns them."""
    return tuple(x.tolist() for x in got)


def _moved_along_a_row(rows, cols, vals, n):
    """1e-6 from a piece to the next piece of its row: row sums hold, a column's do not."""
    same = np.flatnonzero(rows[1:] == rows[:-1])
    if not same.size:
        return None
    i = int(same[0])
    vals[i] -= 1e-6
    vals[i + 1] += 1e-6
    return rows, cols, vals


def _moved_along_a_column(rows, cols, vals, n):
    """1e-6 between two pieces of one column: column sums hold, a row's do not."""
    for i in range(vals.size):
        j = np.flatnonzero(cols[i + 1:] == cols[i])
        if j.size:
            vals[i] -= 1e-6
            vals[i + 1 + int(j[0])] += 1e-6
            return rows, cols, vals
    return None


def _added(rows, cols, vals, n):
    vals[-1] += 1e-6
    return rows, cols, vals


def _duplicated(rows, cols, vals, n):
    """The first cell written twice, each time with half its value: exact marginals."""
    half = vals[:1] / 2
    return (np.concatenate((rows, rows[:1])), np.concatenate((cols, cols[:1])),
            np.concatenate((half, vals[1:], half)))


def _nan(rows, cols, vals, n):
    vals[vals.size // 2] = np.nan
    return rows, cols, vals


def _exchanged(rows, cols, vals, n):
    """Two adjacent pieces swapped: exact marginals, keys out of order."""
    if vals.size < 2:
        return None
    order = [1, 0, *range(2, vals.size)]
    return rows[order], cols[order], vals[order]


def _row_outside(rows, cols, vals, n):
    rows[-1] = n
    return rows, cols, vals


def _column_below_zero(rows, cols, vals, n):
    cols[vals.size // 2] = -1
    return rows, cols, vals


def _far_outside(rows, cols, vals, n):
    """An index whose key rows * n + cols would overflow int64."""
    rows[0] = 2**62
    return rows, cols, vals


def _product(rows, cols, vals, n):
    """The product coupling of the marginals, every one of the n x n cells."""
    a = np.bincount(rows, weights=vals, minlength=n)
    b = np.bincount(cols, weights=vals, minlength=n)
    cells = np.arange(n * n)
    return cells // n, cells % n, np.outer(a, b).ravel()


PERTURBATIONS = {f.__name__[1:]: f for f in (
    _moved_along_a_row, _moved_along_a_column, _added, _duplicated, _nan, _exchanged,
    _row_outside, _column_below_zero, _far_outside, _product)}
PERTURBATIONS["none"] = lambda rows, cols, vals, n: (rows, cols, vals)
TIGHT = Tolerances(eps_sum=2e-16, eps_zero=1e-16)


def verdict(check, *args):
    """check's return value, or the class and message of the InternalInvariant it raised."""
    try:
        return check(*args)
    except InternalInvariant as exc:
        return type(exc), str(exc)


class TestCheckPieces:
    # _fill.c's check() against tests/util.py's numpy form on perturbed pieces:
    # the same verdict and the same message, so the same deviation bytes;
    # under TIGHT even genuine pieces fail on their rounding
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(kernel_inputs, tiny_tails()),
        st.one_of(kernel_inputs, tiny_tails()),
        st.sampled_from(sorted(PERTURBATIONS)),
    )
    @example(list(P13), list(Q13), "moved_along_a_row")
    def test_check_and_its_numpy_form_agree(self, raw_p, raw_q, kind):
        p, q = make_probvec(raw_p), make_probvec(raw_q)
        cm = min_entropy_coupling(p, q)
        a, b = pad_to(p, cm.n).values, pad_to(q, cm.n).values
        pieces = PERTURBATIONS[kind](cm.rows.copy(), cm.cols.copy(), cm.vals.copy(), cm.n)
        assume(pieces is not None)
        for tol in (DEFAULT_TOL, TIGHT):
            got = verdict(_check_pieces, *pieces, a, b, tol)
            assert got == verdict(reference_check_pieces, *pieces, a, b, tol), (kind, tol)
            if kind == "none" and tol is DEFAULT_TOL:
                assert got == cm.nnz

    def test_each_perturbation_is_refused_by_its_own_check(self):
        p, q = make_probvec(P13), make_probvec(Q13)
        cm = min_entropy_coupling(p, q)
        a, b = p.values, q.values
        refusals = {
            "moved_along_a_row": r"^axis 1 marginal off by 1\.0000000000\d*e-06$",
            "moved_along_a_column": r"^axis 0 marginal off by 1\.0000000000\d*e-06$",
            "added": r"^axis 0 marginal off by 1\.0000000000\d*e-06$",
            "duplicated": r"^pieces out of row-major order, or a cell written twice$",
            "nan": r"^axis 0 marginal off by nan$",
            "exchanged": r"^pieces out of row-major order, or a cell written twice$",
            "row_outside": rf"^piece {cm.vals.size - 1} at \(13, \d+\) lies outside 0\.\.12$",
            "column_below_zero": rf"^piece {cm.vals.size // 2} at \(\d+, -1\) lies outside",
            "far_outside": r"^piece 0 at \(4611686018427387904, 0\) lies outside 0\.\.12$",
            "product": r"^support size 169 exceeds 2n = 26$",
        }
        assert set(refusals) == set(PERTURBATIONS) - {"none"}
        for kind, message in refusals.items():
            pieces = PERTURBATIONS[kind](cm.rows.copy(), cm.cols.copy(), cm.vals.copy(), 13)
            with pytest.raises(InternalInvariant, match=message):
                _check_pieces(*pieces, a, b, DEFAULT_TOL)

    def test_an_index_outside_the_square_raises_internal_invariant(self, monkeypatch):
        # numpy's bincount once let this escape as an untyped ValueError
        real = _native.fill

        def shifted(*args, **kwargs):
            rows, cols, vals = (x.copy() for x in real(*args, **kwargs))
            rows[-1] += 1
            return rows, cols, vals

        monkeypatch.setattr(_native, "fill", shifted)
        with pytest.raises(InternalInvariant, match=r"^piece 2 at \(2, 1\) lies outside 0\.\.1$"):
            min_entropy_coupling(make_probvec([0.6, 0.4]), make_probvec([0.5, 0.5]))

    def test_pieces_the_check_cannot_read_are_refused(self):
        # refused before the call: check() reads vals.size 8-byte values from each
        a = b = np.array([0.5, 0.5])
        rows, vals = np.array([0, 1]), np.array([0.5, 0.5])
        for bad in (rows.astype(np.int32), rows[:1], np.array([0.5, 0.5], np.float32)):
            for pieces in ((bad, rows, vals), (rows, bad, vals), (rows, rows, bad)):
                with pytest.raises((TypeError, ValueError), match=r"^check\(\): (rows|cols|vals) "):
                    _check_pieces(*pieces, a, b, DEFAULT_TOL)
        assert _check_pieces(rows, rows, vals, a, b, DEFAULT_TOL) == 2
        with pytest.raises(InternalInvariant, match=r"^axis 0 marginal off by 0\.5$"):
            _check_pieces(rows[:0], rows[:0], vals[:0], a, b, DEFAULT_TOL)


class TestInputContract:
    # ProbVec's constructor checks neither order nor total, so the coupling does
    def test_unsorted_values_are_rejected(self):
        unsorted = ProbVec((0.2, 0.3, 0.5), (0, 1, 2))
        other = make_probvec([0.6, 0.4])
        for p, q in ((unsorted, other), (other, unsorted)):
            with pytest.raises(ValidationError) as info:
                min_entropy_coupling(p, q)
            assert not isinstance(info.value, BadTotal)

    def test_short_total_is_rejected(self):
        short = ProbVec((0.5, 0.3), (0, 1))
        other = make_probvec([0.6, 0.4])
        for p, q in ((short, other), (other, short)):
            with pytest.raises(BadTotal):
                min_entropy_coupling(p, q)

    @pytest.mark.parametrize("call", [glb, bounds])
    def test_meet_rejects_unsorted_values(self, call):
        unsorted = ProbVec((0.2, 0.3, 0.5), (0, 1, 2))
        other = make_probvec([0.6, 0.4])
        for p, q in ((unsorted, other), (other, unsorted)):
            with pytest.raises(ValidationError) as info:
                call(p, q)
            assert not isinstance(info.value, BadTotal)

    @pytest.mark.parametrize("call", [glb, bounds])
    def test_meet_rejects_a_short_total(self, call):
        short = ProbVec((0.5, 0.3), (0, 1))
        other = make_probvec([0.6, 0.4])
        for p, q in ((short, other), (other, short)):
            with pytest.raises(BadTotal):
                call(p, q)

    def test_accepted_vectors_pass_every_entry_check(self):
        # at a tolerance near one ulp, the totals only agree if make_probvec
        # and the entry checks sum the same array the same way, padded or not
        tight = Tolerances(eps_sum=2e-16, eps_zero=1e-16)
        point = make_probvec([1.0], tight)
        rng = np.random.default_rng(79)
        accepted = 0
        for t in range(600):
            n = int(rng.integers(2, 40))
            try:
                p = make_probvec(rng.dirichlet(np.full(n, (0.1, 1.0, 10.0)[t % 3])), tight)
            except BadTotal:
                continue
            accepted += 1
            check_sorted_total(p.values, tight)
            check_sorted_total(pad_to(p, n + int(rng.integers(1, 9))).values, tight)
            glb(point, p, tight)
            glb(p, point, tight)
            bounds(p, point, tight)
        assert accepted >= 300

    def test_order_within_eps_zero_is_accepted(self):
        p = ProbVec((0.5 - 2e-13, 0.5 + 2e-13), (0, 1))
        cm = min_entropy_coupling(p, make_probvec([0.6, 0.4]))
        assert abs(cm.vals.sum() - 1.0) <= DEFAULT_TOL.eps_sum


class TestEntryCheckedOnce:
    # make_probvec's result records the eps_sum its total passed under, and
    # the entry checks skip it only under an eps_sum at least as wide
    CALLS = (min_entropy_coupling, glb, bounds)

    def test_a_vector_made_under_a_wider_eps_sum_is_checked(self):
        loose = Tolerances(1e-6, 1e-10)
        off = make_probvec([0.5 + 1e-7, 0.3, 0.2], loose)
        other = make_probvec([0.6, 0.4])
        for call in self.CALLS:
            for p, q in ((off, other), (other, off)):
                with pytest.raises(BadTotal):
                    call(p, q, DEFAULT_TOL)
            call(off, other, loose)
        with pytest.raises(BadTotal):
            k_min_entropy_coupling([other, off], DEFAULT_TOL)

    def test_replaced_copies_are_checked(self):
        # hand-built vectors are covered above and in test_multiway's
        # TestArrayNativeTree::test_unsorted_or_short_input_is_rejected
        other = make_probvec([0.6, 0.4])
        made = make_probvec([0.2, 0.3, 0.5])
        reversed_copy = dataclasses.replace(made, values=made.values[::-1])
        short_copy = dataclasses.replace(made, values=made.values * 0.9)
        for call in (*self.CALLS, lambda p, q: k_min_entropy_coupling([p, q])):
            with pytest.raises(ValidationError) as info:
                call(reversed_copy, other)
            assert not isinstance(info.value, BadTotal)
            with pytest.raises(BadTotal):
                call(other, short_copy)

    def test_make_probvec_inputs_skip_the_entry_check(self, monkeypatch):
        seen = []

        def spy(values, tol=DEFAULT_TOL):
            seen.append(values)
            check_sorted_total(values, tol)

        monkeypatch.setattr(mecouple.probvec, "check_sorted_total", spy)
        rng = np.random.default_rng(83)
        p = make_probvec(rng.dirichlet(np.ones(20)))
        q = make_probvec(np.r_[np.full(32, 1 / 64), 0.5, np.zeros(3)])
        wider = Tolerances(1e-6, DEFAULT_TOL.eps_zero)
        for tol in (DEFAULT_TOL, wider):
            for call in self.CALLS:
                call(p, q, tol)
        assert seen == []
        k_min_entropy_coupling([p, q, p])
        # none for the marginals or their leaves, which keep make_probvec's
        # record; one for the point mass [1.0] and two for the root merge,
        # whose inputs are node values
        assert len(seen) == 3
        seen.clear()
        min_entropy_coupling(p, q, Tolerances(1e-10, DEFAULT_TOL.eps_zero))
        assert len(seen) == 2


class TestNonFiniteMass:
    # A NaN mass once hung min_entropy_coupling (NaN suffix sums stop both
    # scans of _inversion_indices while its output list grows), made
    # k_min_entropy_coupling return a joint with a wrong marginal, and made
    # bounds report h_p = -0.0. Each call runs in a bounded child process,
    # so a regression fails instead of hanging the suite.
    @pytest.mark.parametrize(
        "call",
        ["mc.min_entropy_coupling(p, q)", "mc.k_min_entropy_coupling([p, q])", "mc.bounds(p, q)"],
    )
    def test_nan_mass_is_rejected_at_construction(self, call):
        script = (
            "import math, mecouple as mc\n"
            "q = mc.make_probvec([0.5, 0.5])\n"
            "try:\n"
            "    p = mc.ProbVec((math.nan, 1.0), (0, 1))\n"
            f"    print('returned', {call})\n"
            "except mc.MecoupleError as exc:\n"
            "    print(exc.code)\n"
        )
        assert run_python_bounded(script) == "ValidationError"

    @pytest.mark.parametrize("entry", ["min_entropy_coupling", "k_min_entropy_coupling"])
    def test_entry_check_rejects_nan_behind_the_constructor(self, entry):
        # the sorted/total entry check must fail on a NaN total, too
        args = "p, q" if entry == "min_entropy_coupling" else "[p, q]"
        script = (
            "import math, mecouple as mc\n"
            "from util import unchecked_probvec\n"
            "p = unchecked_probvec((math.nan, 1.0), (0, 1))\n"
            "q = mc.make_probvec([0.5, 0.5])\n"
            "try:\n"
            f"    print('returned', mc.{entry}({args}))\n"
            "except mc.MecoupleError as exc:\n"
            "    print(exc.code)\n"
        )
        assert run_python_bounded(script) == "BadTotal"


class TestSparseCore:
    @settings(max_examples=300, deadline=None)
    @given(marginals, marginals)
    def test_pieces_dense_view_and_sandwich(self, raw_p, raw_q):
        p, q = make_probvec(raw_p), make_probvec(raw_q)
        cm = min_entropy_coupling(p, q)
        n = max(len(raw_p), len(raw_q))
        assert cm.n == n
        assert cm.vals.size <= 2 * n
        assert np.all(cm.vals > 0.0)
        # row-major, each cell at most once
        keys = cm.rows * n + cm.cols
        assert np.all(np.diff(keys) > 0)
        dense = np.zeros((n, n))
        dense[cm.rows, cm.cols] = cm.vals
        assert np.array_equal(cm.matrix, dense)
        original = np.zeros((n, n))
        original[np.ix_(list(cm.row_perm), list(cm.col_perm))] = dense
        assert np.array_equal(cm.in_original_order(), original)
        assert np.abs(original.sum(axis=1)[: len(raw_p)] - raw_p).max() <= 1e-9
        assert np.abs(original.sum(axis=0)[: len(raw_q)] - raw_q).max() <= 1e-9
        assert cm.entropy() == pytest.approx(dense_entropy(dense), abs=1e-12)
        h_z = entropy(glb(p, q).meet)
        assert h_z - 1e-12 <= cm.entropy() <= h_z + 1.0 + 1e-12

    def test_large_n_checked_on_the_pieces(self):
        rng = np.random.default_rng(32)
        n = 100_000
        raw_p, raw_q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        p, q = make_probvec(raw_p), make_probvec(raw_q)
        cm = min_entropy_coupling(p, q)
        assert cm.nnz <= 2 * n
        rows = np.asarray(cm.row_perm)[cm.rows]
        cols = np.asarray(cm.col_perm)[cm.cols]
        assert np.abs(np.bincount(rows, weights=cm.vals, minlength=n) - raw_p).max() <= 1e-9
        assert np.abs(np.bincount(cols, weights=cm.vals, minlength=n) - raw_q).max() <= 1e-9
        h_z = entropy(glb(p, q).meet)
        assert h_z - 1e-12 <= cm.entropy() <= h_z + 1.0 + 1e-12

    def test_a_sparse_meet_keeps_small_buffers(self):
        # two positive meet components at n = 10**5: the result's arrays
        # view buffers of 2m = 4 cells, not 2n
        n = 100_000
        p = make_probvec(np.r_[0.5, 0.5, np.zeros(n - 2)])
        q = make_probvec(np.r_[0.625, 0.375, np.zeros(n - 2)])
        cm = min_entropy_coupling(p, q)
        assert cm.n == n and cm.vals.size == 3
        assert all(x.base.size == 4 for x in (cm.rows, cm.cols, cm.vals))

    def test_pieces_out_of_row_major_order_are_refused(self, monkeypatch):
        # two adjacent pieces exchanged keep the marginals exact, so only the
        # order check sees them; a repeated cell is test_multiway's
        # TestDistinctCells::test_a_repeated_cell_is_refused
        real = _native.fill

        def exchanged(*args, **kwargs):
            return tuple(x[[1, 0, *range(2, x.size)]] for x in real(*args, **kwargs))

        p, q = make_probvec([0.6, 0.4]), make_probvec([0.5, 0.5])
        assert min_entropy_coupling(p, q).vals.size == 3
        monkeypatch.setattr(_native, "fill", exchanged)
        with pytest.raises(InternalInvariant, match="row-major"):
            min_entropy_coupling(p, q)

    def test_traced_peak_at_most_two_and_a_half_times_the_pieces(self):
        # the kernel's buffers of 2m cells and its FIFO of m, with m <= n
        # positive meet components, set the peak, about twice the pieces'
        # bytes: not a dense matrix, Python lists of the pieces or a sort
        rng = np.random.default_rng(34)
        p, q = (make_probvec(v) for v in rng.dirichlet(np.ones(10_000), size=2))
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cm = min_entropy_coupling(p, q)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        pieces = cm.rows.nbytes + cm.cols.nbytes + cm.vals.nbytes
        assert peak <= 2.5 * pieces, (peak, pieces, peak / pieces)

    def test_dense_forms_refused_above_the_cap(self):
        side = int(np.sqrt(MATRIX_CELL_CAP)) + 1
        rng = np.random.default_rng(33)
        cm = min_entropy_coupling(
            make_probvec(rng.dirichlet(np.ones(side))),
            make_probvec(rng.dirichlet(np.ones(side))),
        )
        assert cm.n * cm.n > MATRIX_CELL_CAP
        assert cm.entropy() > 0.0
        with pytest.raises(InstanceTooLarge):
            cm.matrix
        with pytest.raises(InstanceTooLarge):
            cm.in_original_order()

    def test_dense_forms_refused_one_cell_above_the_cap_before_allocating(self, monkeypatch):
        cm = min_entropy_coupling(make_probvec([0.5, 0.3, 0.2]), make_probvec([0.6, 0.4]))
        allocated = spy_on_zeros(monkeypatch)
        monkeypatch.setattr("mecouple.pairwise.MATRIX_CELL_CAP", 8)
        with pytest.raises(InstanceTooLarge):
            cm.matrix
        with pytest.raises(InstanceTooLarge):
            cm.in_original_order()
        assert allocated == []
        monkeypatch.setattr("mecouple.pairwise.MATRIX_CELL_CAP", 9)
        assert cm.matrix.shape == cm.in_original_order().shape == (3, 3)
        assert allocated == [(3, 3), (3, 3)]

    def test_matrix_is_built_once_and_can_be_replaced(self):
        cm = min_entropy_coupling(make_probvec([0.5, 0.5]), make_probvec([0.6, 0.4]))
        assert cm.matrix is cm.matrix
        other = np.eye(2) / 2.0
        assert dataclasses.replace(cm, matrix=other).matrix is other
        with pytest.raises(dataclasses.FrozenInstanceError):
            cm.matrix = other

    def test_tiny_masses_conserve_total_or_raise(self):
        # one large mass plus 3000 masses below eps_zero against a uniform
        # marginal: each tiny diagonal part is dropped, 2.7e-9 of mass in all,
        # while every per-index deviation stays near 1e-12
        tol = DEFAULT_TOL
        raw_p = np.array([1.0 - 3000 * 0.9e-12] + [0.9e-12] * 3000)
        raw_q = np.full(3001, 1.0 / 3001)
        p, q = make_probvec(raw_p), make_probvec(raw_q)
        for a, b in ((p, q), (q, p)):
            try:
                cm = min_entropy_coupling(a, b)
            except MecoupleError:
                continue
            assert abs(cm.vals.sum() - 1.0) <= tol.eps_sum
            assert np.abs(np.bincount(cm.rows, weights=cm.vals, minlength=cm.n)
                          - a.values).max() <= tol.eps_sum
        try:
            joint = k_min_entropy_coupling([p, q, q])
        except MecoupleError:
            return
        assert abs(sum(v for v, _ in joint.entries) - 1.0) <= tol.eps_sum


class TestHeavyTails:
    @pytest.mark.xfail(strict=True, raises=InternalInvariant, reason="ROADMAP item 1")
    @pytest.mark.parametrize("seed", range(4))
    def test_dirichlet_tenth_pairs_couple_at_n_1e5(self, seed):
        # about a sixth of each vector's components are at or below eps_zero,
        # and the kernel drops the pieces there
        rng = np.random.default_rng(seed)
        p, q = (make_probvec(v) for v in rng.dirichlet(np.full(100_000, 0.1), size=2))
        assert min_entropy_coupling(p, q).nnz <= 2 * 100_000


class TestBounds:
    def test_hand_example(self):
        rep = bounds(make_probvec([0.5, 0.5]), make_probvec([0.6, 0.4]))
        assert rep.h_glb == pytest.approx(1.0, abs=1e-12)
        assert rep.joint_lower_classic == pytest.approx(1.0, abs=1e-12)
        assert rep.mi_upper_improved == pytest.approx(H_06_04, abs=1e-12)
        assert rep.mi_upper_classic == pytest.approx(H_06_04, abs=1e-12)

    def test_equal_marginals(self):
        p = make_probvec([0.7, 0.2, 0.1])
        rep = bounds(p, p)
        assert rep.h_glb == pytest.approx(entropy(p), abs=1e-12)
        assert rep.mi_upper_improved == pytest.approx(entropy(p), abs=1e-12)

    def test_point_mass_forces_zero_information(self):
        rep = bounds(make_probvec([1.0]), make_probvec([0.5, 0.5]))
        assert rep.h_glb == pytest.approx(1.0, abs=1e-12)
        assert rep.mi_upper_improved == pytest.approx(0.0, abs=1e-12)
        assert rep.joint_lower_classic == pytest.approx(1.0, abs=1e-12)

    def test_chains_random(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            p = random_probvec(rng, int(rng.integers(1, 20)))
            q = random_probvec(rng, int(rng.integers(1, 20)))
            rep = bounds(p, q)
            assert rep.joint_lower_classic <= rep.h_glb + 1e-12
            assert rep.h_glb <= rep.h_p + rep.h_q + 1e-12
            assert rep.mi_upper_improved <= rep.mi_upper_classic + 1e-12
            assert rep.mi_upper_improved >= -1e-12


class TestDistance:
    def test_identical_marginals(self):
        rng = np.random.default_rng(30)
        p = random_probvec(rng, 8)
        d = distance_interval(p, p)
        assert d.lower == pytest.approx(0.0, abs=1e-9)
        assert d.upper == pytest.approx(0.0, abs=1e-9)
        assert d.lower - 1e-9 <= 0.0 <= d.upper + 1e-9
        assert d.estimate == pytest.approx(d.lower + 1.0, abs=1e-12)

    def test_hand_example_with_exact_reference(self):
        p = make_probvec([0.5, 0.5])
        q = make_probvec([0.6, 0.4])
        d = distance_interval(p, q)
        assert d.lower == pytest.approx(0.0290494055453314, abs=1e-9)
        assert d.upper == pytest.approx(0.7509775004326937, abs=1e-9)
        opt, _ = exact_min_entropy(p, q)
        true_distance = 2.0 * opt - entropy(p) - entropy(q)
        assert d.lower - 1e-12 <= true_distance <= d.upper + 1e-12
        assert abs(d.estimate - true_distance) <= 1.0 + 1e-12

    def test_point_masses(self):
        d = distance_interval(make_probvec([1.0]), make_probvec([1.0]))
        assert d.lower == 0.0
        assert d.upper == 0.0

    def test_interval_width_random(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = random_probvec(rng, int(rng.integers(2, 16)))
            q = random_probvec(rng, int(rng.integers(2, 16)))
            d = distance_interval(p, q)
            assert d.lower <= d.upper + 1e-12
            assert d.upper - d.lower <= 2.0 + 1e-12
