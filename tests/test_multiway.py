import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mecouple._native
import mecouple.cli
import mecouple.multiway
import mecouple.probvec
from mecouple import (
    AxisOutOfRange,
    BadTotal,
    InstanceTooLarge,
    InternalInvariant,
    ProbVec,
    SparseJoint,
    TooFewMarginals,
    ValidationError,
    entropy,
    glb,
    k_min_entropy_coupling,
    make_probvec,
    marginalize,
    min_entropy_coupling,
    pad_to,
)
from mecouple.multiway import STABLE_MAX, _gather, _merge_tree, _pushed
from mecouple.probvec import DEFAULT_TOL, Tolerances, check_sorted_total
from util import (
    assert_distinct_cells,
    assert_same_pieces,
    check_piece_partition,
    half_pow,
    kernel_pieces,
    majorizes,
    oriented,
    random_probvec,
    reference_check_marginals,
    reference_couple_oriented,
    reference_k_entries,
    reference_node_coords,
    spy_on_zeros,
    unchecked_probvec,
)


def assert_gathered_coords(levels, k):
    """Every node's gathered coordinates: one row per real leaf it covers,
    equal to the composition of the merges below it."""
    for level, nodes in enumerate(levels):
        for i, node in enumerate(nodes):
            got = np.array(list(_gather(node, np.arange(node.values.size))))
            assert got.shape == (len(range(k)[i << level : (i + 1) << level]), node.values.size)
            assert np.array_equal(got, reference_node_coords(node))


def meet_of(ps):
    out = ps[0]
    for other in ps[1:]:
        out = glb(out, other).meet
    return out


class TestExamples:
    def test_two_marginals_match_pairwise_coupling(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            p = random_probvec(rng, int(rng.integers(2, 9)))
            q = random_probvec(rng, int(rng.integers(2, 9)))
            joint = k_min_entropy_coupling([p, q])
            cm = min_entropy_coupling(p, q)
            original = cm.in_original_order()
            cells = {
                (i, j): original[i, j]
                for i in range(original.shape[0])
                for j in range(original.shape[1])
                if original[i, j] > 0.0
            }
            assert {c: v for v, c in joint.entries} == pytest.approx(cells, abs=1e-15)

    def test_identical_marginals_concentrate_on_the_diagonal(self):
        p = make_probvec([0.1, 0.7, 0.2])
        joint = k_min_entropy_coupling([p, p, p, p])
        got = {c: v for v, c in joint.entries}
        assert got == pytest.approx(
            {(1, 1, 1, 1): 0.7, (2, 2, 2, 2): 0.2, (0, 0, 0, 0): 0.1}, abs=1e-12
        )
        assert joint.entropy() == pytest.approx(entropy(p), abs=1e-12)

    def test_point_mass_marginals_force_structure(self):
        ps = [make_probvec([1.0]), make_probvec([1.0]), make_probvec([0.5, 0.5])]
        joint = k_min_entropy_coupling(ps)
        got = {c: v for v, c in joint.entries}
        assert got == pytest.approx({(0, 0, 0): 0.5, (0, 0, 1): 0.5}, abs=1e-12)
        assert joint.entropy() == pytest.approx(1.0, abs=1e-12)

    def test_too_few(self):
        with pytest.raises(TooFewMarginals):
            k_min_entropy_coupling([make_probvec([1.0])])


class TestTailsAtOrBelowEpsZero:
    """Marginals equal within eps_zero couple on the diagonal; a tail mass
    opposite a zero must not land in that zero's line."""

    def test_tiny_mass_beside_a_shorter_marginal(self):
        p, q = make_probvec([6.666197322778975e-21, 0.9999999999999999]), make_probvec([1.0])
        cm = min_entropy_coupling(p, q)
        assert cm.cols.tolist() == [0] and cm.vals.tolist() == [0.9999999999999999]
        joint = k_min_entropy_coupling([p, q])
        assert joint.dims == (2, 1)
        assert joint.coords.tolist() == [[1], [0]]
        assert joint.values.tolist() == [0.9999999999999999]

    @pytest.mark.parametrize("k", [3, 5, 9])
    @pytest.mark.parametrize("tails", [(1e-12,), (5e-13, 2.5e-13), (6.666197322778975e-21,)])
    def test_equal_marginals(self, k, tails):
        p = make_probvec([1.0 - sum(tails), *tails])
        joint = k_min_entropy_coupling([p] * k)
        assert joint.coords.tolist() == [[0]] * k
        assert joint.values.tolist() == [p.values[0]]


class TestMarginalize:
    def test_diagonal_joint(self):
        p = make_probvec([0.5, 0.3, 0.2])
        joint = k_min_entropy_coupling([p, p, p])
        for axis in range(3):
            assert marginalize(axis, joint).values == pytest.approx(p.values, abs=1e-12)

    def test_grouping_sums(self):
        joint = SparseJoint(
            values=np.array([0.5, 0.3, 0.2]),
            coords=np.array([[0, 1, 1], [0, 0, 1]], dtype=np.int32),
            dims=(2, 2),
        )
        assert marginalize(0, joint).values == pytest.approx((0.5, 0.5), abs=1e-15)
        assert marginalize(1, joint).values == pytest.approx((0.8, 0.2), abs=1e-15)

    def test_single_entry(self):
        joint = SparseJoint(
            values=np.ones(1), coords=np.zeros((3, 1), dtype=np.int32), dims=(1, 1, 1)
        )
        for axis in range(3):
            assert marginalize(axis, joint).values.tolist() == [1.0]

    def test_axis_out_of_range(self):
        joint = SparseJoint(
            values=np.ones(1), coords=np.zeros((2, 1), dtype=np.int32), dims=(1, 1)
        )
        with pytest.raises(AxisOutOfRange):
            marginalize(2, joint)
        with pytest.raises(AxisOutOfRange):
            marginalize(-1, joint)

    def test_axis_that_is_not_an_integer(self):
        joint = k_min_entropy_coupling([make_probvec([0.5, 0.5])] * 3)
        with pytest.raises(AxisOutOfRange, match="not an integer"):
            marginalize(1.5, joint)
        assert marginalize(np.int64(1), joint).values.tolist() == [0.5, 0.5]


class TestConstructorChecks:
    @pytest.mark.parametrize(
        "coords, dims",
        [
            ([[0], [0]], (1, 1, 1)),  # a coordinate row too few
            ([[0], [0], [0]], (1, 1)),  # a coordinate row too many
            ([[0, 0], [0, 0]], (1, 1)),  # a column without a value
            ([[0], [5]], (1, 1)),  # past the end of axis 1
            ([[2], [0]], (2, 3)),  # axis 0's bound, not axis 1's
            ([[0], [-1]], (1, 1)),  # negative
            (np.zeros((2, 1)), (1, 1)),  # in range, but float64
        ],
    )
    def test_malformed_joint_is_rejected(self, coords, dims):
        # the dtype rides in the coords column: int32 unless the case is an array
        dtype = coords.dtype if isinstance(coords, np.ndarray) else np.int32
        with pytest.raises(InternalInvariant):
            SparseJoint(values=np.ones(1), coords=np.array(coords, dtype=dtype), dims=dims)

    def test_coordinates_checked_per_axis(self):
        joint = SparseJoint(
            values=np.ones(1), coords=np.array([[1], [2]], dtype=np.int32), dims=(2, 3)
        )
        assert joint.to_dense()[1, 2] == 1.0

    def test_dense_tensor_refused_one_cell_above_the_cap_before_allocating(self, monkeypatch):
        joint = k_min_entropy_coupling([make_probvec([0.5, 0.5]), make_probvec([0.6, 0.3, 0.1])])
        allocated = spy_on_zeros(monkeypatch)
        with pytest.raises(InstanceTooLarge):
            joint.to_dense(cap=5)
        assert allocated == []
        assert joint.to_dense(cap=6).sum() == pytest.approx(1.0, abs=1e-12)
        assert allocated == [(2, 3)]


class TestGuarantees:
    @pytest.mark.parametrize("k", [2, 3, 4, 8])
    def test_marginals_and_entropy_bound(self, k):
        rng = np.random.default_rng(41 + k)
        ceil_log_k = (k - 1).bit_length()
        for _ in range(40):
            ps = [random_probvec(rng, int(rng.integers(2, 9))) for _ in range(k)]
            joint = k_min_entropy_coupling(ps)
            n = max(p.n for p in ps)
            for axis, p in enumerate(ps):
                got = marginalize(axis, joint)
                assert np.allclose(
                    pad_to(got, n).values, pad_to(p, n).values, atol=1e-9
                )
            gap = joint.entropy() - entropy(meet_of(ps))
            assert -1e-9 <= gap <= ceil_log_k + 1e-9
            assert len(joint.entries) <= (1 << ceil_log_k) * n
            assert all(v > 0.0 for v, _ in joint.entries)

    def test_dense_tensor_reproduces_marginals(self):
        rng = np.random.default_rng(50)
        ps = [random_probvec(rng, 4) for _ in range(3)]
        joint = k_min_entropy_coupling(ps)
        dense = joint.to_dense()
        assert dense.shape == (4, 4, 4)
        assert dense.sum() == pytest.approx(1.0, abs=1e-9)
        for axis, p in enumerate(ps):
            axes = tuple(a for a in range(3) if a != axis)
            assert np.allclose(
                dense.sum(axis=axes), p.in_original_order(), atol=1e-9
            )

    def test_dense_cap(self):
        rng = np.random.default_rng(51)
        ps = [random_probvec(rng, 4) for _ in range(3)]
        joint = k_min_entropy_coupling(ps)
        with pytest.raises(InstanceTooLarge):
            joint.to_dense(cap=10)

    def test_merge_tree_majorization_chain(self):
        # each node's value vector dominates the halved meet of its leaves
        rng = np.random.default_rng(52)
        for k in (2, 4, 8):
            for _ in range(15):
                ps = [random_probvec(rng, int(rng.integers(2, 9))) for _ in range(k)]
                n = max(p.n for p in ps)
                padded = [pad_to(p, n) for p in ps]
                for level, nodes in enumerate(_merge_tree(ps)):
                    for i, node in enumerate(nodes):
                        leaf_meet = meet_of(padded[i << level : (i + 1) << level])
                        vec = make_probvec(node.values)
                        assert majorizes(vec, half_pow(leaf_meet, level))

    def test_each_merge_splits_meet_components_in_two(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            ps = [random_probvec(rng, int(rng.integers(2, 7))) for _ in range(4)]
            levels = list(_merge_tree(ps))
            for level_nodes in levels[:-1]:
                for left, right in zip(level_nodes[::2], level_nodes[1::2]):
                    n = max(len(left.values), len(right.values))
                    a, b, idx = oriented(
                        pad_to(make_probvec(left.values), n),
                        pad_to(make_probvec(right.values), n),
                    )
                    # the trace comes from the reference, whose pieces the kernel matches
                    trace = {}
                    pieces = reference_couple_oriented(a, b, DEFAULT_TOL, trace)
                    assert_same_pieces(kernel_pieces(a, b), pieces)
                    check_piece_partition(trace["meet"], trace)


def sixty_fourths(rng, n):
    """n multiples of 1/64 summing to exactly 1: exact ties and zeros."""
    cuts = np.sort(rng.integers(0, 65, size=n - 1))
    return make_probvec(np.diff(np.concatenate(([0], cuts, [64]))) / 64.0)


class TestArrayNativeTree:
    @pytest.mark.parametrize("k", [2, 3, 5, 8, 13, 17, 33, 47, 48, 65])
    def test_entries_equal_the_tuple_reference(self, k):
        rng = np.random.default_rng(60 + k)
        for trial in range(12 if k < 48 else 4):
            ps = []
            for _ in range(k):
                n = int(rng.integers(1, 10))
                if trial % 3 == 0:
                    ps.append(random_probvec(rng, n))
                elif trial % 3 == 1:
                    ps.append(sixty_fourths(rng, n))
                else:
                    gen = random_probvec if rng.random() < 0.5 else sixty_fourths
                    ps.append(gen(rng, n))
            joint = k_min_entropy_coupling(ps)
            assert_distinct_cells(joint)
            assert joint.entries == reference_k_entries(ps)

    def test_merges_skip_revalidation(self, monkeypatch):
        # merged values are sorted and checked already; every merge must still
        # go through the public pairwise coupling
        calls = {"make_probvec": 0, "min_entropy_coupling": 0}

        def spy(name):
            real = getattr(mecouple.multiway, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(mecouple.multiway, name, wrapper)

        spy("make_probvec")
        spy("min_entropy_coupling")
        rng = np.random.default_rng(70)
        k_min_entropy_coupling([random_probvec(rng, 6) for _ in range(8)])
        assert calls == {"make_probvec": 0, "min_entropy_coupling": 7}
        # 24 + 12 + 6 + 3 + 2 + 1: the last node of the 3-node level meets a point mass
        calls["min_entropy_coupling"] = 0
        k_min_entropy_coupling([random_probvec(rng, 6) for _ in range(48)])
        assert calls == {"make_probvec": 0, "min_entropy_coupling": 48}

    def test_tree_holds_the_real_leaves_only(self):
        rng = np.random.default_rng(72)
        k = 48
        levels = list(_merge_tree([random_probvec(rng, 6) for _ in range(k)]))
        assert [len(nodes) for nodes in levels] == [48, 24, 12, 6, 3, 2, 1]
        assert_gathered_coords(levels, k)

    def test_unsorted_or_short_input_is_rejected(self):
        good = make_probvec([0.6, 0.4])
        unsorted = ProbVec((0.2, 0.3, 0.5), (0, 1, 2))
        # the leaf drops the zero, so only the entry check sees this one
        zero_inside = ProbVec((0.5, 0.0, 0.5), (0, 1, 2))
        short = ProbVec((0.5, 0.3), (0, 1))
        for ps in ([unsorted, good, good], [good, good, unsorted], [zero_inside, good]):
            with pytest.raises(ValidationError) as info:
                k_min_entropy_coupling(ps)
            assert not isinstance(info.value, BadTotal)
        for ps in ([short, good], [good, good, short]):
            with pytest.raises(BadTotal):
                k_min_entropy_coupling(ps)

    def test_root_check_fails_on_a_nan_marginal(self, monkeypatch):
        # behind the entry check: the leaf drops the NaN, so the tree builds a
        # joint whose axis-0 marginal is (0, 1); only the root check sees it
        monkeypatch.setattr(mecouple.probvec, "check_sorted_total", lambda *args: None)
        p = unchecked_probvec((float("nan"), 1.0), (0, 1))
        with pytest.raises(InternalInvariant):
            k_min_entropy_coupling([p, make_probvec([0.5, 0.5])])

    def test_coords_are_leaf_major(self):
        # dtype and C order are checked on the joint's coords, the one array
        # written (test_arrays_are_read_only_and_leaf_major)
        rng = np.random.default_rng(71)
        for k in (2, 3, 5, 6, 48, 65):
            ps = [random_probvec(rng, 5) for _ in range(k)]
            levels = list(_merge_tree(ps))
            assert_gathered_coords(levels, k)
            (root,) = levels[-1]
            assert np.array_equal(reference_node_coords(root), k_min_entropy_coupling(ps).coords)

    def test_traced_peak_at_most_twice_the_result(self):
        # the tree keeps merge indices, not coordinates, and the joint keeps no node
        rng = np.random.default_rng(73)
        ps = [make_probvec(v) for v in rng.dirichlet(np.ones(64), size=129)]
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            joint = k_min_entropy_coupling(ps)
            peak = tracemalloc.get_traced_memory()[1] - base
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            if started:
                tracemalloc.stop()
        result = joint.values.nbytes + joint.coords.nbytes
        assert peak <= 2.0 * result, (peak, result, peak / result)
        assert kept <= 1.05 * result, (kept, result, kept / result)


# 1/64 ties (one to nine components), point masses, and arbitrary positive masses
marginals = st.one_of(
    st.lists(st.integers(0, 64), max_size=8).map(
        lambda cuts: np.diff([0, *sorted(cuts), 64]) / 64.0
    ),
    st.tuples(st.integers(1, 9), st.integers(0, 8)).map(
        lambda t: np.eye(t[0])[t[1] % t[0]]
    ),
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=9).map(
        lambda xs: np.array(xs) / sum(xs)
    ),
)


def edited_root(monkeypatch, edit):
    """Make k_min_entropy_coupling check a root whose values edit(values) changed;
    a later call replaces the edit."""

    def tree(ps, tol=DEFAULT_TOL):
        *levels, (root,) = _merge_tree(ps, tol)  # the module's own, imported unpatched
        yield from levels
        values = root.values.copy()
        edit(values)
        yield [dataclasses.replace(root, values=values)]

    monkeypatch.setattr(mecouple.multiway, "_merge_tree", tree)


def moved(src, dst, delta):
    """An edit that moves delta from cell src to cell dst; a NaN delta writes NaN at src."""
    def edit(values):
        if delta != delta:
            values[src] = delta
        else:
            values[src] -= delta
            values[dst] += delta
    return edit


def verdict(call) -> str:
    try:
        call()
    except InternalInvariant as exc:
        return str(exc).partition(" off by")[0]
    return "passed"


class TestTopDownRootCheck:
    # the root's values are pushed down the tree, one bincount per node, to
    # each leaf's marginal; util's reference_check_marginals is the check over
    # the gathered coordinates that it replaced

    def test_pushed_leaf_marginals_equal_the_gathered_rows(self):
        rng = np.random.default_rng(74)
        for k in (2, 3, 5, 48, 65):
            ps = [random_probvec(rng, int(rng.integers(1, 12))) for _ in range(k)]
            *_, (root,) = _merge_tree(ps)
            rows = list(_gather(root, np.arange(root.values.size)))
            pushed = list(_pushed(root, root.values))
            assert len(rows) == len(pushed) == k
            for p, row, (pick, mass) in zip(ps, rows, pushed):
                gathered = np.bincount(row, weights=root.values, minlength=p.n)
                down = np.bincount(pick, weights=mass, minlength=p.n)
                np.testing.assert_allclose(down, gathered, rtol=0, atol=1e-15)
                np.testing.assert_allclose(down, p.in_original_order(), rtol=0, atol=1e-12)

    def test_a_moved_root_value_is_refused_naming_its_axis(self, monkeypatch):
        rng = np.random.default_rng(75)
        ps = [random_probvec(rng, 6) for _ in range(5)]
        *_, (root,) = _merge_tree(ps)
        coords = reference_node_coords(root)
        for _ in range(20):
            src, dst = (int(c) for c in rng.choice(root.values.size, size=2, replace=False))
            # the first axis on which the two cells differ; cells are distinct
            axis = int(np.flatnonzero(coords[:, src] != coords[:, dst])[0])
            edited_root(monkeypatch, moved(src, dst, 1e-6))
            with pytest.raises(InternalInvariant, match=f"^axis {axis} marginal off by"):
                k_min_entropy_coupling(ps)

    def test_a_total_off_with_every_marginal_within_eps_sum_is_refused(self, monkeypatch):
        rng = np.random.default_rng(80)
        ps = [random_probvec(rng, 40) for _ in range(3)]
        *_, (root,) = _merge_tree(ps)
        coords = reference_node_coords(root)
        # three cells that share no index on any axis: each index moves by
        # 6e-10 at most, within eps_sum, while the total moves by 1.8e-9
        cells, used = [], [set() for _ in ps]
        for cell in range(root.values.size):
            if len(cells) < 3 and all(coords[a, cell] not in used[a] for a in range(len(ps))):
                cells.append(cell)
                for a in range(len(ps)):
                    used[a].add(coords[a, cell])
        assert len(cells) == 3

        def edit(values):
            values[cells] += 6e-10

        edited_root(monkeypatch, edit)
        with pytest.raises(InternalInvariant, match="^coupling mass"):
            k_min_entropy_coupling(ps)

    @pytest.mark.parametrize("delta", [1e-6, 1e-12, float("nan")])
    def test_same_verdict_as_the_gathered_check(self, monkeypatch, delta):
        rng = np.random.default_rng(76)
        ps = [random_probvec(rng, 7) for _ in range(6)]
        *_, (root,) = _merge_tree(ps)
        coords = reference_node_coords(root)
        margins = [p.in_original_order() for p in ps]
        verdicts = set()
        for _ in range(10):
            src, dst = (int(c) for c in rng.choice(root.values.size, size=2, replace=False))
            values = root.values.copy()
            moved(src, dst, delta)(values)
            expected = verdict(lambda: reference_check_marginals(coords, values, margins))
            edited_root(monkeypatch, moved(src, dst, delta))
            assert verdict(lambda: k_min_entropy_coupling(ps)) == expected
            verdicts.add(expected)
        # 1e-12 stays within eps_sum; a NaN fails the first axis
        assert verdicts == {"passed"} if delta == 1e-12 else "passed" not in verdicts
        if delta != delta:
            assert verdicts == {"axis 0 marginal"}


class TestMergeSort:
    # _merge's order is argsort(kind="stable")'s: up to STABLE_MAX pieces it
    # sorts stably at once; above, it sorts with the default argsort and
    # redoes the sort stably only on an exact tie

    def spy_on_sorts(self, monkeypatch) -> list:
        """The kind of every argsort _merge runs on its negated pieces."""
        kinds = []

        class Key(np.ndarray):
            def argsort(self, *args, **kwargs):
                kinds.append(kwargs.get("kind"))
                return self.view(np.ndarray).argsort(*args, **kwargs)

        class Pieces(np.ndarray):
            def __neg__(self):
                return np.negative(self.view(np.ndarray)).view(Key)

            def __getitem__(self, item):
                return self.view(np.ndarray)[item]

        real = mecouple.multiway.min_entropy_coupling

        def couple(p, q, tol):
            cm = real(p, q, tol)
            object.__setattr__(cm, "vals", cm.vals.view(Pieces))
            return cm

        monkeypatch.setattr(mecouple.multiway, "min_entropy_coupling", couple)
        return kinds

    def sorted_levels(self, monkeypatch, ps):
        """The tree's levels and the kinds of the sorts that built them,
        after checking every merge's order against a stable sort."""
        kinds = self.spy_on_sorts(monkeypatch)
        levels = list(_merge_tree(ps))
        monkeypatch.undo()
        for nodes in levels[1:]:
            for node in nodes:
                (lpick, left), (rpick, right) = node.parts
                cm = min_entropy_coupling(*(
                    ProbVec._adopt(child.values, np.arange(child.values.size))
                    for child in (left, right)))
                order = (-cm.vals).argsort(kind="stable")
                assert node.values.tobytes() == cm.vals[order].tobytes()
                assert np.array_equal(lpick, cm.rows[order])
                assert np.array_equal(rpick, cm.cols[order])
        return levels, kinds

    def test_small_merges_sort_stably_at_once(self, monkeypatch):
        rng = np.random.default_rng(77)
        ps = [sixty_fourths(rng, 9) if i % 2 else random_probvec(rng, 9) for i in range(6)]
        levels, kinds = self.sorted_levels(monkeypatch, ps)
        assert max(node.values.size for node in levels[-1]) <= STABLE_MAX
        # 3 + 2 + 1 merges
        assert kinds == ["stable"] * 6

    def test_large_distinct_pieces_are_sorted_once(self, monkeypatch):
        rng = np.random.default_rng(78)
        levels, kinds = self.sorted_levels(
            monkeypatch, [random_probvec(rng, 100) for _ in range(6)])
        assert min(node.values.size for nodes in levels[1:] for node in nodes) > STABLE_MAX
        assert kinds == [None] * 6

    def test_large_tied_pieces_are_sorted_again_stably(self, monkeypatch):
        # multiples of 1/1024: exact ties among more than 128 pieces
        rng = np.random.default_rng(79)
        ps = [make_probvec(rng.multinomial(1024, np.full(200, 1 / 200)) / 1024) for _ in range(6)]
        levels, kinds = self.sorted_levels(monkeypatch, ps)
        assert min(node.values.size for nodes in levels[1:] for node in nodes) > STABLE_MAX
        assert kinds == [None, "stable"] * 6


class TestLeafRecord:
    # a leaf keeps its marginal's make_probvec record, so the merge's entry
    # check skips it exactly when _check_entry skips the marginal

    def spy_on_checks(self, monkeypatch) -> list:
        seen = []

        def spy(values, tol=DEFAULT_TOL):
            seen.append(values.size)
            check_sorted_total(values, tol)

        monkeypatch.setattr(mecouple.probvec, "check_sorted_total", spy)
        return seen

    def test_leaves_carry_the_record_and_nodes_none(self):
        tol = Tolerances(1e-6, DEFAULT_TOL.eps_zero)
        ps = [make_probvec([0.5, 0.5, 0.0]), make_probvec([0.7, 0.3], tol),
              ProbVec((0.6, 0.4), (1, 0))]
        leaves, *levels = _merge_tree(ps)
        assert [leaf.checked_eps_sum for leaf in leaves] == [1e-9, 1e-6, float("inf")]
        assert all(node.checked_eps_sum == float("inf") for nodes in levels for node in nodes)

    def test_a_leaf_recorded_under_a_wider_eps_sum_is_rechecked(self, monkeypatch):
        seen = self.spy_on_checks(monkeypatch)
        raw = [0.5, 0.25, 0.125, 0.125, 0.0]
        exact = make_probvec([0.6, 0.4])
        k_min_entropy_coupling([exact, make_probvec(raw, Tolerances(1e-6, DEFAULT_TOL.eps_zero))])
        # at entry (5 values) and as a leaf (4: its zero is cut)
        assert seen == [5, 4]
        seen.clear()
        k_min_entropy_coupling([exact, make_probvec(raw)])
        assert seen == []

    def test_an_unrecorded_marginal_is_checked_at_its_leaf(self, monkeypatch):
        seen = self.spy_on_checks(monkeypatch)
        exact = make_probvec([0.6, 0.4])
        k_min_entropy_coupling([exact, ProbVec((0.5, 0.3, 0.2, 0.0), (3, 0, 1, 2))])
        assert seen == [4, 3]


class TestDistinctCells:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(marginals, min_size=2, max_size=40))
    def test_cells_are_distinct(self, raws):
        assert_distinct_cells(k_min_entropy_coupling([make_probvec(r) for r in raws]))

    def test_a_repeated_cell_is_refused(self, monkeypatch):
        # distinctness of the k-way cells rests on this check in every merge
        real = mecouple._native.couple

        def doubled(*args, **kwargs):
            rows, cols, vals = real(*args, **kwargs)
            half = vals[:1] / 2
            return (
                np.concatenate((rows, rows[:1])),
                np.concatenate((cols, cols[:1])),
                np.concatenate((half, vals[1:], half)),
            )

        monkeypatch.setattr(mecouple._native, "couple", doubled)
        p, q = make_probvec([0.6, 0.4]), make_probvec([0.5, 0.5])
        with pytest.raises(InternalInvariant, match="written twice"):
            min_entropy_coupling(p, q)
        with pytest.raises(InternalInvariant, match="written twice"):
            k_min_entropy_coupling([p, q])


def entries_cache(joint):
    return vars(joint)["_entries"]


class TestLazyEntries:
    def test_no_consumer_builds_entries(self, monkeypatch, capsys):
        rng = np.random.default_rng(80)
        ps = [random_probvec(rng, 4) for _ in range(3)]
        joint = k_min_entropy_coupling(ps)
        joint.entropy()
        for axis in range(3):
            marginalize(axis, joint)
        joint.to_dense()
        assert entries_cache(joint) is None
        made = []

        def spy(*args):
            made.append(k_min_entropy_coupling(*args))
            return made[-1]

        monkeypatch.setattr(mecouple.cli, "k_min_entropy_coupling", spy)
        for fmt in ("json", "text"):
            assert mecouple.cli.main(
                ["--format", fmt, "couple-k", "--dense", "0.5 0.5", "0.25 0.75", "1"]
            ) == 0
        capsys.readouterr()
        assert len(made) == 2 and all(entries_cache(j) is None for j in made)
        # built on the first read, then cached
        assert joint.entries is entries_cache(joint) is joint.entries

    def test_repr_leaves_entries_unbuilt(self):
        rng = np.random.default_rng(82)
        joint = k_min_entropy_coupling([random_probvec(rng, 64) for _ in range(48)])
        text = repr(joint)
        assert text == f"SparseJoint(k=48, cells={joint.values.size})"
        assert entries_cache(joint) is None

    def test_replace_keeps_the_given_entries(self):
        joint = k_min_entropy_coupling([make_probvec([0.5, 0.5]), make_probvec([0.75, 0.25])])
        moved = ((1.0, (0, 0)),)
        bad = dataclasses.replace(joint, entries=moved)
        assert bad.entries is moved
        assert bad.values is joint.values and bad.coords is joint.coords

    def test_arrays_are_read_only_and_leaf_major(self):
        rng = np.random.default_rng(81)
        joint = k_min_entropy_coupling([random_probvec(rng, 6) for _ in range(5)])
        assert joint.values.dtype == np.float64
        assert joint.coords.dtype == np.int32
        assert joint.coords.shape == (5, joint.values.size)
        assert joint.coords.flags.c_contiguous
        for arr in (joint.values, joint.coords):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[..., 0] = 0

    @pytest.mark.parametrize("k", [48, 64, 65])
    def test_coords_hold_no_padding_rows(self, k):
        rng = np.random.default_rng(k)
        joint = k_min_entropy_coupling([random_probvec(rng, 8) for _ in range(k)])
        coords = joint.coords
        assert coords.base is None or coords.base.shape[0] == k
        assert coords.flags.c_contiguous
        assert not coords.flags.writeable
