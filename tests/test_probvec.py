import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mecouple.multiway
from mecouple import (
    BadTotal,
    Empty,
    NegativeMass,
    ProbVec,
    ShrinkRequested,
    Tolerances,
    ValidationError,
    bounds,
    distance_interval,
    entropy,
    entropy_bits,
    glb,
    k_min_entropy_coupling,
    make_probvec,
    min_entropy_coupling,
    pad_to,
)
from mecouple.probvec import DEFAULT_TOL, STABLE_MAX
from util import (
    BadPartition,
    aggregate,
    comparable_pair,
    half,
    majorizes,
    random_probvec,
    reference_entropy_bits,
)

H_06_04 = 0.9709505944546686  # recomputed with 50-digit arithmetic


class TestMakeProbvec:
    def test_sorts_descending(self):
        p = make_probvec([0.4, 0.6])
        assert p.values.tolist() == [0.6, 0.4]
        assert p.perm.tolist() == [1, 0]

    def test_singleton(self):
        p = make_probvec([1.0])
        assert p.values.tolist() == [1.0]
        assert p.perm.tolist() == [0]

    def test_stable_tie_break_keeps_ascending_original_index(self):
        p = make_probvec([0.3, 0.3, 0.4])
        assert p.values.tolist() == [0.4, 0.3, 0.3]
        assert p.perm.tolist() == [2, 0, 1]

    def test_negative_mass(self):
        with pytest.raises(NegativeMass):
            make_probvec([-0.1, 1.1])

    def test_bad_total(self):
        with pytest.raises(BadTotal):
            make_probvec([0.5, 0.4])

    def test_empty(self):
        with pytest.raises(Empty):
            make_probvec([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            make_probvec([float("nan"), 1.0])

    def test_nested_input_rejected(self):
        with pytest.raises(ValidationError):
            make_probvec([[0.5, 0.5]])

    @pytest.mark.parametrize("build", [make_probvec, entropy_bits])
    @pytest.mark.parametrize("raw", [[10**400], ["a"], [1 + 0j]],
                             ids=["int-overflows-float", "string", "complex"])
    def test_entries_that_are_not_reals_are_refused(self, build, raw):
        # numpy's OverflowError, ValueError and TypeError, raised as one type
        with pytest.raises(ValidationError, match="not a vector of real numbers"):
            build(raw)

    @pytest.mark.parametrize("build", [make_probvec, entropy_bits])
    @pytest.mark.parametrize(
        "raw",
        [np.array([0.5 + 0.5j, 0.5]), np.array([0.5 + 0j, 0.5]), [np.complex128(0.5), 0.5]],
        ids=["complex-array", "complex-array-real-valued", "complex-scalar-in-a-list"],
    )
    def test_complex_entries_are_refused_without_a_warning(self, build, raw):
        # numpy would cast them to float, dropping the imaginary part with a
        # ComplexWarning only
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError, match="not a vector of real numbers"):
                build(raw)
        assert seen == []

    def test_tiny_negative_clamps_to_zero(self):
        p = make_probvec([1.0, -1e-13])
        assert p.values.tolist() == [1.0, 0.0]

    def test_total_is_not_rescaled(self):
        # 1e-6 off is outside the default tolerance: reject, never silently fix
        with pytest.raises(BadTotal):
            make_probvec([0.5, 0.500001])
        loose = Tolerances(eps_sum=1e-3, eps_zero=1e-12)
        p = make_probvec([0.5, 0.500001], loose)
        assert math.isclose(sum(p.values), 1.000001)

    def test_in_original_order_roundtrip(self):
        raw = [0.1, 0.6, 0.3]
        p = make_probvec(raw)
        assert np.allclose(p.in_original_order(), raw)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=20)
        .filter(lambda xs: sum(xs) > 1e-6)
    )
    @settings(max_examples=200, deadline=None)
    def test_fuzz_invariants(self, xs):
        raw = np.asarray(xs) / sum(xs)
        p = make_probvec(raw)
        assert all(p.values[i] >= p.values[i + 1] for i in range(p.n - 1))
        assert abs(sum(p.values) - 1.0) <= 1e-9
        assert all(v >= 0.0 for v in p.values)
        assert sorted(p.perm) == list(range(p.n))
        # sorted values at perm positions reproduce the raw input
        assert np.allclose(p.in_original_order(), raw)


class TestArrayContract:
    def test_values_and_perm_are_read_only_arrays(self):
        p = make_probvec([0.1, 0.6, 0.3])
        built = [
            p,
            ProbVec([0.6, 0.4], [1, 0]),
            pad_to(p, 5),
            glb(p, make_probvec([0.5, 0.5])).meet,
            half(p),
        ]
        for vec in built:
            assert isinstance(vec.values, np.ndarray) and vec.values.dtype == np.float64
            assert isinstance(vec.perm, np.ndarray) and vec.perm.dtype == np.intp
            assert not vec.values.flags.writeable
            assert not vec.perm.flags.writeable
            with pytest.raises(ValueError):
                vec.values[0] = 0.5
            with pytest.raises(ValueError):
                vec.perm[0] = 0

    def test_caller_arrays_are_copied(self):
        values = np.array([0.6, 0.4])
        perm = np.array([1, 0])
        p = ProbVec(values, perm)
        values[0] = 0.9
        perm[:] = [0, 1]
        assert p.values.tolist() == [0.6, 0.4]
        assert p.perm.tolist() == [1, 0]
        raw = np.array([0.1, 0.6, 0.3])
        q = make_probvec(raw)
        raw[:] = [1.0, 0.0, 0.0]
        assert q.values.tolist() == [0.6, 0.3, 0.1]
        assert q.perm.tolist() == [1, 2, 0]

    @pytest.mark.parametrize(
        "values, perm",
        [
            ([0.5, 0.5], [0, 0]),                # duplicate
            ([0.5, 0.5], [-1, 0]),               # negative
            ([0.5, 0.5], [0, 2]),                # out of range
            ([0.5, 0.3, 0.2], [0, 1]),           # length mismatch
            ([[0.5, 0.5]], [[0, 1]]),            # 2-D values
            ([0.5, 0.5], [0.0, 1.0]),            # non-integer perm
            ([float("nan"), 1.0], [0, 1]),       # non-finite mass
            ([float("inf"), 0.0], [0, 1]),
            ([1.0, -float("inf")], [0, 1]),
        ],
    )
    def test_malformed_input_is_rejected(self, values, perm):
        with pytest.raises(ValidationError):
            ProbVec(values, perm)

    @pytest.mark.parametrize("values", [["a"], [10**400], [1j]],
                             ids=["string", "int-overflows-float", "complex"])
    def test_values_that_are_not_reals_are_refused_typed(self, values):
        # numpy's ValueError, OverflowError and TypeError, raised as one type
        with pytest.raises(ValidationError, match="not a vector of real numbers"):
            ProbVec(values, [0])

    def test_negative_mass_is_rejected(self):
        with pytest.raises(NegativeMass):
            ProbVec([1.1, -0.1], [0, 1])

    def test_coupling_keeps_the_input_perm_arrays(self):
        p = make_probvec([0.1, 0.6, 0.3])
        q = make_probvec([0.5, 0.25, 0.25])
        cm = min_entropy_coupling(p, q)
        assert cm.row_perm is p.perm and cm.col_perm is q.perm


@st.composite
def raw_vectors(draw) -> np.ndarray:
    """A raw vector of length 1..80 that make_probvec accepts (raw_vector)."""
    n = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(("dirichlet", "ties64", "levels64", "uniform", "point", "zeros")))
    return raw_vector(kind, n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def raw_vector(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet(1), exact 1/64 ties (multiples of 1/64, mostly zeros once
    n passes 64), 64 levels in shuffled positions (each component one of
    1..64 over their sum, so about n/64 ties per level), the uniform vector,
    a point mass, or a Dirichlet support padded by 0.0, -0.0 and components
    in [-eps_zero, 0)."""
    if kind == "dirichlet":
        return rng.dirichlet(np.ones(n))
    if kind == "ties64":
        return rng.multinomial(64, np.full(n, 1.0 / n)) / 64.0
    if kind == "levels64":
        levels = rng.integers(1, 65, size=n)
        return levels / levels.sum()
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    v = np.zeros(n)
    if kind == "point":
        v[rng.integers(n)] = 1.0
        return v
    support = rng.random(n) < 0.5
    support[rng.integers(n)] = True
    v[support] = rng.dirichlet(np.ones(int(support.sum())))
    rest = np.flatnonzero(~support)
    v[rest] = rng.choice([0.0, -0.0, -1e-13, -DEFAULT_TOL.eps_zero], size=rest.size)
    return v


def assert_sorted_as_stable_sort(raw: np.ndarray, v: ProbVec) -> None:
    """v's perm, and its values bit for bit, are the stable sort's of raw
    clamped at zero: ties, 0.0 and -0.0 included, in ascending index."""
    arr = np.where(raw < 0.0, 0.0, raw)  # -0.0 is not below 0.0, so it stays
    order = (-arr).argsort(kind="stable")
    assert np.array_equal(v.perm, order)
    assert v.values.tobytes() == arr[order].tobytes()


def assert_passes_public_constructor(v: ProbVec) -> None:
    assert v.values.dtype == np.float64 and v.values.ndim == 1
    assert v.perm.dtype == np.intp
    assert not v.values.flags.writeable and not v.perm.flags.writeable
    assert np.array_equal(np.sort(v.perm), np.arange(v.n))
    again = ProbVec(v.values, v.perm)
    assert again.values.tobytes() == v.values.tobytes()  # bit-equal, -0.0 included
    assert np.array_equal(again.perm, v.perm)


class TestValidatedOnce:
    """The vectors the package builds itself skip the constructor's copy and
    checks; each must still be one the public constructor accepts."""

    @given(raw_vectors(), raw_vectors())
    @settings(max_examples=200, deadline=None)
    def test_package_built_vectors_pass_the_public_constructor(self, raw_p, raw_q):
        p, q = make_probvec(raw_p), make_probvec(raw_q)
        assert not np.shares_memory(p.values, raw_p)
        assert_sorted_as_stable_sort(raw_p, p)
        assert_sorted_as_stable_sort(raw_q, q)
        n = max(p.n, q.n)
        merge_inputs = []
        real = mecouple.multiway.min_entropy_coupling

        def spy(a, b, tol=DEFAULT_TOL):
            merge_inputs.extend((a, b))
            return real(a, b, tol)

        with mock.patch.object(mecouple.multiway, "min_entropy_coupling", spy):
            k_min_entropy_coupling([p, q, q, p, q])
        assert merge_inputs
        built = [p, q, glb(p, q).meet, pad_to(p, n), pad_to(q, n + 3), *merge_inputs]
        for v in built:
            assert_passes_public_constructor(v)

    @pytest.mark.parametrize("n", [2048, 70_000])
    @pytest.mark.parametrize("kind", ["dirichlet", "ties64", "levels64", "uniform", "zeros"])
    def test_large_vectors_sort_as_a_stable_sort(self, kind, n):
        raw = raw_vector(kind, n, np.random.default_rng([22, n]))
        assert_sorted_as_stable_sort(raw, make_probvec(raw))

    def test_no_internal_vector_is_rechecked(self, monkeypatch):
        rng = np.random.default_rng(13)
        raw = [rng.dirichlet(np.ones(int(rng.integers(8, 65)))) for _ in range(48)]
        ps = [make_probvec(v) for v in raw]
        checks = []
        real = ProbVec.__post_init__

        def counting(self):
            checks.append(self)
            real(self)

        monkeypatch.setattr(ProbVec, "__post_init__", counting)
        p, q = ps[0], ps[1]
        make_probvec(raw[0])
        pad_to(p, p.n + 4)
        glb(p, q)
        bounds(p, q)
        min_entropy_coupling(p, q)
        distance_interval(p, q)
        k_min_entropy_coupling(ps[:8])
        k_min_entropy_coupling(ps)
        assert checks == []
        ProbVec([0.6, 0.4], [1, 0])
        assert len(checks) == 1
        dataclasses.replace(p, values=p.values[::-1])
        assert len(checks) == 2


class TestSmallVectorSort:
    # make_probvec's order is argsort(kind="stable")'s: up to STABLE_MAX
    # components it sorts stably at once; above, it sorts with the default
    # argsort and puts tied runs back in index order by run keys

    @pytest.mark.parametrize("n", [STABLE_MAX - 1, STABLE_MAX, STABLE_MAX + 1])
    @pytest.mark.parametrize("kind", ["ties64", "uniform", "zeros"])
    def test_either_side_of_the_bound_sorts_as_a_stable_sort(self, kind, n):
        for seed in range(4):
            raw = raw_vector(kind, n, np.random.default_rng([23, n, seed]))
            assert_sorted_as_stable_sort(raw, make_probvec(raw))

    def sort_kinds(self, monkeypatch, raw: np.ndarray) -> list:
        """The kind of every argsort make_probvec runs on its negated input."""
        kinds = []

        class Key(np.ndarray):
            def argsort(self, *args, **kwargs):
                kinds.append(kwargs.get("kind"))
                return self.view(np.ndarray).argsort(*args, **kwargs)

        class Raw(np.ndarray):
            def __neg__(self):
                return np.negative(self.view(np.ndarray)).view(Key)

            def __getitem__(self, item):
                return self.view(np.ndarray)[item]

        real = mecouple.probvec._float_array
        monkeypatch.setattr(mecouple.probvec, "_float_array", lambda raw: real(raw).view(Raw))
        v = make_probvec(raw)
        monkeypatch.undo()
        assert_sorted_as_stable_sort(raw, v)
        return kinds

    @pytest.mark.parametrize("kind", ["dirichlet", "ties64", "uniform"])
    def test_one_stable_sort_up_to_the_bound_and_a_default_one_above(self, monkeypatch, kind):
        for n in (1, 36, STABLE_MAX):
            raw = raw_vector(kind, n, np.random.default_rng([24, n]))
            assert self.sort_kinds(monkeypatch, raw) == ["stable"]
        for n in (STABLE_MAX + 1, 2048):
            raw = raw_vector(kind, n, np.random.default_rng([24, n]))
            assert self.sort_kinds(monkeypatch, raw) == [None]


class TestPadTo:
    def test_pads_with_zeros(self):
        p = pad_to(make_probvec([1.0]), 3)
        assert p.values.tolist() == [1.0, 0.0, 0.0]
        assert p.perm.tolist() == [0, 1, 2]

    def test_noop(self):
        p = make_probvec([0.6, 0.4])
        assert pad_to(p, 2) is p

    def test_longer(self):
        p = pad_to(make_probvec([0.6, 0.4]), 4)
        assert p.values.tolist() == [0.6, 0.4, 0.0, 0.0]

    def test_shrink_rejected(self):
        with pytest.raises(ShrinkRequested):
            pad_to(make_probvec([0.6, 0.4]), 1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", None])
    def test_non_integer_length_rejected(self, n):
        with pytest.raises(ValidationError, match="is not an integer"):
            pad_to(make_probvec([0.6, 0.4]), n)

    def test_numpy_integer_length(self):
        p = pad_to(make_probvec([0.6, 0.4]), np.int64(4))
        assert p.values.tolist() == [0.6, 0.4, 0.0, 0.0]
        assert p.perm.tolist() == [0, 1, 2, 3]


@st.composite
def dirichlet_draws(draw):
    n = draw(st.integers(1, 4096))
    alpha = draw(st.sampled_from([0.1, 1.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.dirichlet(np.full(n, alpha)).tolist()


# multiples of 1/8 and zeros, some of the zeros written as -0.0
signed_zero_cells = st.lists(st.sampled_from([0.0, -0.0, 0.125, 0.25, 0.5]), max_size=16)


# a point mass at or just above 1.0, before or after a few zeros
point_mass_cells = st.builds(
    lambda mass, zeros, first: [mass] + [0.0] * zeros if first else [0.0] * zeros + [mass],
    st.sampled_from([1.0, float(np.nextafter(1.0, 2.0)), 1.0 + 4 * np.finfo(float).eps]),
    st.integers(0, 4),
    st.booleans(),
)
entropy_inputs = st.one_of(dirichlet_draws(), signed_zero_cells, point_mass_cells)


class TestEntropy:
    def test_fair_coin(self):
        assert entropy(make_probvec([0.5, 0.5])) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass(self):
        assert entropy(make_probvec([1.0])) == 0.0

    def test_biased_coin(self):
        assert entropy(make_probvec([0.6, 0.4])) == pytest.approx(H_06_04, abs=1e-12)

    def test_padding_leaves_entropy_unchanged(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_probvec(rng, int(rng.integers(1, 12)))
            assert entropy(pad_to(p, p.n + 5)) == entropy(p)


    def test_entropy_bits_accepts_arrays_sequences_and_generators(self):
        cells = [0.5, 0.25, 0.0, 0.25]
        arr = np.array(cells)
        assert entropy_bits(arr) == pytest.approx(1.5, abs=1e-15)
        assert entropy_bits(arr.reshape(2, 2)) == entropy_bits(arr)
        assert entropy_bits(cells) == entropy_bits(arr)
        assert entropy_bits(tuple(cells)) == entropy_bits(arr)
        assert entropy_bits(v for v in cells) == entropy_bits(arr)
        assert entropy_bits(np.zeros(3)) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(entropy_inputs, st.sampled_from(["array", "list", "tuple", "generator"]))
    def test_entropy_bits_matches_the_original_expression(self, values, form):
        def build():
            if form == "array":
                return np.array(values)
            if form == "generator":
                return (v for v in values)
            return {"list": list, "tuple": tuple}[form](values)

        assert entropy_bits(build()).hex() == reference_entropy_bits(build()).hex()


class TestMajorizes:
    def test_examples(self):
        a = make_probvec([0.6, 0.4])
        b = make_probvec([0.5, 0.5])
        assert majorizes(a, b)
        assert not majorizes(b, a)

    def test_point_mass_majorizes_everything_after_padding(self):
        assert majorizes(make_probvec([1.0]), make_probvec([0.5, 0.5]))

    def test_reflexive(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = random_probvec(rng, int(rng.integers(1, 16)))
            assert majorizes(p, p)

    def test_antisymmetric(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            a = random_probvec(rng, n)
            b = random_probvec(rng, n)
            if majorizes(a, b) and majorizes(b, a):
                assert np.allclose(a.values, b.values, atol=1e-12)

    def test_transitive_on_comparable_chains(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            mid, top = comparable_pair(rng, n)
            # bottom built from mid the same way mid was built from top
            avg = np.zeros(n)
            for _ in range(3):
                avg += np.asarray(mid.values)[rng.permutation(n)]
            bottom = make_probvec(avg / 3)
            assert majorizes(top, mid) and majorizes(mid, bottom)
            assert majorizes(top, bottom)

    def test_schur_concavity(self):
        # moving down the order can only increase entropy
        rng = np.random.default_rng(7)
        for _ in range(300):
            lower, upper = comparable_pair(rng, int(rng.integers(2, 16)))
            assert entropy(lower) >= entropy(upper) - 1e-12


class TestAggregate:
    def test_two_blocks(self):
        p = make_probvec([0.5, 0.3, 0.2])
        agg = aggregate(p, [{0}, {1, 2}])
        assert agg.values.tolist() == [0.5, 0.5]

    def test_single_block(self):
        p = make_probvec([0.5, 0.3, 0.2])
        assert aggregate(p, [{0, 1, 2}]).values.tolist() == [1.0]

    def test_interleaved_blocks(self):
        p = make_probvec([0.4, 0.3, 0.2, 0.1])
        assert aggregate(p, [{0, 3}, {1, 2}]).values.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize(
        "partition",
        [
            [{0}, {0, 1, 2}],  # overlap
            [{0}, {2}],        # gap
            [{0}, {1, 5}],     # out of range
            [set(), {0, 1, 2}],  # empty block
        ],
    )
    def test_bad_partitions(self, partition):
        p = make_probvec([0.5, 0.3, 0.2])
        with pytest.raises(BadPartition):
            aggregate(p, partition)

    def test_aggregation_always_majorizes(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            p = random_probvec(rng, n)
            labels = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
            blocks = [set(np.flatnonzero(labels == v)) for v in np.unique(labels)]
            blocks = [{int(i) for i in b} for b in blocks]
            assert majorizes(aggregate(p, blocks), p)


def test_tolerances_must_be_ordered():
    with pytest.raises(ValueError):
        Tolerances(eps_sum=1e-12, eps_zero=1e-9)
    with pytest.raises(ValueError):
        Tolerances(eps_sum=2.0, eps_zero=1e-12)
