import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecouple import (
    ProbVec,
    entropy,
    glb,
    make_probvec,
    pad_to,
)
from mecouple.errors import InternalInvariant
from mecouple.lattice import meet_values
from golden13 import MEET13, P13, Q13
from util import (
    comparable_pair,
    enumerate_vertices,
    flatten_sorted,
    half,
    half_pow,
    majorizes,
    random_probvec,
    reference_glb,
    reference_meet_values,
    unchecked_probvec,
)

EPS_ZERO = 1e-12

# 1/64 ties and zeros, point masses, and arbitrary positive masses
masses = st.one_of(
    st.lists(st.integers(0, 64), max_size=12).map(
        lambda cuts: np.diff([0, *sorted(cuts), 64]) / 64.0
    ),
    st.tuples(st.integers(1, 9), st.integers(0, 8)).map(
        lambda t: np.eye(t[0])[t[1] % t[0]]
    ),
    st.lists(st.floats(0.001, 1.0), min_size=1, max_size=40).map(
        lambda xs: np.array(xs) / sum(xs)
    ),
)
# components at or below eps_zero, and micro-negatives (within eps_zero or beyond)
TINY = (EPS_ZERO, EPS_ZERO / 2, EPS_ZERO / 10, 0.0)
NEGATIVE = (-EPS_ZERO / 10, -EPS_ZERO / 2, -EPS_ZERO, -2 * EPS_ZERO)


@st.composite
def sorted_values(draw, negative: bool = False):
    """A non-increasing vector summing to 1 within eps_sum, with a tiny tail."""
    tail = draw(st.lists(st.sampled_from(TINY + NEGATIVE if negative else TINY), max_size=4))
    return -np.sort(-np.concatenate((draw(masses), tail)))


@st.composite
def equal_length_pairs(draw):
    """Two sorted_values(negative=True)-like vectors of one common length."""
    a, b = draw(masses), draw(masses)
    n = max(a.size, b.size)
    k = draw(st.integers(0, 4))
    tails = st.lists(st.sampled_from(TINY + NEGATIVE), min_size=k, max_size=k)
    return tuple(
        -np.sort(-np.concatenate((v, np.zeros(n - v.size), draw(tails)))) for v in (a, b)
    )


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def outcome(fn, *args):
    """fn's result, or the type of the MecoupleError it raised."""
    try:
        return fn(*args)
    except InternalInvariant as exc:
        return type(exc)


class TestGlb:
    def test_idempotent(self):
        p = make_probvec([0.5, 0.5])
        assert glb(p, p).meet.values.tolist() == [0.5, 0.5]

    def test_dominated_side_wins(self):
        p = make_probvec([0.6, 0.4])
        q = make_probvec([0.5, 0.5])
        assert glb(p, q).meet.values.tolist() == [0.5, 0.5]

    def test_golden_13(self):
        z = glb(make_probvec(P13), make_probvec(Q13)).meet
        assert np.allclose(z.values, MEET13, atol=1e-12)

    def test_prefix_min_identity_and_shape(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            n = int(rng.integers(1, 24))
            p = random_probvec(rng, n)
            q = random_probvec(rng, n)
            g = glb(p, q)
            z = np.asarray(g.meet.values)
            assert np.allclose(
                np.cumsum(z),
                np.minimum(np.cumsum(p.values), np.cumsum(q.values)),
                atol=1e-12,
            )
            # non-increasing without any re-sort
            assert np.all(np.diff(z) <= 1e-12)
            assert abs(z.sum() - 1.0) <= 1e-9
            assert majorizes(p, g.meet) and majorizes(q, g.meet)

    def test_commutative(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 16))
            p = random_probvec(rng, n)
            q = random_probvec(rng, n)
            assert glb(p, q).meet.values.tolist() == glb(q, p).meet.values.tolist()

    def test_unequal_lengths_pad(self):
        z = glb(make_probvec([1.0]), make_probvec([0.5, 0.5])).meet
        assert z.values.tolist() == [0.5, 0.5]

    def test_greatest_among_coupling_flattenings(self):
        # every vertex coupling, flattened and sorted, sits below the meet
        rng = np.random.default_rng(12)
        for _ in range(25):
            p = random_probvec(rng, int(rng.integers(2, 5)))
            q = random_probvec(rng, int(rng.integers(2, 5)))
            z = glb(p, q).meet
            for vertex in enumerate_vertices(p, q):
                assert majorizes(z, flatten_sorted(vertex.matrix))


class TestMeetBitIdentity:
    """The meet and glb give exactly the floats of their first formulation."""

    @settings(max_examples=300, deadline=None)
    @given(sorted_values(negative=True), sorted_values(negative=True))
    def test_meet_values(self, a, b):
        n = max(a.size, b.size)
        a, b = (np.concatenate((v, np.zeros(n - v.size))) for v in (a, b))
        got = outcome(meet_values, a, b, EPS_ZERO)
        want = outcome(reference_meet_values, a, b, EPS_ZERO)
        if isinstance(want, type):
            assert got is want
        else:
            assert same_bits(got, want)
            assert np.array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(sorted_values(), sorted_values())
    def test_glb(self, a, b):
        p, q = (ProbVec(v, np.arange(v.size)) for v in (a, b))
        g = glb(p, q)
        z = reference_glb(p, q)
        assert same_bits(g.meet.values, z)
        assert same_bits(g.meet.perm, np.arange(z.size))

    @settings(max_examples=200, deadline=None)
    @given(equal_length_pairs())
    def test_glb_with_micro_negative_components(self, pair):
        # equal lengths: a hand-built ProbVec with negatives is never padded
        p, q = (unchecked_probvec(v, np.arange(v.size)) for v in pair)
        got = outcome(glb, p, q)
        want = outcome(reference_glb, p, q)
        if isinstance(want, type):
            assert got is want
        else:
            assert same_bits(got.meet.values, want)

    def test_micro_negative_differences_are_clamped_or_refused(self):
        a = np.array([0.5, 0.5, -EPS_ZERO / 2])
        b = np.array([0.5, 0.5, 0.0])
        assert same_bits(meet_values(a, b, EPS_ZERO), np.array([0.5, 0.5, 0.0]))
        with pytest.raises(InternalInvariant):
            meet_values(np.array([0.5, 0.5, -2 * EPS_ZERO]), b, EPS_ZERO)


class TestHalf:
    def test_point_mass(self):
        assert half(make_probvec([1.0])).values.tolist() == [0.5, 0.5]

    def test_definition(self):
        assert half(make_probvec([0.6, 0.4])).values.tolist() == [0.3, 0.3, 0.2, 0.2]

    def test_adds_one_bit(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            p = random_probvec(rng, int(rng.integers(1, 20)))
            assert entropy(half(p)) == pytest.approx(entropy(p) + 1.0, abs=1e-12)

    def test_pow_examples(self):
        assert half_pow(make_probvec([1.0]), 2).values.tolist() == [0.25] * 4
        p = make_probvec([0.7, 0.3])
        assert half_pow(p, 0) is p
        assert entropy(half_pow(p, 3)) == pytest.approx(entropy(p) + 3.0, abs=1e-12)

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            half_pow(make_probvec([1.0]), -1)

    def test_preserves_majorization(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            lower, upper = comparable_pair(rng, int(rng.integers(2, 14)))
            assert majorizes(half(upper), half(lower))

    def test_commutes_with_meet_up_to_majorization(self):
        # halving the meet never climbs above the meet of the halvings
        rng = np.random.default_rng(15)
        for _ in range(150):
            n = int(rng.integers(2, 10))
            p = random_probvec(rng, n)
            q = random_probvec(rng, n)
            for i in (1, 2, 3):
                lhs = half_pow(glb(p, q).meet, i)
                rhs = glb(half_pow(p, i), half_pow(q, i)).meet
                assert majorizes(rhs, lhs)

    def test_half_of_padded_is_padded_half(self):
        p = make_probvec([0.6, 0.4])
        assert entropy(half(pad_to(p, 4))) == pytest.approx(entropy(half(p)), abs=1e-12)
