import numpy as np
import pytest

from mecouple import (
    entropy,
    glb,
    majorizes,
    make_probvec,
    pad_to,
)
from golden13 import MEET13, P13, Q13
from util import (
    comparable_pair,
    enumerate_vertices,
    flatten_sorted,
    half,
    half_pow,
    random_probvec,
)


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
                np.minimum(g.prefix_p, g.prefix_q),
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
