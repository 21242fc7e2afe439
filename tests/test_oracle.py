import struct

import numpy as np
import pytest

from mecouple import (
    InstanceTooLarge,
    Tolerances,
    entropy,
    exact_min_entropy,
    glb,
    make_probvec,
    min_entropy_coupling,
)
from util import (
    enumerate_vertices,
    flatten_sorted,
    majorizes,
    random_probvec,
    reference_exact_min_entropy,
)

OPT_2X2 = 1.3609640474436812


class TestEnumerate:
    def test_2x2_contains_both_extreme_fills(self):
        vs = enumerate_vertices(make_probvec([0.5, 0.5]), make_probvec([0.6, 0.4]))
        mats = [v.matrix.tolist() for v in vs]
        assert any(np.allclose(m, [[0.5, 0.0], [0.1, 0.4]], atol=1e-12) for m in mats)
        assert any(np.allclose(m, [[0.1, 0.4], [0.5, 0.0]], atol=1e-12) for m in mats)

    def test_forced_instance(self):
        vs = enumerate_vertices(make_probvec([1.0]), make_probvec([1.0]))
        assert len(vs) == 1
        assert vs[0].matrix.tolist() == [[1.0]]

    def test_symmetric_instance_has_both_permutation_supports(self):
        p = make_probvec([0.5, 0.5])
        mats = [v.matrix.tolist() for v in enumerate_vertices(p, p)]
        assert [[0.5, 0.0], [0.0, 0.5]] in mats
        assert [[0.0, 0.5], [0.5, 0.0]] in mats

    def test_every_fill_is_a_small_support_coupling(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            p = random_probvec(rng, n)
            q = random_probvec(rng, m)
            z = glb(p, q).meet
            for v in enumerate_vertices(p, q):
                assert np.abs(v.matrix.sum(axis=1) - p.values).max() <= 1e-9
                assert np.abs(v.matrix.sum(axis=0) - q.values).max() <= 1e-9
                assert v.support_size <= n + m - 1
                flat = flatten_sorted(v.matrix)
                assert majorizes(p, flat)
                assert majorizes(q, flat)
                assert majorizes(z, flat)

    def test_cap(self):
        rng = np.random.default_rng(61)
        with pytest.raises(InstanceTooLarge):
            enumerate_vertices(random_probvec(rng, 6), random_probvec(rng, 6))


class TestExactMinimum:
    def test_hand_instance(self):
        opt, vc = exact_min_entropy(make_probvec([0.5, 0.5]), make_probvec([0.6, 0.4]))
        assert opt == pytest.approx(OPT_2X2, abs=1e-12)
        assert vc.entropy() == pytest.approx(opt, abs=1e-9)
        assert sorted(vc.matrix.ravel(), reverse=True)[:3] == pytest.approx(
            [0.5, 0.4, 0.1], abs=1e-12
        )

    def test_equal_marginals(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            p = random_probvec(rng, int(rng.integers(2, 5)))
            opt, _ = exact_min_entropy(p, p)
            assert opt == pytest.approx(entropy(p), abs=1e-9)

    def test_point_mass_side_forces_the_other(self):
        rng = np.random.default_rng(63)
        q = random_probvec(rng, 4)
        opt, _ = exact_min_entropy(make_probvec([1.0]), q)
        assert opt == pytest.approx(entropy(q), abs=1e-9)

    def test_matches_full_enumeration(self):
        rng = np.random.default_rng(64)
        for _ in range(25):
            p = random_probvec(rng, int(rng.integers(2, 5)))
            q = random_probvec(rng, int(rng.integers(2, 5)))
            opt, _ = exact_min_entropy(p, q)
            brute = min(v.entropy() for v in enumerate_vertices(p, q))
            assert opt == pytest.approx(brute, abs=1e-9)

    def test_bracketed_by_meet_and_construction(self):
        rng = np.random.default_rng(65)
        for _ in range(60):
            p = random_probvec(rng, int(rng.integers(2, 5)))
            q = random_probvec(rng, int(rng.integers(2, 5)))
            opt, _ = exact_min_entropy(p, q)
            h_meet = entropy(glb(p, q).meet)
            h_built = min_entropy_coupling(p, q).entropy()
            assert h_meet - 1e-9 <= opt <= h_built + 1e-9
            assert h_built <= h_meet + 1.0 + 1e-9

    def test_cap(self):
        rng = np.random.default_rng(66)
        with pytest.raises(InstanceTooLarge):
            exact_min_entropy(random_probvec(rng, 8), random_probvec(rng, 3))


def _reference_draws(rng: np.random.Generator):
    """Raw marginal pairs for the reference comparison, n + m <= 8 but three.

    The draws after the size-drawn ones reach each way a search can end: a
    line of length 1 on either side, a point mass on either side or just
    over 1 opposite 1.0, and a move whose residual falls to eps_zero or
    below, on either side. The three last, Dirichlet(1) at 5 x 4, 6 x 3 and
    7 x 2, give the search longer line lists to cut.
    """

    def sizes():
        n = int(rng.integers(2, 7))
        return n, int(rng.integers(2, 9 - n))

    def multiples(denominator: int, n: int) -> np.ndarray:
        cuts = np.sort(rng.integers(0, denominator + 1, size=n - 1))
        return np.diff(np.concatenate(([0], cuts, [denominator]))) / denominator

    for alpha in (1.0, 0.1):
        for _ in range(8):
            n, m = sizes()
            yield rng.dirichlet(np.full(n, alpha)), rng.dirichlet(np.full(m, alpha))
    for denominator in (64, 8):
        for _ in range(8):
            n, m = sizes()
            yield multiples(denominator, n), multiples(denominator, m)
    for n, m in ((4, 4), (3, 4), (2, 6), (5, 2)):
        yield np.full(n, 1 / n), np.full(m, 1 / m)
        point = np.zeros(n)
        point[int(rng.integers(n))] = 1.0
        yield point, rng.dirichlet(np.ones(m))
    single = rng.dirichlet(np.ones(5))
    yield np.ones(1), single
    yield single, np.ones(1)
    point = np.zeros(4)
    point[int(rng.integers(4))] = 1.0
    yield rng.dirichlet(np.ones(3)), point
    near = np.array([0.5 + 4e-13, 0.5 - 4e-13])
    yield np.full(2, 0.5), near
    yield near, np.full(2, 0.5)
    yield np.ones(1), np.ones(1)
    yield np.array([1.0 + 2.0**-52]), np.ones(1)
    for n, m in ((5, 4), (6, 3), (7, 2)):
        yield rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))


class TestReference:
    def test_matches_the_rekeying_dp_bit_for_bit(self):
        for raw_p, raw_q in _reference_draws(np.random.default_rng(67)):
            p, q = make_probvec(raw_p), make_probvec(raw_q)
            opt, vc = exact_min_entropy(p, q)
            ref_opt, ref_vc = reference_exact_min_entropy(p, q)
            # bytes, so that a -0.0 optimum or cell differs from 0.0
            assert struct.pack("<d", opt) == struct.pack("<d", ref_opt), (raw_p, raw_q)
            assert vc.matrix.tobytes() == ref_vc.matrix.tobytes(), (raw_p, raw_q)
            assert vc.support_size == ref_vc.support_size

    def test_a_residual_of_exactly_eps_zero_retires_its_line(self):
        # 0.921875 - 0.90625 is exactly eps_zero, and the optimal fill takes
        # that move: it retires the column and, with it, the row left at
        # eps_zero (then the same with rows and columns swapped)
        tol = Tolerances(eps_sum=0.5, eps_zero=2.0**-6)
        two = make_probvec([0.921875, 0.078125])
        three = make_probvec([0.90625, 0.0625, 0.03125])
        for p, q in ((two, three), (three, two)):
            opt, vc = exact_min_entropy(p, q, tol)
            ref_opt, ref_vc = reference_exact_min_entropy(p, q, tol)
            assert struct.pack("<d", opt) == struct.pack("<d", ref_opt)
            assert vc.matrix.tobytes() == ref_vc.matrix.tobytes()
