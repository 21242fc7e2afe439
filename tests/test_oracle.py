import struct

import numpy as np
import pytest

from mecouple import (
    InstanceTooLarge,
    ProbVec,
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
from mecouple.oracle import DEFAULT_SIZE_CAP
from mecouple.probvec import DEFAULT_TOL

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


# p's first mass is t + a + b, where q = (a, b, 1 - a - b) and t is an odd
# multiple of 2**-13: filling a and b from it in either order leaves t or a
# float next to it, and the two take one memo key or two depending on how a
# tie is rounded. Each pair gives other bytes with ties rounded up.
TIE_NEIGHBOURS = (
    (("0x1.b9414c1b0e8bep-3", "0x1.0fea1dd63cca6p-1", "0x1.038b1e45ff254p-2"),
     ("0x1.dce29372d3e95p-4", "0x1.a6400986925cep-5", "0x1.a9ffacf93c5d0p-1")),
    (("0x1.5718c8e2ee87dp-2", "0x1.159d0c4748f2fp-3", "0x1.0f0c587cb67f6p-1"),
     ("0x1.ef88914492692p-3", "0x1.bda402052a9a2p-5", "0x1.68439b8e88bc2p-1")),
)


def assert_matches_reference(p, q, tol=DEFAULT_TOL, cap=DEFAULT_SIZE_CAP):
    opt, vc = exact_min_entropy(p, q, tol, cap)
    ref_opt, ref_vc = reference_exact_min_entropy(p, q, tol, cap)
    # bytes, so that a -0.0 optimum or cell differs from 0.0
    assert struct.pack("<d", opt) == struct.pack("<d", ref_opt), (p, q)
    assert vc.matrix.shape == ref_vc.matrix.shape
    assert vc.matrix.tobytes() == ref_vc.matrix.tobytes(), (p, q)
    assert vc.support_size == ref_vc.support_size
    return opt, vc


class TestReference:
    def test_matches_the_rekeying_dp_bit_for_bit(self):
        for raw_p, raw_q in _reference_draws(np.random.default_rng(67)):
            assert_matches_reference(make_probvec(raw_p), make_probvec(raw_q))

    def test_residuals_on_half_even_ties(self):
        # k / 8192 has 13 decimals and ends in 5 for odd k, so rounding it
        # to 12 decimals is an exact tie, which goes to the even digit; the
        # multiples of 2**-20 have 20 decimals and fall on and near ties too
        for p_hex, q_hex in TIE_NEIGHBOURS:
            assert_matches_reference(*(make_probvec([float.fromhex(x) for x in v])
                                       for v in (p_hex, q_hex)))
        rng = np.random.default_rng(68)
        for denominator in (8192, 2**20):
            for _ in range(8):
                n = int(rng.integers(2, 6))
                m = int(rng.integers(2, 9 - n))
                cuts = (np.sort(rng.integers(0, denominator + 1, size=k - 1)) for k in (n, m))
                p, q = (make_probvec(np.diff(np.concatenate(([0], c, [denominator]))) / denominator)
                        for c in cuts)
                assert_matches_reference(p, q)

    def test_marginals_with_negative_zero_components(self):
        # make_probvec keeps an input -0.0, so these searches start from -0.0
        # residuals, whose key word is that of 0.0, as round(-0.0, 12) ==
        # 0.0 in the reference's tuples; the same pairs with 0.0 in their
        # place give the same bytes
        rng = np.random.default_rng(70)
        support = rng.dirichlet(np.ones(3))
        pairs = (
            ([0.5, -0.0, 0.3, 0.2], [0.6, -0.0, 0.4]),
            ([-0.0, 0.25, 0.75], [0.125, -0.0, 0.375, -0.0, 0.5]),
            ([support[0], -0.0, support[1], -0.0, support[2]], rng.dirichlet(np.ones(3))),
        )
        for raw_p, raw_q in pairs:
            p, q = make_probvec(raw_p), make_probvec(raw_q)
            assert np.signbit(p.values).any()
            opt, vc = assert_matches_reference(p, q)
            plus = exact_min_entropy(*(make_probvec(np.abs(raw)) for raw in (raw_p, raw_q)))
            assert struct.pack("<d", plus[0]) == struct.pack("<d", opt)
            assert plus[1].matrix.tobytes() == vc.matrix.tobytes()

    def test_instances_above_the_default_cap(self):
        # n + m = 11 under a raised cap: every key holds 11 ids; thin shapes
        # keep the reference fast
        rng = np.random.default_rng(69)
        for n, m in ((10, 1), (1, 10)):
            p, q = make_probvec(rng.dirichlet(np.ones(n))), make_probvec(rng.dirichlet(np.ones(m)))
            assert_matches_reference(p, q, cap=11)
        uniform, pair = make_probvec(np.full(9, 1 / 9)), make_probvec(rng.dirichlet(np.ones(2)))
        assert_matches_reference(uniform, pair, cap=11)
        assert_matches_reference(pair, uniform, cap=11)

    def test_a_side_of_length_zero(self):
        empty = ProbVec(np.zeros(0), np.zeros(0, np.intp))
        q = make_probvec([0.5, 0.3, 0.2])
        for a, b, shape in ((empty, q, (0, 3)), (q, empty, (3, 0)), (empty, empty, (0, 0))):
            opt, vc = assert_matches_reference(a, b)
            assert struct.pack("<d", opt) == struct.pack("<d", 0.0)
            assert vc.matrix.shape == shape and vc.support_size == 0

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
