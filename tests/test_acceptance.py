"""End-to-end acceptance suite.

Each criterion prints one "criterion N (...): PASS|FAIL" line (run pytest
with -s to watch them) and then enforces its tolerances and runtime budget
with plain asserts.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from mecouple import (
    entropy,
    exact_min_entropy,
    glb,
    inversion_points,
    k_min_entropy_coupling,
    make_probvec,
    marginalize,
    min_entropy_coupling,
    pad_to,
)
from mecouple.lattice import meet_values
from mecouple.multiway import _merge_tree
from mecouple.probvec import DEFAULT_TOL
from golden13 import (
    COUPLING_CELLS13,
    INVERSIONS13,
    MEET13,
    P13,
    Q13,
    coupling_matrix13,
)
from util import (
    check_meet_segment_identities,
    check_segment_strips,
    comparable_pair,
    half,
    half_pow,
    majorizes,
    oriented,
    random_probvec,
)

OPT_2X2 = 1.3609640474436812


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{suffix}")


def meet_of(ps):
    out = ps[0]
    for other in ps[1:]:
        out = glb(out, other).meet
    return out


@pytest.fixture(scope="module")
def bulk_pairs():
    """10,000 random pairs shared by criteria 2 and 3."""
    rng = np.random.default_rng(8811)
    worst_dev = 0.0
    min_gap = math.inf
    max_gap = -math.inf
    support_ok = True
    start = time.perf_counter()
    for _ in range(10_000):
        n = int(rng.integers(2, 65))
        p = make_probvec(rng.dirichlet(np.ones(n)))
        q = make_probvec(rng.dirichlet(np.ones(n)))
        cm = min_entropy_coupling(p, q)
        dev = max(
            float(np.abs(cm.matrix.sum(axis=1) - p.values).max()),
            float(np.abs(cm.matrix.sum(axis=0) - q.values).max()),
        )
        worst_dev = max(worst_dev, dev)
        gap = cm.entropy() - entropy(glb(p, q).meet)
        min_gap = min(min_gap, gap)
        max_gap = max(max_gap, gap)
        support_ok = support_ok and cm.nnz <= 2 * n
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        worst_dev=worst_dev,
        min_gap=min_gap,
        max_gap=max_gap,
        support_ok=support_ok,
        elapsed=elapsed,
    )


@pytest.fixture(scope="module")
def eight_way_instances():
    """200 eight-marginal instances shared by criteria 5 and 6."""
    rng = np.random.default_rng(8855)
    out = []
    for _ in range(200):
        ps = [random_probvec(rng, int(rng.integers(2, 9))) for _ in range(8)]
        out.append((ps, list(_merge_tree(ps))))
    return out


def test_criterion_1_golden_instance():
    p = make_probvec(P13)
    q = make_probvec(Q13)

    z = glb(p, q).meet
    z_ok = bool(np.allclose(z.values, MEET13, atol=1e-12))

    ip = inversion_points(p, q)
    idx = ip.indices
    idx_ok = idx == INVERSIONS13 and not ip.swapped

    cm = min_entropy_coupling(p, q)
    matrix_ok = bool(np.allclose(cm.matrix, coupling_matrix13(), atol=1e-9))
    support_ok = cm.nnz == len(COUPLING_CELLS13)

    strips_ok = True
    try:
        check_segment_strips(cm.matrix, idx, np.asarray(MEET13), atol=1e-9)
    except AssertionError:
        strips_ok = False

    runtime = min(
        _timed(lambda: min_entropy_coupling(p, q)) for _ in range(3)
    )
    runtime_ok = runtime < 0.010

    ok = z_ok and idx_ok and matrix_ok and support_ok and strips_ok and runtime_ok
    report(1, "golden 13-component instance", ok, f"couple in {runtime * 1e3:.2f} ms")
    assert z_ok, "greatest lower bound deviates beyond 1e-12"
    assert idx_ok, f"inversion points {idx} != {INVERSIONS13}"
    assert matrix_ok, "coupling matrix deviates beyond 1e-9"
    assert support_ok
    assert strips_ok, "segment strips violate the two-piece structure"
    assert runtime_ok, f"couple took {runtime:.4f} s (budget 10 ms)"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_marginal_correctness(bulk_pairs):
    ok = bulk_pairs.worst_dev <= 1e-9 and bulk_pairs.elapsed < 30.0
    report(
        2,
        "marginal correctness on 10,000 pairs",
        ok,
        f"max dev {bulk_pairs.worst_dev:.2e}, {bulk_pairs.elapsed:.1f} s",
    )
    assert bulk_pairs.worst_dev <= 1e-9
    assert bulk_pairs.elapsed < 30.0, f"{bulk_pairs.elapsed:.1f} s (budget 30 s)"


def test_criterion_3_entropy_sandwich_and_support(bulk_pairs):
    gap_ok = bulk_pairs.min_gap >= -1e-12 and bulk_pairs.max_gap <= 1.0 + 1e-12
    ok = gap_ok and bulk_pairs.support_ok
    report(
        3,
        "one-bit sandwich and 2n support",
        ok,
        f"gap range [{bulk_pairs.min_gap:.2e}, {bulk_pairs.max_gap:.6f}]",
    )
    assert gap_ok
    assert bulk_pairs.support_ok


def test_criterion_4_oracle_agreement():
    rng = np.random.default_rng(8822)
    start = time.perf_counter()
    for _ in range(500):
        p = random_probvec(rng, int(rng.integers(2, 5)))
        q = random_probvec(rng, int(rng.integers(2, 5)))
        h_meet = entropy(glb(p, q).meet)
        opt, _ = exact_min_entropy(p, q)
        h_built = min_entropy_coupling(p, q).entropy()
        assert h_meet - 1e-9 <= opt <= h_built + 1e-9
        assert h_built <= h_meet + 1.0 + 1e-9
        assert h_built - opt <= 1.0 + 1e-9
    opt_hand, _ = exact_min_entropy(make_probvec([0.5, 0.5]), make_probvec([0.6, 0.4]))
    built_hand = min_entropy_coupling(
        make_probvec([0.5, 0.5]), make_probvec([0.6, 0.4])
    ).entropy()
    hand_ok = abs(opt_hand - OPT_2X2) <= 1e-9 and abs(built_hand - opt_hand) <= 1e-9
    elapsed = time.perf_counter() - start
    ok = hand_ok and elapsed < 60.0
    report(4, "exact-oracle agreement on 500 pairs", ok, f"{elapsed:.1f} s")
    assert hand_ok
    assert elapsed < 60.0, f"{elapsed:.1f} s (budget 60 s)"


def test_criterion_5_multiway_marginals_and_bound(eight_way_instances):
    rng = np.random.default_rng(8833)
    start = time.perf_counter()

    def check_instance(ps, k):
        joint = k_min_entropy_coupling(ps)
        n = max(p.n for p in ps)
        for axis, p in enumerate(ps):
            got = marginalize(axis, joint)
            assert np.allclose(pad_to(got, n).values, pad_to(p, n).values, atol=1e-9)
        gap = joint.entropy() - entropy(meet_of(ps))
        assert -1e-9 <= gap <= (k - 1).bit_length() + 1e-9

    for k in (2, 3, 4):
        for _ in range(200):
            check_instance(
                [random_probvec(rng, int(rng.integers(2, 9))) for _ in range(k)], k
            )
    for ps, _ in eight_way_instances:
        check_instance(ps, 8)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report(5, "multiway marginals and log-k bound", ok, f"{elapsed:.1f} s")
    assert elapsed < 60.0, f"{elapsed:.1f} s (budget 60 s)"


def test_criterion_6_merge_tree_chain(eight_way_instances):
    for ps, levels in eight_way_instances:
        n = max(p.n for p in ps)
        padded = [pad_to(p, n) for p in ps]
        for level in range(1, len(levels)):
            for i, node in enumerate(levels[level]):
                leaf_meet = meet_of(padded[i << level : (i + 1) << level])
                node_vec = make_probvec(node.values)
                assert majorizes(node_vec, half_pow(leaf_meet, level))
    report(6, "merge-tree majorization chain", True)


def test_criterion_7_halving_identities():
    rng = np.random.default_rng(8844)
    for _ in range(50):
        p = random_probvec(rng, int(rng.integers(1, 10)))
        for i in range(6):
            assert entropy(half_pow(p, i)) == pytest.approx(
                entropy(p) + i, abs=1e-12
            )
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        lower, upper = comparable_pair(rng, n)
        assert majorizes(half(upper), half(lower))
        for i in (1, 2, 3):
            lhs = half_pow(glb(lower, upper).meet, i)
            rhs = glb(half_pow(lower, i), half_pow(upper, i)).meet
            assert majorizes(rhs, lhs)
    report(7, "halving identities and order preservation", True)


def test_criterion_8_meet_identity_suite():
    rng = np.random.default_rng(8866)
    eps = DEFAULT_TOL.eps_zero
    for _ in range(1000):
        n = int(rng.integers(2, 33))
        p = random_probvec(rng, n)
        q = random_probvec(rng, n)
        g = glb(p, q)
        z = np.asarray(g.meet.values)
        assert np.all(np.diff(z) <= 1e-12)
        bound = np.minimum(np.cumsum(p.values), np.cumsum(q.values))
        assert np.allclose(np.cumsum(z), bound, atol=1e-12)
        a, b, idx = oriented(p, q)
        check_meet_segment_identities(a, b, idx, meet_values(a, b, eps), atol=1e-12)
    report(8, "meet identity suite on 1,000 pairs", True)


def test_criterion_9_complexity_smoke():
    rng = np.random.default_rng(8877)
    sizes = (512, 1024, 2048, 4096)
    timings = []
    for n in sizes:
        p = make_probvec(rng.dirichlet(np.ones(n)))
        q = make_probvec(rng.dirichlet(np.ones(n)))
        min_entropy_coupling(p, q)  # warm caches before timing
        best = min(_timed(lambda: min_entropy_coupling(p, q)) for _ in range(5))
        timings.append(best)
    slope = float(
        np.polyfit(np.log(np.asarray(sizes, float)), np.log(np.asarray(timings)), 1)[0]
    )
    largest = timings[-1]
    ok = slope <= 2.3 and largest < 5.0
    detail = ", ".join(f"n={n}: {t * 1e3:.1f} ms" for n, t in zip(sizes, timings))
    report(9, "at most quadratic scaling", ok, f"slope {slope:.2f}; {detail}")
    assert slope <= 2.3, f"fitted exponent {slope:.2f} exceeds 2.3"
    assert largest < 5.0, f"couple at n=4096 took {largest:.2f} s"
