"""Static functions of _fill.c that no entry point reaches on its own, called
through tests/fill_internals.c: that file includes _fill.c and exports thin
wrappers, and is built here with _native._CFLAGS into a shared object that
ctypes loads in this process.

- rounded(), the oracle's key rounding, is Python's round(x, KEY_DIGITS)
  bit for bit, the sign of zero included, on both of its paths: the
  division of nearbyint(x * 10**12) away from a rounding tie, and printing
  and reading back near one, above 2**40 / 10**12 or where x is not finite.
- fill() refuses segment boundaries that do not cut 1..n, which segments()
  never writes, so couple() cannot hand it any.
"""

import ctypes
import sys

import numpy as np
import pytest

from mecouple import _native
from mecouple.probvec import DEFAULT_TOL
from util import TESTS

BAD_SEGMENT = -3
KEY_DIGITS = _native.LIB.KEY_DIGITS
SCALE = 10.0**KEY_DIGITS
DOUBLES = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
INTS = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")


@pytest.fixture(scope="module")
def lib(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fill_internals") / "fill_internals.so")
    _native._compile(str(TESTS / "fill_internals.c"), out)
    lib = ctypes.CDLL(out)
    lib.round_each.argtypes = (DOUBLES, DOUBLES, ctypes.c_int64)
    lib.round_each.restype = None
    i64, real = ctypes.c_int64, ctypes.c_double
    lib.fill_on.argtypes = (DOUBLES, DOUBLES, DOUBLES, i64, INTS, i64, real, real, i64, i64,
                            INTS, INTS, DOUBLES, INTS, DOUBLES)
    lib.fill_on.restype = i64
    return lib


def _ulps_around(x: np.ndarray, count: int) -> np.ndarray:
    """x and each of its values moved by 1 to count ulps either way."""
    out, up, down = [x], x, x
    for _ in range(count):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def _rounding_inputs() -> np.ndarray:
    rng = np.random.default_rng(38)
    uniform = rng.random(100_000)
    k = rng.integers(0, 10**12, size=10_000).astype(np.float64)  # exact: below 2**53
    special = np.array([0.0, 5e-324, 1e-300, 5e-13 + 1e-22, 5e-13 - 1e-22, 2.0**40 / SCALE,
                        np.nextafter(2.0**40 / SCALE, 0.0), 1.5, 3.0, 1e15, 1e300,
                        sys.float_info.max])
    return np.concatenate((
        uniform, uniform**8, 1.0 + uniform[:20_000] * 2**20,  # large: printed
        _ulps_around(np.concatenate((k / SCALE, (k + 0.5) / SCALE)), 6),
        np.arange(2**20 + 1) / 2**20, np.arange(8193) / 8192,
        special, -special,
    ))


def test_rounded_is_pythons_round_bit_for_bit(lib):
    x = _rounding_inputs()
    got = np.empty_like(x)
    lib.round_each(x, got, x.size)
    want = np.array([round(v, KEY_DIGITS) for v in x.tolist()])
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, [(x[i].hex(), got[i].hex(), want[i].hex()) for i in differ[:5]]
    assert x.size >= 10**6
    # both paths ran, and the division ran on both sides of its margin
    with np.errstate(all="ignore"):
        y = x * SCALE
        off = np.abs(y - np.rint(y))
    fast = (np.abs(y) < 2.0**40) & (off < 0.5 - 2.0**-12)
    assert fast.sum() > 10**5 and (~fast).sum() > 10**4
    assert (fast & (off > 0.5 - 2.0**-11)).sum() > 1000
    assert (~fast & (off < 0.5)).sum() > 1000
    assert (np.signbit(want) & (want == 0.0)).any()  # -0.0, kept by both


A, B = np.array([0.5, 0.3, 0.2]), np.array([0.4, 0.4, 0.2])


def _fill(lib, idx) -> tuple:
    n = A.size
    z = _native.meet(A, B, DEFAULT_TOL.eps_zero)
    m = int((z > 0.0).sum())
    rows, cols, vals = np.empty(2 * n, np.int64), np.empty(2 * n, np.int64), np.empty(2 * n)
    idx = np.array(idx, np.int64)
    _, swapped = _native.segments(A, B, DEFAULT_TOL.eps_zero)
    count = lib.fill_on(A, B, z, n, idx, idx.size - 1, DEFAULT_TOL.eps_zero, DEFAULT_TOL.eps_sum,
                        swapped, m, rows, cols, vals, np.empty(3 * n, np.int64), np.zeros(2))
    return count, (rows[:count], cols[:count], vals[:count])


def test_fill_on_the_boundaries_segments_writes_gives_the_pieces_of_couple(lib):
    idx, _ = _native.segments(A, B, DEFAULT_TOL.eps_zero)
    count, pieces = _fill(lib, idx)
    want = _native.couple(A, B, DEFAULT_TOL)
    assert count == want[0].size > 0
    assert all(np.array_equal(x, y) for x, y in zip(pieces, want))


@pytest.mark.parametrize("idx", [
    (4,),          # k = 0
    (3, 1),        # idx[0] != n + 1
    (4, 2),        # idx[k] != 1
    (4, 2, 2, 1),  # a run that does not fall: an empty segment
    (4, 2, 3, 1),  # a run that rises
], ids=["k-0", "first-not-n+1", "last-not-1", "repeated", "rising"])
def test_fill_refuses_boundaries_that_do_not_cut_1_to_n(lib, idx):
    assert _fill(lib, idx)[0] == BAD_SEGMENT
