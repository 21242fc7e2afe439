"""Two-marginal coupling with entropy at most one bit above the minimum.

inversion_points orients the pair by one bit, swapped, set where b
exceeds a at the last component in which they differ, and cuts indices
n..1 into alternating runs ("segments"): in odd ones the suffix sums of
the marginal larger there dominate the other's, in even ones the reverse,
and a run ends where the sign of the suffix differences flips. The greedy
kernel, _fill, then walks the segments downward over the caller's pair:
each component z_j of the meet z = p ∧ q becomes a part on the diagonal
cell (j, j) plus a remainder carried toward the next index, and at a
segment boundary the carried remainders are flushed one index further.
Every output cell is therefore one of at most two pieces of some z_j,
which caps the joint entropy at H(z) + 1 bit and the support size at 2n,
while H(z) itself lower-bounds every coupling's entropy. The kernel's
loop, compiled from _fill.c, merges its ascending diagonal parts with its
remainders as it ends, so the pieces leave it row-major and no sort
follows.

The loop is built from _fill.c with the C compiler Python was built with
(sysconfig's CC) on the first import, and cached; see _load_fill.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import tempfile
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InstanceTooLarge, InternalInvariant, LengthMismatch
from .lattice import glb, meet_values
from .probvec import (
    DEFAULT_TOL,
    ProbVec,
    Tolerances,
    _check_entry,
    entropy,
    entropy_bits,
    _padded,
)

try:  # the builtin module: hashlib loads OpenSSL, a fifth of this package's import time
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

# -ffp-contract=off: GCC fuses a + b*c into an FMA by default, which would change floats
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _load_fill() -> ctypes.CDLL:
    """The library built from _fill.c, compiled on first use and cached in __pycache__.

    The file's name holds a key hashing the source, _CFLAGS and the machine,
    so an edited source gets its own build, and a process that finds the
    file only loads it. A build writes a temporary file and renames it into
    place. Where __pycache__ cannot be made or written, the library is built
    in a private temporary directory, removed once loaded, so each process
    builds it anew.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(here, "_fill.c")
    with open(source, "rb") as f:
        parts = (f.read(), " ".join(_CFLAGS).encode(), platform.machine().encode())
    key = sha256(b"\0".join(parts))
    cache = os.path.join(here, "__pycache__")
    path = os.path.join(cache, f"_fill.{key.hexdigest()[:16]}.so")
    if os.path.exists(path):
        return ctypes.CDLL(path)
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(".so", dir=cache)
    except OSError:
        with tempfile.TemporaryDirectory(prefix="mecouple-") as private:
            path = os.path.join(private, "_fill.so")
            _compile(source, path)
            return ctypes.CDLL(path)
    os.close(fd)
    try:
        _compile(source, tmp)
    except BaseException:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)
    return ctypes.CDLL(path)


def _compile(source: str, out: str) -> None:
    """Build source into the shared library out; ImportError, naming the command, if that fails."""
    import shlex
    import subprocess
    import sysconfig

    cmd = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_CFLAGS, "-o", out, source]
    try:
        subprocess.run(cmd, check=True, capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        raise ImportError(
            f"mecouple needs a C compiler: `{shlex.join(cmd)}` failed: {detail}"
        ) from None


# from_buffer refuses read-only arrays, so a ProbVec's values go in as addresses
# (arr.ctypes.data: ndpointer and data_as leave cyclic garbage on every call)
_DOUBLES, _INTS = ctypes.c_double.from_buffer, ctypes.c_int64.from_buffer
_DP, _IP = ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64)
_BAD = ctypes.c_double * 2  # once: each c_double * 2 makes a new type, cyclic garbage
_FILL = _load_fill().fill
_FILL.argtypes = (ctypes.c_void_p, ctypes.c_void_p, _DP, ctypes.c_int64, _IP, ctypes.c_int64,
                  ctypes.c_double, ctypes.c_double, ctypes.c_int, ctypes.c_int64,
                  _IP, _IP, _DP, _IP, _DP)  # as fill() in _fill.c
_FILL.restype = ctypes.c_int64


@dataclass(frozen=True)
class InversionPoints:
    """Decreasing index sequence splitting 1..n into dominance segments.

    indices is 1-based: indices[0] = n+1, indices[-1] = 1. Segment s
    (1-based) covers indices[s] .. indices[s-1]-1; odd segments are where
    the first marginal's suffix sums dominate, even segments the reverse.
    swapped records whether the two inputs were exchanged to make the last
    differing component belong to the larger side.
    """

    indices: tuple[int, ...]
    swapped: bool

    @property
    def k(self) -> int:
        return len(self.indices) - 1


MATRIX_CELL_CAP = 4096 * 4096


def _scatter(shape: tuple, index: tuple, values: np.ndarray, cap: int) -> np.ndarray:
    """Values at index in zeros of shape; InstanceTooLarge above cap cells, before allocating."""
    cells = math.prod(shape)
    if cells > cap:
        raise InstanceTooLarge(f"dense array needs {cells} cells, cap is {cap}")
    out = np.zeros(shape)
    out[index] = values
    return out


class _Derived:
    """Data descriptor for a dataclass field computed from the other fields.

    A value passed to the constructor is kept as given; otherwise build(obj)
    computes it on first read and caches it, an array read-only since every
    reader shares it. Class access returns None, which dataclasses takes as
    the field's default.
    """

    def __init__(self, build) -> None:
        self.build = build

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = f"_{name}"

    def __get__(self, obj, owner: type | None = None):
        if obj is None:
            return None
        value = obj.__dict__.get(self.slot)
        if value is None:
            value = obj.__dict__[self.slot] = self.build(obj)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.slot] = value


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Joint distribution of p and q, stored as its nonzero pieces.

    Piece i holds mass vals[i] at cell (rows[i], cols[i]) in sorted
    (non-increasing marginal) order; there are at most 2n pieces, listed
    row-major with each cell once, as min_entropy_coupling checks.
    row_perm/col_perm are the inputs' read-only perm arrays, mapping sorted
    positions back to the caller's indices. nnz counts pieces above
    eps_zero. The dense n x n matrix is built from the pieces only when
    .matrix is read, is cached and read-only, and is refused above
    MATRIX_CELL_CAP cells. A matrix passed to the constructor
    (dataclasses.replace passes the current one) is kept as given,
    unchecked against the pieces.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    row_perm: np.ndarray
    col_perm: np.ndarray
    nnz: int
    matrix: np.ndarray = _Derived(
        lambda cm: _scatter((cm.n, cm.n), (cm.rows, cm.cols), cm.vals, MATRIX_CELL_CAP)
    )

    @property
    def n(self) -> int:
        return self.row_perm.size

    def __repr__(self) -> str:
        return f"CouplingMatrix(n={self.n}, nnz={self.nnz})"

    def entropy(self) -> float:
        """Joint Shannon entropy in bits."""
        return entropy_bits(self.vals)

    def in_original_order(self) -> np.ndarray:
        """The dense matrix rearranged back to the callers' indexing."""
        index = (self.row_perm[self.rows], self.col_perm[self.cols])
        return _scatter((self.n, self.n), index, self.vals, MATRIX_CELL_CAP)


class BoundsReport(NamedTuple):
    """Entropy and mutual-information bounds derivable from marginals alone."""

    h_p: float
    h_q: float
    h_glb: float
    mi_upper_improved: float
    mi_upper_classic: float
    joint_lower_classic: float


class DistanceInterval(NamedTuple):
    """Certified interval for the entropic distance 2W - H(p) - H(q)."""

    lower: float
    upper: float
    estimate: float


def _inversion_indices(a: np.ndarray, b: np.ndarray, eps_zero: float) -> tuple[int, ...]:
    """Segment boundaries for an already-oriented pair (a dominates at the tail).

    Returns the minimal decreasing 1-based sequence n+1 = i_0 > ... > i_k = 1
    such that suffix sums of a dominate b's throughout odd segments and the
    reverse throughout even segments. Read downward from a virtual
    non-negative sign above index n, a segment ends wherever the sign of the
    suffix differences beyond eps_zero flips; smaller ones extend any segment.
    """
    d = (a - b)[::-1].cumsum()  # d[t]: suffix sum of a - b from index n - t
    t = (np.abs(d) > eps_zero).nonzero()[0]
    neg = np.zeros(t.size + 1, dtype=bool)  # neg[0]: the virtual sign above n
    neg[1:] = d[t] < 0.0
    return (len(a) + 1, *(len(a) + 1 - t[neg[1:] != neg[:-1]]).tolist(), 1)


def _orient(a: np.ndarray, b: np.ndarray, eps: float) -> InversionPoints | None:
    """inversion_points of the value arrays a, b; None if no component differs beyond eps."""
    differ = np.abs(a - b) > eps
    if not np.count_nonzero(differ):
        return None
    last = differ.size - 1 - int(differ[::-1].argmax())
    swapped = bool(a[last] < b[last])
    if swapped:
        a, b = b, a
    return InversionPoints(_inversion_indices(a, b, eps), swapped)


def inversion_points(p: ProbVec, q: ProbVec, tol: Tolerances = DEFAULT_TOL) -> InversionPoints:
    """Dominance segments of a pair of equal-length distributions.

    The pair is oriented first: if the largest index where the components
    differ has p below q, the roles are exchanged and swapped is set.
    min_entropy_coupling takes the orientation and the segments from the same
    code. Inputs with no component differing beyond eps_zero are equal, as
    min_entropy_coupling's diagonal shortcut judges them: a single segment,
    indices (n+1, 1), not swapped.
    """
    if p.n != q.n:
        raise LengthMismatch(f"lengths differ: {p.n} vs {q.n}; pad first")
    return _orient(p.values, q.values, tol.eps_zero) or InversionPoints((p.n + 1, 1), False)


def _fill(
    a: np.ndarray, b: np.ndarray, z: np.ndarray, idx: tuple[int, ...], tol: Tolerances,
    swapped: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The greedy kernel: _fill.c's fill() on the caller's sorted pair (a, b).

    z is the pair's meet (meet_values); idx and swapped are its
    InversionPoints. Returns the pieces (rows, cols, vals), 0-based cells
    whose row sums are a and column sums b, row-major, as views of three
    buffers of 2m cells, m the number of components z_j > 0 but at least 1.
    Each z_j gives at most a diagonal part on (j, j) and a remainder carried
    to a line below j, no lower than its segment's lo - 1, each only if above
    eps_zero; remainders still carried at the end, at most eps_sum in total,
    are left out. a, b and z must be C-contiguous float64 arrays of one
    length, and z writable; a and b may be read-only.
    """
    n = a.size
    for v in (a, b, z):
        if v.dtype != np.float64 or v.size != n or not v.flags.c_contiguous:
            raise TypeError("the greedy fill takes C-contiguous float64 arrays of one length")
    m = np.count_nonzero(z > 0.0) or 1  # from_buffer refuses an empty buffer
    rows, cols, vals = np.empty(2 * m, np.int64), np.empty(2 * m, np.int64), np.empty(2 * m)
    fifo, bad = np.empty(3 * m, np.int64), _BAD()
    count = _FILL(
        a.ctypes.data, b.ctypes.data, _DOUBLES(z), n, _INTS(np.array(idx, np.int64)),
        len(idx) - 1, tol.eps_zero, tol.eps_sum, swapped, m, _INTS(rows), _INTS(cols),
        _DOUBLES(vals), _INTS(fifo), bad,
    )
    if count == -1:
        raise InternalInvariant(
            f"carried remainder {bad[0]!r} for component {int(bad[1]) + 1} below zero"
        )
    if count == -2:
        raise InternalInvariant(f"bookkeeping left {bad[0]!r} mass unplaced")
    if count == -3:
        raise InternalInvariant(f"segment boundaries {idx} do not cut 1..{n}")
    return rows[:count], cols[:count], vals[:count]


def _check_marginals(
    lines: Sequence[np.ndarray], vals: np.ndarray, margins: Sequence[np.ndarray], tol: Tolerances
) -> None:
    """Post-condition of both coupling paths: exact marginals and total mass.

    Cell i holds vals[i] at index lines[axis][i] of each axis. Raises
    InternalInvariant unless each axis's per-index sums match margins[axis]
    and the values total 1, both within eps_sum; a NaN fails either check.
    """
    for axis, (line, margin) in enumerate(zip(lines, margins)):
        got = np.bincount(line, weights=vals, minlength=margin.size)
        dev = float(np.maximum.reduce(np.abs(got - margin)))
        if not dev <= tol.eps_sum:
            raise InternalInvariant(f"axis {axis} marginal off by {dev!r}")
    total = float(np.add.reduce(vals))
    if not abs(total - 1.0) <= tol.eps_sum:
        raise InternalInvariant(f"coupling mass {total!r} deviates from 1 beyond eps_sum")


def min_entropy_coupling(
    p: ProbVec,
    q: ProbVec,
    tol: Tolerances = DEFAULT_TOL,
) -> CouplingMatrix:
    """A coupling of p and q with entropy within one bit of the minimum.

    The coupling has side n = max(p.n, q.n) (inputs are zero-padded to a
    common length), exact marginals and total mass up to eps_sum, at most
    2n nonzero cells, and H(p ∧ q) <= H(M) <= H(p ∧ q) + 1 bit. It is built
    row-major and checked as its pieces in O(n) time and memory; the dense
    .matrix is built only when read, and is refused above MATRIX_CELL_CAP
    cells. Identical inputs always produce identical couplings. Inputs are
    taken as given, not re-sorted: values out of non-increasing order raise
    ValidationError, and a total off 1 by more than eps_sum raises BadTotal.
    That entry check is skipped for an input that make_probvec validated
    under an eps_sum no wider than tol's, which passes it.
    """
    _check_entry((p, q), tol)
    n = max(p.n, q.n)
    a, row_perm = _padded(p, n)
    b, col_perm = _padded(q, n)
    ip = _orient(a, b, tol.eps_zero)
    if ip is None:
        # componentwise-equal marginals couple on the diagonal, in lines where
        # both are positive: a mass at or below eps_zero opposite a zero stays
        # out of that zero's line
        rows = cols = ((a > 0.0) & (b > 0.0)).nonzero()[0]
        vals = a[rows]
    else:
        z = meet_values(a, b, tol.eps_zero)
        rows, cols, vals = _fill(a, b, z, ip.indices, tol, ip.swapped)
        key = rows * n + cols
        if np.count_nonzero(key[1:] <= key[:-1]):
            raise InternalInvariant("pieces out of row-major order, or a cell written twice")
    _check_marginals((rows, cols), vals, (a, b), tol)
    if vals.size > 2 * n:
        raise InternalInvariant(f"support size {vals.size} exceeds 2n = {2 * n}")
    for arr in (rows, cols, vals):
        arr.flags.writeable = False
    return CouplingMatrix(
        rows=rows,
        cols=cols,
        vals=vals,
        row_perm=row_perm,
        col_perm=col_perm,
        nnz=int(np.count_nonzero(vals > tol.eps_zero)),
    )


def bounds(p: ProbVec, q: ProbVec, tol: Tolerances = DEFAULT_TOL) -> BoundsReport:
    """Marginal-only bounds on joint entropy and mutual information.

    H(p ∧ q) lower-bounds every coupling's entropy and dominates the classic
    bound max(H(p), H(q)); dually H(p) + H(q) - H(p ∧ q) upper-bounds the
    mutual information below the classic min(H(p), H(q)).
    """
    h_p = entropy(p)
    h_q = entropy(q)
    h_glb = entropy(glb(p, q, tol).meet)
    return BoundsReport(
        h_p=h_p,
        h_q=h_q,
        h_glb=h_glb,
        mi_upper_improved=h_p + h_q - h_glb,
        mi_upper_classic=min(h_p, h_q),
        joint_lower_classic=max(h_p, h_q),
    )


def distance_interval(
    p: ProbVec,
    q: ProbVec,
    tol: Tolerances = DEFAULT_TOL,
) -> DistanceInterval:
    """Certified enclosure of the entropic distance 2W(p,q) - H(p) - H(q).

    W is the (intractable) minimum coupling entropy; H(p ∧ q) <= W <= H(M)
    brackets it with a gap of at most one bit, so the interval below has
    width at most 2 and lower + 1 estimates the distance with additive error
    at most 1.
    """
    rep = bounds(p, q, tol)
    h_m = min_entropy_coupling(p, q, tol).entropy()
    lower = 2.0 * rep.h_glb - rep.h_p - rep.h_q
    upper = 2.0 * h_m - rep.h_p - rep.h_q
    return DistanceInterval(lower=lower, upper=upper, estimate=lower + 1.0)
