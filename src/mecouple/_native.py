"""The one module that calls _fill.c: the pairwise coupling's compiled stages and the oracle.

_fill.c is built on first import, cached and loaded as LIB with the C
signatures of its five entry points, each called by one wrapper here: meet,
prepare, fill and check, the stages of a pairwise coupling, and oracle, the
exact search of mecouple.oracle. A call holds its thread in C until it
returns, so Ctrl-C is handled only after it. A wrapper allocates its
outputs and raises what ERRORS gives for a negative return. Writable
arrays, empty ones included, go in by DOUBLES and INTS; read-only ones,
such as a ProbVec's values, as addresses (arr.ctypes.data: ndpointer and
data_as leave cyclic garbage on every call). The wrappers read LIB when
called, so a build swapped in for it (tools/sanitize.py's) serves them all.
"""

import ctypes
import os
import platform
import tempfile

import numpy as np

from .errors import InternalInvariant

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


# buffers typed as zero-length arrays, which a call passes as their address: their
# from_buffer takes a writable buffer of any size, where c_double's refuses an empty one
_D, _I = ctypes.c_double * 0, ctypes.c_int64 * 0
DOUBLES, INTS = _D.from_buffer, _I.from_buffer
# out-parameters, typed once: each ctypes array type made per call would be cyclic garbage
INFO, OUT = ctypes.c_int64 * 2, ctypes.c_double * 3
_A, _N, _X = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
SIGNATURES = {  # as in _fill.c: an address, buffers, out-parameters, an int64, a double
    "meet": (_A, _A, _N, _X, _D),
    "prepare": (_A, _A, _N, _X, _D, _I, INFO),
    "fill": (_A, _A, _D, _N, _I, _N, _X, _X, ctypes.c_int, _N, _I, _I, _D, _I, OUT),
    "check": (_I, _I, _D, _N, _A, _A, _N, _X, OUT),
    "oracle": (_D, _N, _N, _X, _N, _D, OUT),
}
ERRORS = {  # _fill.c's negative returns: the exception, its message formatted by the wrapper
    -1: (InternalInvariant, "carried remainder {value!r} for component {component} below zero"),
    -2: (InternalInvariant, "bookkeeping left {value!r} mass unplaced"),
    -3: (InternalInvariant, "segment boundaries {idx} do not cut 1..{n}"),
    -4: (InternalInvariant, "meet produced a component below -eps_zero"),
    -5: (InternalInvariant, "piece {i} at {cell} lies outside 0..{last}"),
    -6: (InternalInvariant, "pieces out of row-major order, or a cell written twice"),
    -7: (MemoryError, "no memory for {what}"),
    -8: (InternalInvariant, "the replay of the {n} x {m} search reached a state it did not solve"),
}


def declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    """lib with SIGNATURES set on its entry points; tools/sanitize.py declares its own build so."""
    for name, argtypes in SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, ctypes.c_int64
    return lib


LIB = declare(_load_fill())


def addresses(*arrays: np.ndarray) -> list[int]:
    """Each array's address; TypeError unless all are C-contiguous float64 arrays of one length."""
    n, out = arrays[0].size, []
    for v in arrays:
        if v.dtype != np.float64 or v.size != n or not v.flags.c_contiguous:
            raise TypeError("the compiled stages take C-contiguous float64 arrays of one length")
        out.append(v.ctypes.data)
    return out


def _raise(code: int, **fields) -> None:
    error, message = ERRORS[code]
    raise error(message.format(**fields))


def meet(a: np.ndarray, b: np.ndarray, eps: float) -> np.ndarray:
    """meet() on a and b, sorted non-increasingly, C-contiguous float64 arrays of one length:
    the first differences of the pointwise minimum of their prefix sums. The minimum of two
    concave sequences is concave, so they come out non-increasing without a re-sort; one in
    [-eps, 0), from cancellation, reads 0.0, and one below raises InternalInvariant. The
    floats are np.diff(np.minimum(a.cumsum(), b.cumsum()), prepend=0.0)'s."""
    z = np.empty(a.size)
    m = LIB.meet(*addresses(a, b), a.size, eps, DOUBLES(z))
    if m < 0:
        _raise(m)
    return z


def prepare(at, n: int, eps: float) -> tuple[np.ndarray | None, np.ndarray, int, int]:
    """prepare() on the pair of length n at the addresses at: the meet z, the k + 1 segment
    boundaries idx, swapped and m, the count of z_j > 0; if no component differs beyond eps,
    k = 0, z is None (unwritten), idx (n + 1, 1) and m 0."""
    z, idx, info = np.empty(n), np.empty(n + 2, np.int64), INFO()
    m = LIB.prepare(*at, n, eps, DOUBLES(z), INTS(idx), info)
    if m < 0:
        _raise(m)
    k, swapped = info[0], info[1]
    return z if k else None, idx[: (k or 1) + 1], swapped, m


def fill(a, b, z, idx, tol, swapped, m: int, at=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The greedy kernel: fill() on the caller's sorted pair (a, b), z, idx, swapped and m as
    prepare gives them. Returns the pieces (rows, cols, vals), 0-based cells with row sums a
    and column sums b, row-major, as views of three buffers of 2m cells: each z_j's diagonal
    part and carried remainder, each only if above eps_zero, less the remainders carried at
    the end (at most eps_sum). a, b and z are C-contiguous float64 arrays of one length, z
    writable; at may hold the addresses of a and b, which skips their check.
    """
    if at is None:
        at = addresses(a, b, z)[:2]
    rows, cols, vals = np.empty(2 * m, np.int64), np.empty(2 * m, np.int64), np.empty(2 * m)
    fifo, bad, idx = np.empty(3 * m, np.int64), OUT(), np.asarray(idx, np.int64)
    count = LIB.fill(*at, DOUBLES(z), a.size, INTS(idx), idx.size - 1, tol.eps_zero, tol.eps_sum,
                     swapped, m, INTS(rows), INTS(cols), DOUBLES(vals), INTS(fifo), bad)
    if count < 0:
        _raise(count, value=bad[0], component=int(bad[1]) + 1, idx=tuple(idx.tolist()), n=a.size)
    return rows[:count], cols[:count], vals[:count]


def check(rows, cols, vals, a, b, eps: float, at) -> tuple[int, list[float]]:
    """check() on the pieces (writable int64, int64 and float64 arrays) of the coupling of a
    and b: nnz and each axis's worst deviation. at as in fill, or None."""
    n = a.size
    if not rows.nbytes == cols.nbytes == vals.nbytes == 8 * vals.size:
        raise TypeError("the check takes three 8-byte arrays of one length")
    out = OUT()
    nnz = LIB.check(INTS(rows), INTS(cols), DOUBLES(vals), vals.size, *(at or addresses(a, b)),
                    n, eps, out)
    if nnz < 0:
        i = int(out[2])  # the piece refused; unwritten if check() ran out of memory
        cell = f"({rows[i]}, {cols[i]})" if i < vals.size else ""
        _raise(nnz, i=i, cell=cell, last=n - 1, what=f"{n} column sums")
    return nnz, out[:2]


def oracle(p: np.ndarray, q: np.ndarray, eps: float, digits: int) -> tuple[float, np.ndarray]:
    """oracle() on the marginals p and q: the minimum coupling entropy in bits over every
    greedy fill, with the n x m matrix its stored first moves replay to; a line at eps or
    below is retired, and memo keys round residuals to digits decimals."""
    n, m = p.size, q.size
    res, mat, opt = np.concatenate((p, q), dtype=np.float64), np.zeros((n, m)), OUT()
    code = LIB.oracle(DOUBLES(res), n, m, eps, digits, DOUBLES(mat), opt)
    if code < 0:
        _raise(code, what=f"the search of a {n} x {m} instance", n=n, m=m)
    return opt[0], mat
