"""The one module that calls _fill.c: the pairwise coupling's compiled stages and the oracle.

_fill.c is built on first import as the CPython extension module
mecouple._fill, cached and loaded as LIB. Each of its five entry points is
called by one wrapper here: couple and check, the two calls of a pairwise
coupling; meet (lattice's meet_values); segments (inversion_points); and
oracle, the exact search of mecouple.oracle. The module takes numpy arrays
as they are, reads every length from them, and refuses with TypeError or
ValueError, before its stage runs, a wrong argument count, an array that
is not C-contiguous float64 (int64 where the stage takes indices), an
input whose length differs from the one its stage reads, and an output or
scratch buffer that is read-only or shorter than the length demanded. A
call releases the interpreter lock while its stage runs, so other threads
run Python meanwhile; Ctrl-C is handled only after it returns. A wrapper
allocates every buffer with np.empty and raises what ERRORS gives for a
negative return. The wrappers read LIB when called, so a build swapped in
for it (tools/sanitize.py's) serves them all.
"""

import os
import platform
import tempfile
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

import numpy as np

from .errors import InternalInvariant

try:  # the builtin module: hashlib loads OpenSSL, a fifth of this package's import time
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

# -ffp-contract=off: GCC fuses a + b*c into an FMA by default, which would change floats
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_NAME = "mecouple._fill"


def load(path: str):
    """The extension module built at path, loaded under the name mecouple._fill."""
    loader = ExtensionFileLoader(_NAME, path)
    module = module_from_spec(spec_from_loader(_NAME, loader))
    loader.exec_module(module)
    return module


def _load_fill():
    """The module built from _fill.c, compiled on first use and cached in __pycache__.

    The file's name holds a key hashing the source, _CFLAGS, the machine and
    the interpreter's extension suffix (its ABI), and ends in that suffix, so
    an edited source or another interpreter gets its own build, and a
    process that finds the file only loads it. A build writes a temporary
    file and renames it into place. Where __pycache__ cannot be made or
    written, the module is built in a private temporary directory, removed
    once loaded, so each process builds it anew.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    source = os.path.join(here, "_fill.c")
    suffix = EXTENSION_SUFFIXES[0]
    with open(source, "rb") as f:
        parts = (f.read(), " ".join(_CFLAGS).encode(), platform.machine().encode(),
                 suffix.encode())
    key = sha256(b"\0".join(parts))
    cache = os.path.join(here, "__pycache__")
    path = os.path.join(cache, f"_fill.{key.hexdigest()[:16]}{suffix}")
    if os.path.exists(path):
        return load(path)
    try:
        os.makedirs(cache, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix, dir=cache)
    except OSError:
        with tempfile.TemporaryDirectory(prefix="mecouple-") as private:
            path = os.path.join(private, f"_fill{suffix}")
            _compile(source, path)
            return load(path)
    os.close(fd)
    try:
        _compile(source, tmp)
    except BaseException:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)
    return load(path)


def _compile(source: str, out: str) -> None:
    """Build source into the extension module out; ImportError, naming the command, on failure."""
    import shlex
    import subprocess
    import sysconfig

    cmd = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_CFLAGS,
           f"-I{sysconfig.get_paths()['include']}", "-o", out, source]
    try:
        subprocess.run(cmd, check=True, capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        raise ImportError(
            f"mecouple needs a C compiler: `{shlex.join(cmd)}` failed: {detail}"
        ) from None


ERRORS = {  # _fill.c's negative returns: the exception, its message formatted by the wrapper
    -1: (InternalInvariant, "carried remainder {value!r} for component {component} below zero"),
    -2: (InternalInvariant, "bookkeeping left {value!r} mass unplaced"),
    -3: (InternalInvariant, "segment boundaries do not cut 1..{n}"),
    -4: (InternalInvariant, "meet produced a component below -eps_zero"),
    -5: (InternalInvariant, "piece {i} at {cell} lies outside 0..{last}"),
    -6: (InternalInvariant, "pieces out of row-major order, or a cell written twice"),
    -7: (MemoryError, "no memory for {what}"),
    -8: (InternalInvariant, "the replay of the {n} x {m} search reached a state it did not solve"),
}


LIB = _load_fill()

# Above SPARE components couple's outputs get SPARE cells beyond 2n, so resize() frees a
# tail of 2 KiB or more, above the 1 KiB up to which glibc caches a freed block unmerged.
# A tail of a few cells stayed a hole between buffers that the next coupling's could not
# span: at n = 10**6 each coupling grew the heap, ru_maxrss 142, 180, 226, 241 MB. The
# scratch is made largest first, so check()'s column sums reuse the FIFO's written pages.
SPARE = 256


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
    m = LIB.meet(a, b, eps, z)
    if m < 0:
        _raise(m)
    return z


def segments(a: np.ndarray, b: np.ndarray, eps: float) -> tuple[tuple[int, ...], bool]:
    """segments() on the pair (a, b) of length n: the boundaries n + 1 = idx[0] > ... > idx[k]
    = 1 and swapped; (n + 1, 1), not swapped, where no component differs beyond eps."""
    idx = np.empty(a.size + 2, np.int64)
    k, swapped = LIB.segments(a, b, eps, idx)
    return tuple(idx[: (k or 1) + 1].tolist()), bool(swapped)


def couple(a: np.ndarray, b: np.ndarray, tol) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """couple() on the caller's sorted pair (a, b), C-contiguous float64 arrays of length n:
    the pieces (rows, cols, vals), 0-based cells with row sums a and column sums b,
    row-major, less the remainders carried at the end (at most eps_sum). Every buffer is
    sized from n; the outputs are then shrunk in place, so each owns exactly its cells."""
    n = a.size
    size = 2 * n + (SPARE if n > SPARE else 0)
    rows, cols, vals = np.empty(size, np.int64), np.empty(size, np.int64), np.empty(size)
    fifo, z, idx = np.empty(3 * n, np.int64), np.empty(n), np.empty(n + 2, np.int64)
    count, value, j = LIB.couple(a, b, tol.eps_zero, tol.eps_sum, rows, cols, vals, idx, z, fifo)
    if count < 0:
        _raise(count, value=value, component=j + 1, n=n)
    for x in (rows, cols, vals):
        x.resize(count, refcheck=False)
    return rows, cols, vals


def check(rows, cols, vals, a, b, eps: float) -> tuple[int, tuple[float, float]]:
    """check() on the pieces (int64, int64 and float64 arrays of one length) of the coupling
    of a and b: nnz and each axis's worst deviation."""
    nnz, dev_rows, dev_cols, i = LIB.check(rows, cols, vals, a, b, eps)
    if nnz < 0:
        n = a.size  # i is the piece refused, read for codes -5 and -6 only
        cell = f"({rows[i]}, {cols[i]})" if i < vals.size else ""
        _raise(nnz, i=i, cell=cell, last=n - 1, what=f"{n} column sums")
    return nnz, (dev_rows, dev_cols)


def oracle(p: np.ndarray, q: np.ndarray, eps: float) -> tuple[float, np.ndarray]:
    """oracle() on the marginals p and q: the minimum coupling entropy in bits over every
    greedy fill, with the n x m matrix its stored first moves replay to; a line at eps or
    below is retired, and memo keys round residuals to KEY_DIGITS decimals."""
    n, m = p.size, q.size
    mat = np.zeros((n, m))
    code, opt = LIB.oracle(p, q, eps, mat)
    if code < 0:
        _raise(code, what=f"the search of a {n} x {m} instance", n=n, m=m)
    return opt, mat
