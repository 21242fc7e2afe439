"""The compiled stages of the pairwise coupling: _fill.c, built on first import and cached.

Loaded once per import as LIB, with the C signatures of its five entry
points. Writable arrays go in by from_buffer; read-only ones, such as a
ProbVec's values, as addresses (arr.ctypes.data: ndpointer and data_as
leave cyclic garbage on every call), taken once per array per call.
"""

import ctypes
import os
import platform
import tempfile

import numpy as np

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


DOUBLES, INTS = ctypes.c_double.from_buffer, ctypes.c_int64.from_buffer
# out-parameters, typed once: each ctypes array type made per call would be cyclic garbage
INFO, OUT = ctypes.c_int64 * 2, ctypes.c_double * 3
_A, _D, _I = ctypes.c_void_p, ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int64)
_N, _X = ctypes.c_int64, ctypes.c_double
SIGNATURES = {  # as in _fill.c: an address, double and int64 buffers, an int64, a double
    "segments": (_A, _A, _N, _X, _I, _I),
    "meet": (_A, _A, _N, _X, _D),
    "prepare": (_A, _A, _N, _X, _D, _I, _I),
    "fill": (_A, _A, _D, _N, _I, _N, _X, _X, ctypes.c_int, _N, _I, _I, _D, _I, _D),
    "check": (_I, _I, _D, _N, _A, _A, _N, _X, _D),
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
