"""mecouple._native.LIB, the extension module built from _fill.c, refuses every
argument its stage could not read or write, with TypeError or ValueError and
before the stage runs, and runs the stage without the interpreter lock.
"""

import threading

import numpy as np
import pytest

from mecouple import _native
from mecouple.probvec import DEFAULT_TOL

EPS, EPS_SUM = DEFAULT_TOL.eps_zero, DEFAULT_TOL.eps_sum
A, B = np.array([0.5, 0.3, 0.2]), np.array([0.4, 0.4, 0.2])

# Each entry point's arguments in order: a name, and for an array its kind as
# _fill.c's take() reads it ('d'/'i' read, 'D'/'I' written, float64/int64)
# and whether its length is demanded; None for a number.
SIGNATURES = {
    "meet": (("a", "d", False), ("b", "d", True), ("eps", None), ("z", "D", True)),
    "prepare": (("a", "d", False), ("b", "d", True), ("eps", None), ("z", "D", True),
                ("idx", "I", True)),
    "fill": (("a", "d", False), ("b", "d", True), ("z", "d", True), ("idx", "i", False),
             ("eps", None), ("eps_sum", None), ("swapped", None), ("m", None),
             ("rows", "I", True), ("cols", "I", True), ("vals", "D", True),
             ("fifo", "I", True)),
    "check": (("rows", "i", True), ("cols", "i", True), ("vals", "d", False),
              ("a", "d", False), ("b", "d", True), ("eps", None)),
    "oracle": (("res", "D", False), ("n", None), ("eps", None), ("digits", None),
               ("mat", "D", True)),
}
# numbers each stage cannot take: a wrong type, or one out of range
BAD_NUMBERS = {
    "eps": (("nan", TypeError),), "eps_sum": ((None, TypeError),),
    "swapped": ((2, ValueError), (0.0, TypeError)),
    "m": ((-1, ValueError), (4, ValueError), (1.5, TypeError)),
    "n": ((-1, ValueError), (6, ValueError)), "digits": ((-1, ValueError),),
}


def valid(entry: str) -> list:
    """A call of entry that runs: the pair (A, B), its outputs filled with 7."""
    z = _native.meet(A, B, EPS)
    _, idx, swapped, m = _native.prepare(A, B, EPS)
    out, ints = (lambda k: np.full(k, 7.0)), (lambda k: np.full(k, 7, np.int64))
    return {
        "meet": lambda: [A, B, EPS, out(3)],
        "prepare": lambda: [A, B, EPS, out(3), ints(5)],
        "fill": lambda: [A, B, z, idx, EPS, EPS_SUM, swapped, m,
                         ints(2 * m), ints(2 * m), out(2 * m), ints(3 * m)],
        "check": lambda: [*_native.fill(A, B, z, idx, DEFAULT_TOL, swapped, m), A, B, EPS],
        "oracle": lambda: [np.r_[A, 0.6, 0.4], 3, EPS, 12, out(6)],
    }[entry]()


def defects(entry: str):
    """(label, position, name, the argument put there, the error expected) for entry."""
    args = valid(entry)
    for pos, (name, *kind) in enumerate(SIGNATURES[entry]):
        if kind == [None]:
            for value, error in BAD_NUMBERS[name]:
                yield f"{name}={value!r}", pos, name, value, error
            continue
        (code, demanded), arr = kind, args[pos]
        narrow, other = (np.float32, np.int64) if code in "dD" else (np.int32, np.float64)
        yield f"{name}-4-byte", pos, name, arr.astype(narrow), TypeError
        yield f"{name}-{np.dtype(other).name}", pos, name, arr.astype(other), TypeError
        yield f"{name}-strided", pos, name, np.repeat(arr, 2)[::2], TypeError
        yield f"{name}-a-list", pos, name, arr.tolist(), TypeError
        if demanded:
            yield f"{name}-short", pos, name, arr[:-1], ValueError
        if code.isupper():
            frozen = arr.copy()
            frozen.flags.writeable = False
            yield f"{name}-read-only", pos, name, frozen, TypeError


CASES = [(entry, label) for entry in SIGNATURES for label, *_ in defects(entry)]


@pytest.mark.parametrize("entry", SIGNATURES)
def test_a_valid_call_runs(entry):
    assert getattr(_native.LIB, entry)(*valid(entry)) is not None


@pytest.mark.parametrize("entry,label", CASES)
def test_an_argument_the_stage_cannot_take_is_refused_before_it_runs(entry, label):
    [(pos, name, bad, error)] = [case[1:] for case in defects(entry) if case[0] == label]
    args = valid(entry)
    args[pos] = bad
    outputs = [x for x in args if isinstance(x, np.ndarray) and x.flags.writeable]
    before = [x.copy() for x in outputs]
    with pytest.raises(error, match=rf"^{entry}\(\): {name} "):
        getattr(_native.LIB, entry)(*args)
    # no stage ran: every writable array still holds what it held
    assert all(np.array_equal(x, y) for x, y in zip(outputs, before))


@pytest.mark.parametrize("entry", SIGNATURES)
def test_a_wrong_argument_count_is_refused(entry):
    args = valid(entry)
    for wrong in (args[:-1], [*args, None], []):
        with pytest.raises(TypeError, match=rf"^{entry}\(\) takes {len(args)} arguments "):
            getattr(_native.LIB, entry)(*wrong)


def test_a_call_lets_other_threads_run_python_meanwhile():
    # A 6 x 4 search takes about 20 ms and writes its matrix only as it
    # ends, in the replay. The watcher needs the interpreter lock to read the
    # matrix, so it reads zeros only if the oracle let go of the lock while
    # it searched; had the call held the lock, the watcher would run after
    # it and read the replayed matrix.
    res, mat = np.r_[np.arange(6, 0, -1) / 21, np.arange(4, 0, -1) / 10], np.zeros((6, 4))
    go, seen = threading.Event(), []

    def watch():
        go.wait()
        seen.append(bool(mat.any()))

    watcher = threading.Thread(target=watch)
    watcher.start()
    go.set()
    code, _ = _native.LIB.oracle(res, 6, EPS, 12, mat)
    watcher.join(timeout=60)
    assert not watcher.is_alive()
    assert code == 0 and mat.any()
    assert seen == [False]
