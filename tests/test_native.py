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
    "segments": (("a", "d", False), ("b", "d", True), ("eps", None), ("idx", "I", True)),
    "couple": (("a", "d", False), ("b", "d", True), ("eps", None), ("eps_sum", None),
               ("rows", "I", True), ("cols", "I", True), ("vals", "D", True),
               ("idx", "I", True), ("z", "D", True), ("fifo", "I", True)),
    "check": (("rows", "i", True), ("cols", "i", True), ("vals", "d", False),
              ("a", "d", False), ("b", "d", True), ("eps", None)),
    "oracle": (("p", "d", False), ("q", "d", False), ("eps", None), ("mat", "D", True)),
}
# numbers each stage cannot take: not real numbers
BAD_NUMBERS = {"eps": (("nan", TypeError),), "eps_sum": ((None, TypeError),)}


def valid(entry: str) -> list:
    """A call of entry that runs: the pair (A, B), of n = 3, its outputs and scratch filled
    with 7, each of the length its stage demands: 2n cells per piece array for couple, and
    n + 2 boundaries, n meet components and 3n FIFO values of scratch."""
    out, ints = (lambda k: np.full(k, 7.0)), (lambda k: np.full(k, 7, np.int64))
    return {
        "meet": lambda: [A, B, EPS, out(3)],
        "segments": lambda: [A, B, EPS, ints(5)],
        "couple": lambda: [A, B, EPS, EPS_SUM, ints(6), ints(6), out(6), ints(5), out(3),
                           ints(9)],
        "check": lambda: [*_native.couple(A, B, DEFAULT_TOL), A, B, EPS],
        "oracle": lambda: [A, np.array([0.6, 0.4]), EPS, out(6)],
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
    p, q, mat = np.arange(6, 0, -1) / 21, np.arange(4, 0, -1) / 10, np.zeros((6, 4))
    go, seen = threading.Event(), []

    def watch():
        go.wait()
        seen.append(bool(mat.any()))

    watcher = threading.Thread(target=watch)
    watcher.start()
    go.set()
    code, _ = _native.LIB.oracle(p, q, EPS, mat)
    watcher.join(timeout=60)
    assert not watcher.is_alive()
    assert code == 0 and mat.any()
    assert seen == [False]


def test_the_oracle_reads_its_marginals_and_leaves_them_as_they_were():
    # the search runs on its own copy of the residuals, so read-only
    # marginals go in as they are and come out unchanged
    p, q = np.array([0.5, 0.3, 0.2]), np.array([0.6, 0.4])
    for x in (p, q):
        x.flags.writeable = False
    mat = np.zeros((3, 2))
    code, opt = _native.LIB.oracle(p, q, EPS, mat)
    assert code == 0 and opt > 0.0
    assert p.tolist() == [0.5, 0.3, 0.2] and q.tolist() == [0.6, 0.4]
    assert np.array_equal(mat.sum(axis=1), p) and np.array_equal(mat.sum(axis=0), q)
    assert _native.LIB.KEY_DIGITS == 12


def test_couple_demands_its_buffers_from_n_alone():
    # on a 50-component pair, whose meet has 50 positive components, every
    # buffer one cell short of its demand from n is refused before the
    # stage runs, and the buffers at their demand give the wrapper's pieces
    rng = np.random.default_rng(0)
    a, b = (-np.sort(-v) for v in rng.dirichlet(np.ones(50), 2))
    n = 50
    demands = {"rows": 2 * n, "cols": 2 * n, "vals": 2 * n, "idx": n + 2, "z": n, "fifo": 3 * n}
    kinds = {"vals": np.float64, "z": np.float64}

    def buffers(short: str = "") -> list:
        return [np.empty(k - (name == short), kinds.get(name, np.int64))
                for name, k in demands.items()]

    for name in demands:
        with pytest.raises(ValueError, match=rf"^couple\(\): {name} has "):
            _native.LIB.couple(a, b, EPS, EPS_SUM, *buffers(name))
    out = buffers()
    count, _, _ = _native.LIB.couple(a, b, EPS, EPS_SUM, *out)
    want = _native.couple(a, b, DEFAULT_TOL)
    assert count == want[0].size > n
    assert all(np.array_equal(x[:count], y) for x, y in zip(out, want))


def test_an_empty_pair_couples_to_no_pieces():
    # n = 0: the outputs, z and the FIFO are empty and never touched, and
    # idx holds the two boundaries (1, 1)
    empty = np.empty(0)
    idx = np.full(2, 7, np.int64)
    ints = np.empty(0, np.int64)
    assert _native.LIB.couple(empty, empty, EPS, EPS_SUM, ints, ints, empty, idx, empty,
                              ints) == (0, 0.0, 0)
    assert _native.segments(empty, empty, EPS) == ((1, 1), False)
    assert all(x.size == 0 for x in _native.couple(empty, empty, DEFAULT_TOL))
