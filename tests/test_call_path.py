"""The per-call path reaches numpy through its C entry points.

At the sizes most calls see (n under a hundred), numpy's Python-level
wrappers in fromnumeric.py and _methods.py (np.any, np.cumsum, x.sum(),
x.max() and the like) cost as much as the arithmetic they wrap. The
library calls them for the same results through the C entry points
(np.count_nonzero, x.cumsum(), np.add.reduce, ...). These tests run one call
of each public pairwise and k-way entry point under sys.setprofile and fail
on any frame from those two numpy files; the CLI is not covered.

Every public call, the CLI included, must also free what it builds by
reference counting alone: an object cycle left behind waits for the cyclic
garbage collector, and a memo that waits there piles up across calls.
"""

import contextlib
import gc
import io
import json
import os
import sys

import numpy as np

import mecouple
import mecouple.cli
from mecouple import (
    bounds,
    distance_interval,
    entropy_bits,
    exact_min_entropy,
    glb,
    k_min_entropy_coupling,
    make_probvec,
    marginalize,
    min_entropy_coupling,
)

NUMPY_DIR = os.path.dirname(np.__file__)
MECOUPLE_DIR = os.path.dirname(mecouple.__file__)
WRAPPER_FILES = {"fromnumeric.py", "_methods.py"}  # basenames, as on numpy 1.x and 2.x


def python_frames(call) -> list[tuple[str, str]]:
    """(file, function) of every Python frame entered while call() runs."""
    frames = []

    def profile(frame, event, arg):
        if event == "call":
            frames.append((frame.f_code.co_filename, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return frames


def wrapper_frames(frames) -> list[tuple[str, str]]:
    return [
        (name, func)
        for name, func in frames
        if name.startswith(NUMPY_DIR) and os.path.basename(name) in WRAPPER_FILES
    ]


def test_the_detector_sees_a_wrapper():
    frames = python_frames(lambda: np.any(np.ones(3) > 0.0))
    assert wrapper_frames(frames)


def test_no_numpy_python_wrapper_on_the_per_call_path():
    rng = np.random.default_rng(89)
    raw = np.r_[rng.dirichlet(np.ones(35)), -1e-13]  # the last is clamped to zero
    p = make_probvec(rng.dirichlet(np.ones(20)))
    q = make_probvec(rng.dirichlet(np.ones(33)))
    ties = make_probvec(np.r_[np.full(64, 1 / 64), np.zeros(5)])
    half_ties = make_probvec(np.r_[np.full(32, 1 / 64), 0.5, np.zeros(3)])
    ps = [make_probvec(rng.dirichlet(np.ones(int(n)))) for n in rng.integers(4, 12, size=5)]
    cm = min_entropy_coupling(p, q)
    calls = {
        "make_probvec": lambda: make_probvec(raw),
        "min_entropy_coupling, unequal lengths": lambda: min_entropy_coupling(p, q),
        "min_entropy_coupling, equal marginals": lambda: min_entropy_coupling(q, q),
        "min_entropy_coupling, 1/64 ties": lambda: min_entropy_coupling(ties, half_ties),
        "glb": lambda: glb(p, q),
        "bounds": lambda: bounds(p, q),
        "entropy_bits": lambda: entropy_bits(cm.vals),
        "entropy_bits with zeros": lambda: entropy_bits(ties.values),
        "k_min_entropy_coupling, k = 5": lambda: k_min_entropy_coupling(ps),
    }
    for name, call in calls.items():
        frames = python_frames(call)
        assert any(file.startswith(MECOUPLE_DIR) for file, _ in frames), name  # the hook ran
        assert wrapper_frames(frames) == [], name


def cyclic_garbage(call) -> int:
    """Objects that only the cyclic collector frees, left by one call of call()."""
    call()  # warm-up: caches and lazy imports are built once, not left behind
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def _cli(*argv: str):
    def call():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return mecouple.cli.main(list(argv))
    return call


def test_the_garbage_probe_sees_a_cycle():
    def cycle():
        loop = []
        loop.append(loop)
    assert cyclic_garbage(cycle) > 0


def test_no_public_call_leaves_cyclic_garbage():
    rng = np.random.default_rng(90)
    raw = rng.dirichlet(np.ones(12))
    p = make_probvec(raw)
    q = make_probvec(rng.dirichlet(np.ones(9)))
    ps = [make_probvec(rng.dirichlet(np.ones(int(n)))) for n in rng.integers(4, 12, size=5)]
    joint = k_min_entropy_coupling(ps)
    p5 = make_probvec(rng.dirichlet(np.ones(5)))
    q4 = make_probvec(rng.dirichlet(np.ones(4)))
    small = [json.dumps(rng.dirichlet(np.ones(4)).tolist()) for _ in range(3)]
    calls = {
        "make_probvec": lambda: make_probvec(raw),
        "min_entropy_coupling": lambda: min_entropy_coupling(p, q),
        "glb": lambda: glb(p, q),
        "bounds": lambda: bounds(p, q),
        "distance_interval": lambda: distance_interval(p, q),
        "k_min_entropy_coupling": lambda: k_min_entropy_coupling(ps),
        "marginalize": lambda: marginalize(2, joint),
        "exact_min_entropy, 5 x 4": lambda: exact_min_entropy(p5, q4),
        "cli couple-k": _cli("couple-k", *small),
        "cli exit 1": _cli("couple", "[0.5, 0.6]", small[0]),
    }
    for command in ("glb", "couple", "bounds", "distance", "oracle"):
        calls[f"cli {command}"] = _cli(command, *small[:2])
    assert calls["cli exit 1"]() == 1
    for name, call in calls.items():
        assert cyclic_garbage(call) == 0, name
