"""The per-call path reaches numpy through its C entry points.

At the sizes most calls see (n under a hundred), numpy's Python-level
wrappers in fromnumeric.py and _methods.py (np.any, np.cumsum, x.sum(),
x.max() and the like) cost as much as the arithmetic they wrap. The
library calls them for the same results through the C entry points
(np.count_nonzero, x.cumsum(), np.add.reduce, ...). These tests run one call
of each public pairwise and k-way entry point under sys.setprofile and fail
on any frame from those two numpy files; the CLI is not covered.
"""

import os
import sys

import numpy as np

import mecouple
from mecouple import (
    bounds,
    entropy_bits,
    glb,
    k_min_entropy_coupling,
    make_probvec,
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
