"""tools/ab.py loads two trees under their own module names and reaches
private names through them (tools/scale.py's stage calls), so a rename in
src/ or in either tool breaks it without failing anything else. Each run
here compares this checkout's src/ with itself, once, at a small size.
"""

import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

RUNS = [
    ["--call", "exact_min_entropy", "--shape", "3", "3", "--count", "3", "--rounds", "2"],
    # q longer than p: the pair is swapped, so the kernel runs on it with swapped set
    ["--call", "fill", "--shape", "9", "12", "--count", "2", "--rounds", "1"],
    ["--call", "k_min_entropy_coupling", "--shape", "5", "4", "3", "--count", "2", "--rounds", "1"],
    ["--call", "cli.main", "--pool", "cli", "--command", "bounds", "--rounds", "1"],
    # multiples of 1/64: exact ties inside and across the merges
    ["--call", "k_min_entropy_coupling", "--shape", "9", "6", "5", "--grid", "64", "--count", "2",
     "--rounds", "1"],
]


@pytest.mark.parametrize("argv", RUNS, ids=[run[1] + ("-grid" if "--grid" in run else "")
                                            for run in RUNS])
def test_a_tree_against_itself(capsys, argv):
    assert ab.main(["--base", SRC, "--change", SRC, *argv]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outputs_identical"] and out["differing_instances"] == []
    assert out["ratio_q1"] <= out["ratio_median"] <= out["ratio_q3"]
    assert out["cyclic_garbage_per_call"] == {"base": 0.0, "change": 0.0}
    assert out["instances"] == (20 if "--pool" in argv else int(argv[argv.index("--count") + 1]))
    assert out["numpy_madvise_hugepage"] == os.environ.get("NUMPY_MADVISE_HUGEPAGE", "default")


def test_grid_draws_multiples_of_one_over_n():
    instances = ab.drawn_instances(2, [9, 6, 5], 3, 1.0, grid=64)
    for vectors, argv in instances:
        assert argv is None and [v.size for v in vectors] == [9, 6, 5]
        for v in vectors:
            assert np.array_equal(v * 64, np.round(v * 64)) and v.sum() == 1.0
    # with n > N, zeros and ties are certain
    (wide,), _ = ab.drawn_instances(2, [80], 1, 1.0, grid=64)[0]
    assert np.count_nonzero(wide == 0.0) >= 16 and np.unique(wide).size < wide.size


def test_the_byte_comparison_tells_signed_zeros_and_exceptions_apart():
    def encoded(x) -> bytes:
        out = []
        ab.encode(x, out)
        return b"".join(out)

    assert encoded(0.0) != encoded(-0.0)
    assert encoded((1.0, 2)) != encoded([1.0, 2])
    assert encoded(ValueError()) != encoded(KeyError())
