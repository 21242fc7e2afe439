"""tools/scale.py imports private names from src/ (the coupling's three
compiled calls, the CLI's loader and writers), so a rename there
breaks the tool without failing anything else. Each in-process row runs
here once, at a small size; process_row is left out, since it spawns
processes.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

import mecouple

_spec = importlib.util.spec_from_file_location(
    "scale", Path(__file__).resolve().parent.parent / "tools" / "scale.py")
scale = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale)

TIMES = {"rounds", "best_s", "median_s"}
ROWS = [
    ("pair_row", 16, {"n", "rounds", "make_probvec_x2_best_s", "make_probvec_x2_median_s",
                      "coupling_best_s", "coupling_median_s", "nnz", "traced_peak_mb",
                      "peak_rss_mb"}),
    ("probvec_row", 64, {"n", "kinds"}),
    ("stage_row", 36, {"n", "segments", "pieces", "stages"}),
    ("kway_row", 5, {"k", "n", "entries", "coords_mb", "traced_peak_mb", "peak_rss_mb"} | TIMES),
    ("cli_row", 16, {"n", "output_bytes"} | TIMES),
    ("cli_stage_row", 16, {"n", "nnz", "output_bytes", "stages"}),
    ("oracle_row", (3, 3), {"n", "m", "opt_entropy", "support_size"} | TIMES),
]
NESTED = {
    "probvec_row": ("kinds", {"dirichlet", "ties64", "uniform"}, {"equal_neighbours"} | TIMES),
    "stage_row": ("stages", {"make_probvec", "ProbVec", "check_sorted_total", "prepare", "fill",
                             "check", "entropy_bits", "glb", "bounds",
                             "min_entropy_coupling"}, TIMES),
    "cli_stage_row": ("stages", {"load", "cells", "to_json", "cmd_couple", "main"}, TIMES),
}


@pytest.mark.parametrize("name, size, keys", ROWS, ids=[row[0] for row in ROWS])
def test_row_runs_once_with_its_keys(monkeypatch, name, size, keys):
    monkeypatch.setattr(scale, "REPEATS", 1)
    monkeypatch.setattr(scale, "BUDGET_S", 0.0)
    row = getattr(scale, name)(mecouple, np, size)
    assert set(row) == keys
    if "rounds" in row:
        assert row["rounds"] == 1
    if name in NESTED:
        field, parts, part_keys = NESTED[name]
        assert set(row[field]) == parts
        for part in row[field].values():
            assert set(part) == part_keys and part["rounds"] == 1


def test_a_missing_private_name_fails_only_the_stages_using_it(monkeypatch):
    # tools/ab.py builds one stage per tree, and one tree may lack a name the
    # other has; min_entropy_coupling needs the kernel, so the stages left
    # to build here are those that do not run it
    rng = np.random.default_rng(5)
    raw_p, raw_q = rng.dirichlet(np.ones(7)), rng.dirichlet(np.ones(5))
    monkeypatch.delattr(mecouple._native, "fill")
    for stage in ("fill", "check"):
        with pytest.raises(AttributeError, match="fill"):
            scale.stage_call(mecouple, np, raw_p, raw_q, stage)
    for stage in ("ProbVec", "prepare", "glb", "bounds"):
        scale.stage_call(mecouple, np, raw_p, raw_q, stage)()


def test_an_unknown_row_kind_exits_2_before_any_process(monkeypatch, capsys):
    def no_process(*args, **kwargs):
        raise AssertionError("a child process was started")

    monkeypatch.setattr(scale.subprocess, "run", no_process)
    with pytest.raises(SystemExit) as info:
        scale.main(["--rows", "kway", "no_such_kind"])
    assert info.value.code == 2
    assert "no_such_kind" in capsys.readouterr().err


def test_rows_runs_only_the_named_kinds(monkeypatch, capsys):
    started = []

    def fake_child(cmd, **kwargs):
        started.append(cmd[-2])
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps({"size": cmd[-1]}) + "\n")

    monkeypatch.setattr(scale.subprocess, "run", fake_child)
    assert scale.main(["--rows", "cli_process", "oracle"]) == 0
    out = json.loads(capsys.readouterr().out)
    # in ROWS order, whatever the order named
    assert started == ["oracle"] * len(scale.ORACLE_SHAPES) + ["cli_process"] * len(scale.PROCESS_SHAPES)
    assert set(out) & set(scale.ROWS) == {"oracle", "cli_process"}
