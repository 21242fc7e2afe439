"""Time the pairwise path, k_min_entropy_coupling, the CLI and the oracle as they grow.

    python3 tools/scale.py                  # this checkout's src/
    python3 tools/scale.py --src OTHER/src  # another tree, for a before/after pair
    python3 tools/scale.py --rows kway oracle  # only these kinds of row (see ROWS)

Every row runs in a fresh Python process that imports mecouple from --src;
--rows keeps only the rows of the kinds it names (the keys of ROWS; an
unknown kind exits 2 before any process starts). The processes run one
after another, and each draws its inputs from
numpy.random.default_rng([SEED, size]) before anything is timed. A row
repeats its timed round until it has run at least REPEATS rounds and
BUDGET_S seconds: the seconds-long rows run REPEATS rounds, while a
millisecond row's best and median rest on hundreds of calls, not three.
Each row reports its round count under "rounds". A timed call's result is
freed after its time is taken, so neither the next call's time nor its
peak includes that result.

- pairwise, n in PAIR_NS: two Dirichlet(1) vectors of length n. Each round
  times the two make_probvec calls on the raw arrays, then
  min_entropy_coupling on their results. After the timed rounds, one
  untimed min_entropy_coupling runs under tracemalloc, and the row reports
  its traced peak (the result included) as traced_peak_mb, in MiB. The
  row's peak RSS is read before that call, since tracemalloc's own
  bookkeeping inflates it.
- make_probvec, n in PROBVEC_NS: make_probvec alone on three raw vectors of
  length n, each timed with its own rounds: Dirichlet(1); shuffled 1/64
  ties, each component one of 64 levels k = 1..64 drawn uniformly and
  scaled by the levels' sum, so about n/64 exact ties per level; and the
  uniform vector, one run of n ties. Up to STABLE_MAX components
  make_probvec sorts stably at once (n = 64 takes that path); above, it
  orders ties by original index only when the sorted vector has equal
  neighbours, so the row reports their count beside each kind's times.
- stages, n in STAGE_NS: the pairwise path taken apart, on two Dirichlet(1)
  vectors of length n. Each of STAGES is timed on its own, with its own
  rounds, on inputs built outside the timed region: make_probvec of a raw
  vector; ProbVec(values, perm) over a validated vector's arrays;
  check_sorted_total; the coupling's three compiled calls, by their
  wrappers in _native, each on the arrays of the one before: prepare
  (orientation, segments and the meet), fill (the greedy kernel, which
  writes the pieces row-major) and check (the index, order and axis checks
  on those pieces); entropy_bits of the coupling's pieces; glb; bounds;
  and the whole min_entropy_coupling, the stage to compare across kernel
  signatures: while _fill.c was called through ctypes, the wrappers took
  addresses, not arrays, so across that change compare min_entropy_coupling
  or glb. glb, bounds and the coupling take make_probvec's results, as a
  caller's pairwise call does. stage_call builds one stage's call for
  any tree; tools/ab.py times it across two trees. A stage is called in a
  loop, and the allocator hands each round the buffers the round before
  freed, so the first-touch page faults of a large stage's buffers show
  only in whole-call rows, such as the pairwise rows, not in its stage
  time.
- CLI stages, n in CLI_STAGE_NS: the input and the serialisation of a
  `couple` taken apart, on the CLI row's pair. Each stage is timed on its
  own, on inputs built outside the timed region: cli._load of one inline
  JSON vector (parse and make_probvec); cli._cells, the printed window of
  the coupling's cells in the callers' order; cli._to_json of the finished
  document; and, for comparison, the whole cli._cmd_couple (the two _load
  calls, the coupling, both entropies and _cells) and the whole in-process
  mecouple.cli.main, stdout to os.devnull.
- k-way, k in KWAY_KS: k Dirichlet(1) marginals of length KWAY_N, validated
  with make_probvec outside the timed region; each round times one call of
  k_min_entropy_coupling. k = 48 and 513 are not powers of two, so a level
  of odd length merges its last node with a point mass; 513 is just past
  512, where a tree padded to 1024 leaves would carry the most padding.
  As in the pairwise rows, one untimed call after the timed rounds runs
  under tracemalloc and its traced peak (the result included) is reported
  as traced_peak_mb, in MiB, beside coords_mb, the result's coords bytes;
  the row's peak RSS is read before that call.
- CLI couple, n in CLI_NS: two Dirichlet(1) vectors of length n, passed
  inline as JSON arrays to an in-process mecouple.cli.main(["couple", P, Q])
  whose stdout goes to os.devnull; each round times one call, then one
  untimed call counts the output bytes.
- CLI bounds, n in CLI_BOUNDS_NS: the same for mecouple.cli.main(["bounds",
  P, Q]), the command and size of the bench cli workload's bounds block,
  whose output is a few scalars, so its time is input and the library call.
- oracle, (n, m) in ORACLE_SHAPES: Dirichlet(1) vectors of lengths n and
  m, validated with make_probvec outside the timed region; each round times
  one call of exact_min_entropy on the n x m instance. 5 x 5 and 6 x 4 fill
  the default cap (n + m <= 10); 6 x 4 has more rows than columns. An
  n x n pair is drawn as in earlier BENCH files, so their rows compare.
- CLI process, (n, m) in PROCESS_SHAPES: each round takes the wall time of
  one whole process `python -m mecouple.cli oracle P Q` on the oracle row's
  n x m pair, after one bare `python -c "import numpy"` process, the floor any
  mecouple process pays; both take PYTHONPATH=--src. This row's peak RSS
  is that of the process that times them, not of the CLI.

Every row runs with NUMPY_MADVISE_HUGEPAGE=0, as bench/run.py runs, since
transparent huge pages make peak RSS vary run to run. The rows in
HUGEPAGE_BOTH_ROWS, the n = 10⁶ pairwise and stage rows, run once more with
it unset, under numpy's default (huge-page advice on large arrays), as a
library user runs. Each row holds its setting under
"numpy_madvise_hugepage": "0" or "default".

One JSON object goes to stdout: per row the best and the median time of
each timed stage (under "stages" for the stage rows and "kinds" for the
make_probvec rows, one entry each with its own round count), the pairwise
and k-way rows' traced peak, the process's peak RSS (ru_maxrss, which
includes the interpreter and numpy) and the output size (nnz, or the
joint's cell count under "entries", or the CLI's stdout bytes under
"output_bytes", or the oracle's optimum and support size), plus nproc,
Python and numpy versions.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"
PAIR_NS = (16, 1024, 65_536, 1_000_000)
PROBVEC_NS = (64, 2048, 1_000_000)
STAGE_NS = (36, 1_000_000)
STAGES = ("make_probvec", "ProbVec", "check_sorted_total", "prepare", "fill", "check",
          "entropy_bits", "glb", "bounds", "min_entropy_coupling")
KWAY_N = 64
KWAY_KS = (8, 32, 48, 128, 512, 513, 1024)
CLI_NS = (192, 4096)
CLI_STAGE_NS = (192,)
CLI_BOUNDS_NS = (1024,)
ORACLE_SHAPES = ((4, 4), (5, 5), (6, 4))
PROCESS_SHAPES = ((4, 4),)
HUGEPAGE_BOTH_ROWS = {("pairwise", 1_000_000), ("stages", 1_000_000)}
REPEATS = 3
BUDGET_S = 2.0
SEED = 0


def _rounds():
    """Count rounds until at least REPEATS have run and BUDGET_S seconds have passed."""
    start = time.perf_counter()
    done = 0
    while done < REPEATS or time.perf_counter() - start < BUDGET_S:
        yield done
        done += 1


def pair_row(mc, np, n: int) -> dict:
    rng = np.random.default_rng([SEED, n])
    raw_p, raw_q = rng.dirichlet(np.ones(n), size=2)
    validate, couple = [], []
    for _ in _rounds():
        start = time.perf_counter()
        p = mc.make_probvec(raw_p)
        q = mc.make_probvec(raw_q)
        mid = time.perf_counter()
        cm = mc.min_entropy_coupling(p, q)
        end = time.perf_counter()
        validate.append(mid - start)
        couple.append(end - mid)
        nnz = cm.nnz
        del p, q, cm  # so the next round's peak does not include these results
    # read before tracing, whose bookkeeping of every allocation would inflate it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p, q = mc.make_probvec(raw_p), mc.make_probvec(raw_q)
    tracemalloc.start()
    mc.min_entropy_coupling(p, q)
    traced_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "n": n,
        "rounds": len(couple),
        "make_probvec_x2_best_s": min(validate),
        "make_probvec_x2_median_s": statistics.median(validate),
        "coupling_best_s": min(couple),
        "coupling_median_s": statistics.median(couple),
        "nnz": nnz,
        "traced_peak_mb": traced_peak / 2**20,
        "peak_rss_mb": peak_rss_mb,
    }


def _timed(call) -> dict:
    """Rounds, best and median seconds of call() over _rounds()."""
    times = []
    for _ in _rounds():
        start = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - start)
        del out  # freed untimed, and before the next call
    return {"rounds": len(times), "best_s": min(times), "median_s": statistics.median(times)}


def probvec_row(mc, np, n: int) -> dict:
    rng = np.random.default_rng([SEED, n])
    levels = rng.integers(1, 65, size=n)
    raws = {
        "dirichlet": rng.dirichlet(np.ones(n)),
        "ties64": levels / levels.sum(),
        "uniform": np.full(n, 1.0 / n),
    }
    kinds = {}
    for kind, raw in raws.items():
        values = mc.make_probvec(raw).values
        kinds[kind] = {
            "equal_neighbours": int(np.count_nonzero(values[1:] == values[:-1])),
            **_timed(lambda raw=raw: mc.make_probvec(raw)),
        }
    return {"n": n, "kinds": kinds}


def stage_call(mc, np, raw_p, raw_q, stage: str):
    """The pairwise path's stage (in STAGES) as a call, on inputs built here, untimed.

    mc may be any tree's package, under any module name (tools/ab.py loads
    two at once), so private names are looked up under mc.__name__, and only
    the stage's own: a name one tree lacks fails only the stages using it.
    The pair is padded to a common length, as min_entropy_coupling pads it.
    """
    tol = mc.DEFAULT_TOL
    eps = tol.eps_zero
    p, q = mc.make_probvec(raw_p), mc.make_probvec(raw_q)
    n = max(p.n, q.n)
    a, b = (np.concatenate((v.values, np.zeros(n - v.n))) for v in (p, q))
    if stage == "make_probvec":
        return functools.partial(mc.make_probvec, raw_p)
    if stage == "ProbVec":
        return functools.partial(mc.ProbVec, p.values, p.perm)
    if stage == "check_sorted_total":
        probvec = importlib.import_module(f"{mc.__name__}.probvec")
        return functools.partial(probvec.check_sorted_total, p.values, tol)
    if stage in ("glb", "bounds", "min_entropy_coupling"):
        return functools.partial(getattr(mc, stage), p, q, tol)
    if stage == "entropy_bits":
        return functools.partial(mc.entropy_bits, mc.min_entropy_coupling(p, q, tol).vals)
    # the three compiled calls of one coupling, each on the output of the one before
    native = importlib.import_module(f"{mc.__name__}._native")
    if stage == "prepare":
        return functools.partial(native.prepare, a, b, eps)
    z, idx, swapped, m = native.prepare(a, b, eps)
    if stage == "fill":
        return functools.partial(native.fill, a, b, z, idx, tol, swapped, m)
    if stage == "check":
        pieces = native.fill(a, b, z, idx, tol, swapped, m)
        return functools.partial(native.check, *pieces, a, b, eps)
    raise ValueError(f"no stage {stage!r}")


def stage_row(mc, np, n: int) -> dict:
    rng = np.random.default_rng([SEED, n])
    raw_p, raw_q = rng.dirichlet(np.ones(n), size=2)
    p, q = mc.make_probvec(raw_p), mc.make_probvec(raw_q)
    return {
        "n": n,
        "segments": mc.inversion_points(p, q).k,
        "pieces": mc.min_entropy_coupling(p, q).vals.size,
        "stages": {stage: _timed(stage_call(mc, np, raw_p, raw_q, stage)) for stage in STAGES},
    }


def kway_row(mc, np, k: int) -> dict:
    rng = np.random.default_rng([SEED, k])
    ps = [mc.make_probvec(row) for row in rng.dirichlet(np.ones(KWAY_N), size=k)]
    timed = _timed(lambda: mc.k_min_entropy_coupling(ps))
    # read before tracing, whose bookkeeping of every allocation would inflate it
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracemalloc.start()
    joint = mc.k_min_entropy_coupling(ps)
    traced_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "k": k,
        "n": KWAY_N,
        **timed,
        # values.size, not len(joint.entries), which would build the tuples
        "entries": joint.values.size,
        "coords_mb": joint.coords.nbytes / 2**20,
        "traced_peak_mb": traced_peak / 2**20,
        "peak_rss_mb": peak_rss_mb,
    }


class _ByteCount:
    """A stdout stand-in that keeps only the number of characters written."""

    def __init__(self) -> None:
        self.count = 0

    def write(self, text: str) -> int:
        self.count += len(text)
        return len(text)


def cli_row(mc, np, n: int, command: str = "couple") -> dict:
    import mecouple.cli

    rng = np.random.default_rng([SEED, n])
    argv = [command, *(json.dumps(v.tolist()) for v in rng.dirichlet(np.ones(n), size=2))]

    def call():
        code = mecouple.cli.main(argv)
        sink.flush()
        if code != 0:
            raise RuntimeError(f"mecouple {command} exited {code} at n = {n}")

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        timed = _timed(call)
    counter = _ByteCount()  # JSON output is ASCII, so characters are bytes
    with contextlib.redirect_stdout(counter):
        mecouple.cli.main(argv)
    return {"n": n, **timed, "output_bytes": counter.count}


def cli_stage_row(mc, np, n: int) -> dict:
    import mecouple.cli as cli

    rng = np.random.default_rng([SEED, n])
    argv = ["couple", *(json.dumps(v.tolist()) for v in rng.dirichlet(np.ones(n), size=2))]
    args = cli.build_parser().parse_args(argv)
    tol = mc.DEFAULT_TOL
    p, q = cli._load(args.p, tol), cli._load(args.q, tol)
    cm = mc.min_entropy_coupling(p, q, tol)
    perms = (cm.row_perm, cm.col_perm)
    doc = cli._cmd_couple(args, tol, 1.0)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        stages = {
            "load": lambda: cli._load(args.p, tol),
            "cells": lambda: cli._cells(p.n, q.n, cm.rows, cm.cols, cm.vals, perms),
            "to_json": lambda: cli._to_json(doc),
            "cmd_couple": lambda: cli._cmd_couple(args, tol, 1.0),
            "main": lambda: cli.main(argv),
        }
        timed = {name: _timed(call) for name, call in stages.items()}
    return {"n": n, "nnz": cm.nnz, "output_bytes": len(cli._to_json(doc)), "stages": timed}


def _oracle_pair(np, shape):
    n, m = shape
    rng = np.random.default_rng([SEED, n])
    return rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))


def oracle_row(mc, np, shape) -> dict:
    n, m = shape
    p, q = (mc.make_probvec(v) for v in _oracle_pair(np, shape))
    timed = _timed(lambda: mc.exact_min_entropy(p, q))
    opt, vc = mc.exact_min_entropy(p, q)
    return {
        "n": n,
        "m": m,
        **timed,
        "opt_entropy": opt,
        "support_size": vc.support_size,
    }


def _wall(cmd: list[str], env: dict) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def process_row(mc, np, shape) -> dict:
    n, m = shape
    src = os.path.dirname(os.path.dirname(mc.__file__))  # the --src directory
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["oracle", *(json.dumps(v.tolist()) for v in _oracle_pair(np, shape))]
    floor, cli = [], []
    for _ in _rounds():
        floor.append(_wall([sys.executable, "-c", "import numpy"], env))
        cli.append(_wall([sys.executable, "-m", "mecouple.cli", *argv], env))
    return {
        "n": n,
        "m": m,
        "command": "oracle",
        "rounds": len(cli),
        "best_s": min(cli),
        "median_s": statistics.median(cli),
        "import_numpy_best_s": min(floor),
        "import_numpy_median_s": statistics.median(floor),
    }


ROWS = {
    "pairwise": (pair_row, PAIR_NS),
    "make_probvec": (probvec_row, PROBVEC_NS),
    "stages": (stage_row, STAGE_NS),
    "kway": (kway_row, KWAY_KS),
    "cli": (cli_row, CLI_NS),
    "cli_stages": (cli_stage_row, CLI_STAGE_NS),
    "cli_bounds": (functools.partial(cli_row, command="bounds"), CLI_BOUNDS_NS),
    "oracle": (oracle_row, ORACLE_SHAPES),
    "cli_process": (process_row, PROCESS_SHAPES),
}


def child(src: str, kind: str, size) -> dict:
    sys.path.insert(0, src)
    import numpy as np
    import mecouple as mc

    row = ROWS[kind][0](mc, np, size)
    row.setdefault("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(DEFAULT_SRC), help="directory holding the mecouple package")
    parser.add_argument("--rows", nargs="+", metavar="KIND", choices=list(ROWS), default=list(ROWS),
                        help=f"run only these kinds of row, of {', '.join(ROWS)} (default: all)")
    parser.add_argument("--child", nargs=2, metavar=("KIND", "SIZE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.src, args.child[0], json.loads(args.child[1]))))
        return 0
    runs: dict[str, list[dict]] = {}
    for kind, (_, sizes) in ROWS.items():
        if kind not in args.rows:
            continue
        runs[kind] = []
        for size in sizes:
            for hugepage in ("0", "default") if (kind, size) in HUGEPAGE_BOTH_ROWS else ("0",):
                env = dict(os.environ)
                env.pop("NUMPY_MADVISE_HUGEPAGE", None)
                if hugepage != "default":
                    env["NUMPY_MADVISE_HUGEPAGE"] = hugepage
                # a size or an (n, m) shape, passed as JSON
                cmd = [sys.executable, __file__, "--src", args.src, "--child", kind,
                       json.dumps(size)]
                out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
                row = json.loads(out.stdout.splitlines()[-1])
                runs[kind].append({"numpy_madvise_hugepage": hugepage, **row})
    import numpy

    print(json.dumps({
        "tool": "tools/scale.py",
        "repeats": REPEATS,
        "budget_s": BUDGET_S,
        "seed": SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **runs,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
