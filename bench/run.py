"""mecouple benchmark: one workload per fresh process, one closed-loop client.

    python3 bench/run.py --workload pair-small --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1     # all four, each in its own process

--trace 0 measures the end-to-end metrics; --trace 1 runs whole pool passes
untraced and then traced, and reports per-layer metrics. Human-readable lines
come first; the last line of stdout is one JSON object. Results, with their
provenance, and the spans of a traced run are written to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# numpy asks for transparent huge pages on large arrays, and whether the kernel
# grants them varies from run to run: it moved kway's peak RSS between 84 and
# 110 MB. Set before numpy is imported; the set-up probes inherit it.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import numpy as np  # noqa: E402

from speed import Calibrator, kernel, REF_S  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 5           # the run itself plus four fresh probe processes
HARD_LIMIT_S = 140.0        # stop the loop here, whatever else, to exit within 180 s
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END = {              # name -> (unit, better)
    "ops_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "gap_bits_mean": ("bit", "lower"),
}


def import_mecouple():
    """Import mecouple from this checkout's src/ only; returns (lib, seconds)."""
    if not (SRC / "mecouple" / "__init__.py").is_file():
        sys.exit(f"bench: no mecouple sources at {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import mecouple
    import mecouple.cli
    elapsed = time.perf_counter() - t0
    if Path(mecouple.__file__).resolve().parent != (SRC / "mecouple").resolve():
        sys.exit(f"bench: imported mecouple from {mecouple.__file__}, not {SRC}")
    return SimpleNamespace(mc=mecouple, cli=mecouple.cli), elapsed


def make_pool(wl, seed: int, tiny: bool = False) -> list:
    stream = sorted(WORKLOADS).index(wl.name)
    return wl.pool(np.random.default_rng([seed, stream]), tiny)


def set_up(wl, pool):
    """`import mecouple` plus the untimed warm-up op(s).

    Returns (lib, seconds, scale): scale comes from kernel runs just before
    and just after, as speed.Calibrator does for ops.
    """
    before = [kernel() for _ in range(3)]
    lib, t_import = import_mecouple()
    t0 = time.perf_counter()
    for i in wl.warmup(pool):
        wl.op(lib, pool[i])
    seconds = t_import + time.perf_counter() - t0
    scale = REF_S / statistics.median(before + [kernel() for _ in range(2)])
    return lib, seconds, scale


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """(seconds, scale) of set-up in a fresh interpreter (inputs generated first)."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
           "--setup-probe"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["scale"]


class Run:
    """One closed loop over a workload's pool, checking every op untimed."""

    def __init__(self, wl, lib, pool, deadline: float) -> None:
        self.wl, self.lib, self.pool, self.deadline = wl, lib, pool, deadline
        # Library references (the CLI's expected output, the oracle's optimum)
        # are computed up front, so that work never runs between timed ops.
        self.refs = [self._reference(inst) for inst in pool]
        self.gaps: dict = {}
        self.failures: list[str] = []

    def passes(self, min_s: float, min_ops: int, tracer=None) -> tuple[list[float], Calibrator]:
        """Whole passes over the pool until min_s and min_ops are both reached.

        Returns the raw op times and the calibrator timed between the ops.
        """
        lat: list[float] = []
        cal = Calibrator()
        n = len(self.pool)
        start = time.perf_counter()
        i = 0
        while True:
            now = time.perf_counter()
            if now >= self.deadline:
                break
            if i and i % n == 0 and now - start >= min_s and i >= min_ops:
                break
            cal.before_op(i, lat[-1] if lat else 0.0)
            idx = i % n
            inst = self.pool[idx]
            err = None
            if tracer:
                tracer.begin_op(i)
            t0 = time.perf_counter()
            try:
                out = self.wl.op(self.lib, inst)
            except Exception as exc:    # a failed op is counted, and the loop goes on
                err = exc
            t1 = time.perf_counter()
            if tracer:
                tracer.end_op()
                if err is None and self.wl.name == "cli":
                    tracer.counts["cli.output_bytes"] += len(out[1].encode())
            lat.append(t1 - t0)
            if err is None:
                err = self._check(idx, inst, out)
            if err is not None:
                if not self.failures:
                    traceback.print_exception(err, file=sys.stderr)
                self.failures.append(f"op {i} (pool {idx}): {type(err).__name__}: {err}")
            i += 1
        cal.finish(len(lat))
        return lat, cal

    def _reference(self, inst):
        if self.wl.reference is None:
            return None
        try:
            return self.wl.reference(self.lib, inst)
        except Exception as exc:        # fails every op on this input, not the run
            return exc

    def _check(self, idx, inst, out):
        if isinstance(self.refs[idx], Exception):
            return self.refs[idx]
        try:
            gap = self.wl.check(inst, out, self.refs[idx])
        except Exception as exc:        # any checker exception marks the op failed
            return exc
        if idx in self.gaps and self.gaps[idx] != gap:
            return AssertionError(f"pool input {idx} gave gap {gap!r}, earlier {self.gaps[idx]!r}")
        self.gaps[idx] = gap
        return None

    def gap_mean(self) -> float:
        gaps = [g for g in self.gaps.values() if g is not None]
        return statistics.fmean(gaps) if gaps else 0.0     # no checked op: run is incorrect


def ops_per_s(lat: list[float], failed: int) -> float:
    return (len(lat) - failed) / sum(lat)


def tail_latency(lat: list[float], pct: float) -> tuple[float, float]:
    """Nearest-rank latency at pct, or the highest lower ladder percentile
    that still leaves at least ten samples beyond it."""
    s = sorted(lat)
    for q in (pct,) + tuple(x for x in TAIL_LADDER if x < pct):
        rank = math.ceil(q / 100.0 * len(s))
        if len(s) - rank >= 10:
            return s[rank - 1], q
    return s[-1], 100.0


def min_ops(wl, pool) -> int:
    """Enough ops for ten samples beyond the tail percentile, and a whole pass."""
    return max(len(pool), math.ceil(round(10.0 / (1.0 - wl.tail_pct / 100.0), 6)))


def provenance(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"          # the checkout need not be a git repository
    try:
        # the ceiling keeps git from searching above the checkout
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "commit": commit}


def timings(lat: list[float], failed: int, setup: list[float], tail_pct: float) -> dict:
    tail, _ = tail_latency(lat, tail_pct)
    return {"ops_per_s": ops_per_s(lat, failed), "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": tail * 1e3, "setup_s": statistics.median(setup)}


def end_to_end(wl, args, t_begin: float) -> tuple[dict, dict]:
    pool = make_pool(wl, args.seed)
    lib, first, first_scale = set_up(wl, pool)
    setups = [(first, first_scale)] + [probe_setup(wl.name, args.seed)
                                       for _ in range(SETUP_SAMPLES - 1)]
    run = Run(wl, lib, pool, t_begin + HARD_LIMIT_S)
    lat, cal = run.passes(args.seconds, min_ops(wl, pool))
    failed = len(run.failures)
    scales = cal.scales(len(lat))
    scaled = [t * s for t, s in zip(lat, scales)]
    values = timings(scaled, failed, [t * s for t, s in setups], wl.tail_pct)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["gap_bits_mean"] = run.gap_mean()
    metrics = {k: (values[k],) + v for k, v in END_TO_END.items()}
    info = {"attempted": len(lat), "failed": failed, "failures": run.failures[:20],
            "error_rate": failed / len(lat), "tail_percentile": tail_latency(lat, wl.tail_pct)[1],
            "samples": len(lat), "pool": len(pool), "pool_covered": len(run.gaps),
            "raw": timings(lat, failed, [t for t, _ in setups], wl.tail_pct),
            "kernel_ms": cal.median_ms(), "setup_samples": setups,
            "latencies_ms": [t * 1e3 for t in lat], "scales": scales,
            "kernel_marks": cal.marks, "kernel_times_ms": [t * 1e3 for t in cal.times],
            "correct": failed == 0 and len(run.gaps) == len(pool)}
    return metrics, info


def traced(wl, args, t_begin: float) -> tuple[dict, dict]:
    pool = make_pool(wl, args.seed)
    lib, _, _ = set_up(wl, pool)
    run = Run(wl, lib, pool, t_begin + HARD_LIMIT_S)
    plain, plain_cal = run.passes(args.seconds / 2.0, 1)
    plain_failed = len(run.failures)
    tracer = Tracer(lib.mc)
    tracer.install()
    try:
        lat, cal = run.passes(args.seconds / 2.0, 1, tracer)
    finally:
        tracer.uninstall()
    failed = len(run.failures) - plain_failed
    scales = cal.scales(len(lat))
    metrics, balance = tracer.metrics(scales)
    overhead = (ops_per_s([t * s for t, s in zip(lat, scales)], failed)
                / ops_per_s([t * s for t, s in zip(plain, plain_cal.scales(len(plain)))],
                            plain_failed))
    metrics["trace.overhead"] = (overhead, "ratio", "higher")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{wl.name}-seed{args.seed}-spans.csv")
    attempted = len(plain) + len(lat)
    info = {"attempted": attempted, "failed": len(run.failures), "failures": run.failures[:20],
            "error_rate": len(run.failures) / attempted, "traced_ops": len(lat),
            "untraced_ops": len(plain), "self_time_balance": balance,
            "correct": not run.failures and balance["adds_up"]}
    return metrics, info


def report(wl, args, metrics: dict, info: dict) -> dict:
    prov = provenance(args)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit, better) in metrics.items():
        print(f"  {name:<52} {value:>16.6g} {unit:<12} ({better} is better)")
    print(f"  {'error_rate':<52} {info['error_rate']:>16.6g} {'ratio':<12} "
          f"({info['failed']} of {info['attempted']} ops failed)")
    if args.trace:
        b = info["self_time_balance"]
        print(f"  layer self {b['layer_self_ns'] / 1e6:.3f} ms + uncovered "
              f"{b['uncovered_ns'] / 1e6:.3f} ms = traced op time {b['op_ns'] / 1e6:.3f} ms: "
              f"{'adds up' if b['adds_up'] else 'DOES NOT ADD UP'}")
    else:
        print(f"  latency_tail_ms is p{info['tail_percentile']:g} of {info['samples']} samples; "
              f"pool {info['pool']} inputs, {info['pool_covered']} covered")
        print(f"  times above are at reference speed; the kernel took {info['kernel_ms']:.3f} ms "
              f"(reference {REF_S * 1e3:g} ms). Raw: "
              + ", ".join(f"{k} {v:.6g}" for k, v in info["raw"].items()))
    for line in info["failures"]:
        print(f"  FAILED {line}")
    print(f"provenance {json.dumps(prov)}")
    result = {"correct": bool(info["correct"]), "attempted": info["attempted"],
              "failed": info["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "info": info, "provenance": prov}, fh, indent=1)
    return result


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = res.stdout.strip().splitlines()
        if lines[:-1]:
            print("\n".join(lines[:-1]), flush=True)
        one = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if res.returncode not in (0, 1) or one is None:
            print(f"workload {name}: exit code {res.returncode}, no result", file=sys.stderr)
            return 2
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    t_begin = time.perf_counter()
    if args.workload == "all":
        return run_all(args)
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        _, seconds, scale = set_up(wl, make_pool(wl, args.seed))
        print(json.dumps({"setup_s": seconds, "scale": scale}))
        return 0
    metrics, info = (traced if args.trace else end_to_end)(wl, args, t_begin)
    result = report(wl, args, metrics, info)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
