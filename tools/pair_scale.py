"""Time the pairwise path (make_probvec twice, then min_entropy_coupling) as n grows.

    python3 tools/pair_scale.py                  # this checkout's src/
    python3 tools/pair_scale.py --src OTHER/src  # another tree, for a before/after pair

For each n in NS a fresh Python process imports mecouple from --src, draws
two Dirichlet(1) vectors of length n from numpy.random.default_rng([SEED, n])
before anything is timed, and runs REPEATS rounds. Each round times the two
make_probvec calls on the raw arrays and then min_entropy_coupling on their
results. The processes run one after another. One JSON object goes to
stdout: per n the best and the median time of each stage, the process's
peak RSS (ru_maxrss, which includes the interpreter and numpy) and the
coupling's nnz, plus nproc, Python and numpy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"
NS = (16, 1024, 65_536, 1_000_000)
REPEATS = 3
SEED = 0


def child(src: str, n: int) -> dict:
    sys.path.insert(0, src)
    import numpy as np
    import mecouple as mc

    rng = np.random.default_rng([SEED, n])
    raw_p, raw_q = rng.dirichlet(np.ones(n), size=2)
    validate, couple = [], []
    for _ in range(REPEATS):
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
    return {
        "n": n,
        "make_probvec_x2_best_s": min(validate),
        "make_probvec_x2_median_s": statistics.median(validate),
        "coupling_best_s": min(couple),
        "coupling_median_s": statistics.median(couple),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "nnz": nnz,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(DEFAULT_SRC), help="directory holding the mecouple package")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.src, args.child)))
        return 0
    # as in bench/run.py: transparent huge pages make peak RSS vary run to run
    env = dict(os.environ, NUMPY_MADVISE_HUGEPAGE="0")
    runs = []
    for n in NS:
        cmd = [sys.executable, __file__, "--src", args.src, "--child", str(n)]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    import numpy

    print(json.dumps({
        "tool": "tools/pair_scale.py",
        "repeats": REPEATS,
        "seed": SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "runs": runs,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
