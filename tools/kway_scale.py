"""Time k_min_entropy_coupling as the number of marginals k grows.

    python3 tools/kway_scale.py                  # this checkout's src/
    python3 tools/kway_scale.py --src OTHER/src  # another tree, for a before/after pair

For each k in KS a fresh Python process imports mecouple from --src, draws k
Dirichlet(1) marginals of length N from numpy.random.default_rng([SEED, k]),
validates them with make_probvec outside the timed region, and times REPEATS
calls of k_min_entropy_coupling. The processes run one after another. One
JSON object goes to stdout: per k the best and the median time, the
process's peak RSS (ru_maxrss, which includes the interpreter and numpy) and
the number of joint entries, plus nproc, Python and numpy versions.
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
N = 64
KS = (8, 32, 128, 512)
REPEATS = 3
SEED = 0


def child(src: str, k: int) -> dict:
    sys.path.insert(0, src)
    import numpy as np
    import mecouple as mc

    rng = np.random.default_rng([SEED, k])
    ps = [mc.make_probvec(row) for row in rng.dirichlet(np.ones(N), size=k)]
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        joint = mc.k_min_entropy_coupling(ps)
        times.append(time.perf_counter() - start)
        entries = len(joint.entries)
        del joint  # so the next call's peak does not include this result
    return {
        "k": k,
        "n": N,
        "best_s": min(times),
        "median_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "entries": entries,
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
    for k in KS:
        cmd = [sys.executable, __file__, "--src", args.src, "--child", str(k)]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout.splitlines()[-1]))
    import numpy

    print(json.dumps({
        "tool": "tools/kway_scale.py",
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
