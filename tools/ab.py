"""Time one call of two mecouple trees against each other, in one process.

    python3 tools/ab.py --base OLD/src --change src --call exact_min_entropy \\
        --pool cli --pool-seed 1 --command oracle --rounds 40
    python3 tools/ab.py --base OLD/src --change src --call exact_min_entropy \\
        --shape 5 5 --count 10 --rounds 5
    python3 tools/ab.py --base OLD/src --change src --call k_min_entropy_coupling \\
        --shape 64 64 64 64 --grid 64 --count 10

Both trees' mecouple packages are imported into this process under the
module names mecouple_base and mecouple_change (the package uses relative
imports only), so the host's speed modes, which move a stage by up to 1.5×
between processes, reach both trees alike. A tree directory is either the
one holding the mecouple package (as tools/scale.py's --src) or a checkout
whose src/ holds it.

Inputs are built once, before anything is timed: either the instances of a
bench/workloads.py pool (--pool, from the seed bench/run.py gives it, with
--command keeping only the cli pool's instances of one command), or --count
Dirichlet(--alpha) draws of the marginal lengths --shape from
numpy.random.default_rng([--seed, *shape]). With --grid N a marginal of
length n is drawn as multinomial(N, uniform over n) / N instead, as
bench/workloads.py draws its exact 1/64 ties: multiples of 1/N summing to
exactly 1, with many exact ties and zeros. Each tree validates its own
inputs with its own make_probvec, outside the timed calls.

--call is one of CALLS: the stage names of tools/scale.py's stage rows
(its STAGES, each built only for the call that names it),
k_min_entropy_coupling (over every marginal of an instance) and
exact_min_entropy (on its first two), and cli.main (an instance's argv, or
--command and the marginals as JSON, stdout captured). The stages prepare,
fill and check call the wrappers of the same name in mecouple._native; a
tree from before those wrappers (whose coupling called pairwise._prepare,
_fill and _check_pieces) lacks them, so across that change compare
--call min_entropy_coupling or glb instead.

Each tree first runs every instance once, untimed; those outputs are
compared byte for byte (arrays by dtype, shape and bytes, floats by their
bits, result objects field by field, a raised exception by its class name).
Then each round times every instance once per tree, the instances in a
shuffled order and, per instance, the tree that goes first drawn at random.
A round's ratio is the base tree's total time over the change tree's, so a
ratio above 1 means the change is faster. The garbage collector stays on,
as in a caller's process, but a full collection runs after every timed
call, untimed: each call starts from the same collector state, and the
cyclic garbage one tree leaves is neither timed nor charged to the other
tree. Its count is reported per call for each tree.

One JSON object goes to stdout: the ratio's median and quartiles over the
rounds, each tree's median time per call in ms, whether the outputs were
identical (with the first differing instances if not), and the
NUMPY_MADVISE_HUGEPAGE setting of the process ("default" where unset),
which moves large-array timings by up to 2x. The exit code
is 1 when the outputs differ.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import statistics
import struct
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _load_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


scale = _load_module("scale", ROOT / "tools" / "scale.py")
CALLS = scale.STAGES + ("k_min_entropy_coupling", "exact_min_entropy", "cli.main")


def load_tree(directory: str, name: str) -> SimpleNamespace:
    """Import the mecouple package under directory as the module name."""
    path = Path(directory)
    package = path / "mecouple" if (path / "mecouple").is_dir() else path / "src" / "mecouple"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    if spec is None:
        raise SystemExit(f"ab: no mecouple package under {directory}")
    mc = importlib.util.module_from_spec(spec)
    sys.modules[name] = mc  # before it runs, so its relative imports resolve
    spec.loader.exec_module(mc)
    return SimpleNamespace(mc=mc, cli=importlib.import_module(f"{name}.cli"))


def pool_instances(workload: str, seed: int, command: str | None) -> list:
    """(marginals, argv) for each instance of a bench/workloads.py pool."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    stream = sorted(WORKLOADS).index(workload)  # as bench/run.py's make_pool
    pool = WORKLOADS[workload].pool(np.random.default_rng([seed, stream]), False)
    if workload == "cli":
        return [([p, q], argv) for cmd, p, q, argv in pool if command in (None, cmd)]
    return [(list(inst), None) for inst in pool]  # a pair, or kway's k marginals


def drawn_instances(seed: int, shape: list[int], count: int, alpha: float,
                    grid: int | None = None) -> list:
    rng = np.random.default_rng([seed, *shape])

    def draw(n: int) -> np.ndarray:
        if grid is None:
            return rng.dirichlet(np.full(n, alpha))
        return rng.multinomial(grid, np.full(n, 1.0 / n)) / grid

    return [([draw(n) for n in shape], None) for _ in range(count)]


def prepare(tree: SimpleNamespace, call: str, inst, command: str):
    """A thunk running call on inst with tree; its validation is done here."""
    mc = tree.mc
    vectors, argv = inst
    if call in scale.STAGES:
        return scale.stage_call(mc, np, vectors[0], vectors[1], call)
    if call == "cli.main":
        if argv is None:
            argv = [command, *(json.dumps(v.tolist()) for v in vectors)]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = tree.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue()
        return run
    ps = [mc.make_probvec(v) for v in vectors]
    if call == "k_min_entropy_coupling":
        return lambda: mc.k_min_entropy_coupling(ps)
    return lambda: mc.exact_min_entropy(ps[0], ps[1])


def encode(x, out: list) -> None:
    """Append bytes that two trees' equal outputs share, whatever their module names."""
    if isinstance(x, np.ndarray):
        out += [f"a{x.dtype.str}{x.shape}".encode(), np.ascontiguousarray(x).tobytes()]
    elif isinstance(x, np.generic):
        out += [f"s{x.dtype.str}".encode(), x.tobytes()]
    elif isinstance(x, float):
        out.append(b"f" + struct.pack("<d", x))
    elif x is None or isinstance(x, (bool, int, str)):
        out.append(f"{type(x).__name__}:{x!r}".encode())
    elif isinstance(x, BaseException):
        out.append(f"raised {type(x).__name__}".encode())
    elif isinstance(x, (tuple, list)):
        out.append(f"{type(x).__name__}{len(x)}(".encode())
        for item in x:
            encode(item, out)
        out.append(b")")
    else:  # a result object: its class name and its instance fields, by name
        out.append(f"{type(x).__name__}{{".encode())
        for name, value in sorted(vars(x).items()):
            out.append(name.encode())
            encode(value, out)
        out.append(b"}")


def output_bytes(thunk) -> bytes:
    try:
        result = thunk()
    except Exception as exc:
        result = exc
    out: list[bytes] = []
    encode(result, out)
    return b"".join(out)


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(base, change, call: str, instances: list, command: str, rounds: int, seed: int) -> dict:
    thunks = {side: [prepare(tree, call, inst, command) for inst in instances]
              for side, tree in (("base", base), ("change", change))}
    differing = [k for k, (b, c) in enumerate(zip(thunks["base"], thunks["change"]))
                 if output_bytes(b) != output_bytes(c)]
    order_rng = random.Random(seed)
    order = list(range(len(instances)))
    totals = {"base": [], "change": []}
    garbage = {"base": 0, "change": 0}
    ratios = []
    gc.collect()
    gc.freeze()  # the inputs and both trees, so that the collections below skip them
    try:
        for _ in range(rounds):
            order_rng.shuffle(order)
            spent = {"base": 0.0, "change": 0.0}
            for k in order:
                sides = ["base", "change"]
                order_rng.shuffle(sides)
                for side in sides:
                    thunk = thunks[side][k]
                    start = time.perf_counter()
                    try:
                        thunk()
                    except Exception:
                        pass  # the outcome was compared above; only the time counts here
                    spent[side] += time.perf_counter() - start
                    garbage[side] += gc.collect()  # untimed, so neither tree pays for the other's
            for side in spent:
                totals[side].append(spent[side])
            ratios.append(spent["base"] / spent["change"])
    finally:
        gc.unfreeze()
    q1, median, q3 = _quartiles(ratios)
    per_call_ms = {side: 1e3 * statistics.median(t) / len(instances) for side, t in totals.items()}
    return {
        "ratio_median": median,
        "ratio_q1": q1,
        "ratio_q3": q3,
        "base_median_ms": per_call_ms["base"],
        "change_median_ms": per_call_ms["change"],
        "cyclic_garbage_per_call": {side: n / (rounds * len(instances))
                                    for side, n in garbage.items()},
        "outputs_identical": not differing,
        "differing_instances": differing[:10],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the tree to compare against")
    parser.add_argument("--change", required=True, help="the tree under test")
    parser.add_argument("--call", required=True, choices=CALLS)
    parser.add_argument("--pool", choices=("pair-small", "pair-large", "kway", "cli"),
                        help="take the inputs from this bench workload's pool")
    parser.add_argument("--pool-seed", type=int, default=1, help="the pool's bench/run.py seed")
    parser.add_argument("--command", help="cli pool: keep only this command's instances; "
                        "drawn inputs: the cli.main command (default couple)")
    parser.add_argument("--shape", type=int, nargs="+", default=[4, 4],
                        help="drawn inputs: the marginals' lengths")
    parser.add_argument("--count", type=int, default=20, help="drawn inputs: instances")
    parser.add_argument("--alpha", type=float, default=1.0, help="drawn inputs: Dirichlet alpha")
    parser.add_argument("--grid", type=int, metavar="N",
                        help="drawn inputs: multiples of 1/N, multinomial(N) / N, not Dirichlet")
    parser.add_argument("--seed", type=int, default=0, help="drawn inputs and the call order")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.grid is not None and args.grid < 1:
        parser.error("--grid must be at least 1")
    if args.pool is not None:
        instances = pool_instances(args.pool, args.pool_seed, args.command)
        inputs = {"pool": args.pool, "pool_seed": args.pool_seed, "command": args.command}
    else:
        instances = drawn_instances(args.seed, args.shape, args.count, args.alpha, args.grid)
        inputs = {"shape": args.shape, "count": args.count, "seed": args.seed,
                  **({"alpha": args.alpha} if args.grid is None else {"grid": args.grid})}
    if not instances:
        parser.error("no instances")
    base = load_tree(args.base, "mecouple_base")
    change = load_tree(args.change, "mecouple_change")
    result = compare(base, change, args.call, instances, args.command or "couple",
                     args.rounds, args.seed)
    print(json.dumps({
        "tool": "tools/ab.py",
        "base": args.base,
        "change": args.change,
        "call": args.call,
        "inputs": inputs,
        "instances": len(instances),
        "rounds": args.rounds,
        **result,
        # numpy read it when this process imported numpy: "default" where unset
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE", "default"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }, indent=1))
    return 0 if result["outputs_identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
