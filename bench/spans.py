"""Spans around calls into each mecouple layer, recorded from outside.

While installed, every public name in TRACED is replaced, in each module
namespace that binds it (and on its class, for methods), by a wrapper that
records a span: name, start, end, parent span and op id. Spans stay in memory
and are written out when the run ends. A layer's self time is its span's
duration minus its direct children's, so the layer self times plus the op's
own uncovered remainder add up exactly to the traced op time.
"""

from __future__ import annotations

import functools
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

TRACED = (
    ("probvec", "make_probvec"),
    ("probvec", "entropy_bits"),
    ("lattice", "glb"),
    ("lattice", "meet_values"),
    ("pairwise", "min_entropy_coupling"),
    ("pairwise", "CouplingMatrix.entropy"),
    ("pairwise", "CouplingMatrix.in_original_order"),
    ("pairwise", "bounds"),
    ("pairwise", "distance_interval"),
    ("multiway", "k_min_entropy_coupling"),
    ("multiway", "SparseJoint.entropy"),
    ("oracle", "exact_min_entropy"),
    ("cli", "main"),
)
LAYERS = tuple(f"{module}.{name}" for module, name in TRACED)
OP = "op"
PAIR = "pairwise.min_entropy_coupling"
KWAY = "multiway.k_min_entropy_coupling"

# Shape counts: name -> (unit, better). All are per op except merge_side_max.
COUNTS = {
    "pairwise.nnz": ("cells/op", "lower"),
    "pairwise.segments": ("segments/op", "lower"),
    "pairwise.dense_bytes": ("bytes/op", "lower"),
    "multiway.nnz": ("cells/op", "lower"),
    "multiway.merges": ("merges/op", "lower"),
    "multiway.merge_side_max": ("cells", "lower"),
    "cli.output_bytes": ("bytes/op", "lower"),
}


class Tracer:
    """Spans and shape counts for the ops run while it is installed."""

    def __init__(self, mc) -> None:
        self.mc = mc
        self.modules = [mc] + [getattr(mc, m) for m in ("probvec", "lattice", "pairwise",
                                                        "multiway", "oracle", "cli")]
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self.active = False
        self.failed: Counter = Counter()
        self.counts: Counter = Counter()
        self.merge_side_max = 0
        self._calls: list = []          # (name, span index, args, result) awaiting counts
        self._undo: list = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module, name in TRACED:
            mod = getattr(self.mc, module)
            layer = f"{module}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                self._undo.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, self._wrap(layer, cls.__dict__[meth]))
                continue
            orig = getattr(mod, name)
            traced = self._wrap(layer, orig)
            for m in self.modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, attr, orig))
                        setattr(m, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            idx = len(spans)
            span = [layer, 0, 0, tracer.stack[-1], tracer.op]
            spans.append(span)
            tracer.stack.append(idx)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.failed[layer] += 1
                raise
            finally:
                span[2] = perf_counter_ns()
                tracer.stack.pop()
            if layer in (PAIR, KWAY):
                tracer._calls.append((layer, idx, args, result))
            return result

        return traced

    # -- ops ------------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack = [len(self.spans)]
        self.spans.append([OP, perf_counter_ns(), 0, -1, op])
        self.active = True

    def end_op(self) -> None:
        self.spans[self.stack[0]][2] = perf_counter_ns()
        self.active = False
        self.stack = []
        self._count_shapes()

    def _inside(self, idx: int, layer: str) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return True
            parent = self.spans[parent][3]
        return False

    def _count_shapes(self) -> None:
        """Shape counts from the op's coupling calls, taken after the op's
        clock stopped so they cost no traced time."""
        pairwise = self.mc.pairwise
        for layer, idx, args, result in self._calls:
            if layer == KWAY:
                self.counts["multiway.nnz"] += len(result.entries)
                continue
            p, q = args[0], args[1]
            side = max(p.n, q.n)
            pp, qq = self.mc.pad_to(p, side), self.mc.pad_to(q, side)
            self.counts["pairwise.nnz"] += result.nnz
            self.counts["pairwise.segments"] += pairwise.inversion_points(pp, qq).k
            self.counts["pairwise.dense_bytes"] += 8 * side * side
            if self._inside(idx, KWAY):
                self.counts["multiway.merges"] += 1
                self.merge_side_max = max(self.merge_side_max, side)
        self._calls = []

    # -- results --------------------------------------------------------------

    def self_times(self, scales: list[float]) -> tuple[Counter, Counter, Counter]:
        """(calls, self_ns, scaled self_ns) per span name. The OP entry's self
        time is the part of each op covered by no traced call; scales[op]
        converts an op's times to reference speed (see speed.py)."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        scaled: Counter = Counter()
        for i, (name, start, end, _, op) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child[i]
            scaled[name] += (end - start - child[i]) * scales[op]
        return calls, self_ns, scaled

    def metrics(self, scales: list[float]) -> tuple[dict, dict]:
        """Per-layer metrics as {name: (value, unit, better)}, times at
        reference speed, and the check that layer self times plus the
        uncovered remainder equal the op time (raw integer nanoseconds)."""
        calls, self_ns, scaled = self.self_times(scales)
        ops = calls[OP]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (calls[layer] / ops, "calls/op", "lower")
            out[f"{layer}.self_ms"] = (scaled[layer] / ops / 1e6, "ms/op", "lower")
            out[f"{layer}.failed"] = (self.failed[layer], "count", "lower")
        for name, (unit, better) in COUNTS.items():
            value = self.merge_side_max if name == "multiway.merge_side_max" else self.counts[name] / ops
            out[name] = (value, unit, better)
        op_ns = sum(end - start for name, start, end, _, _ in self.spans if name == OP)
        op_scaled = sum((end - start) * scales[op]
                        for name, start, end, _, op in self.spans if name == OP)
        layer_ns = sum(self_ns[layer] for layer in LAYERS)
        out["trace.op_ms"] = (op_scaled / ops / 1e6, "ms/op", "lower")
        out["trace.uncovered_ms"] = (scaled[OP] / ops / 1e6, "ms/op", "lower")
        balance = {"op_ns": op_ns, "layer_self_ns": layer_ns, "uncovered_ns": self_ns[OP],
                   "adds_up": layer_ns + self_ns[OP] == op_ns}
        return out, balance

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,op,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{op},{parent},{name},{start - t0},{end - t0}\n")
