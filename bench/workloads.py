"""The four workloads: seeded input pools, the op each one times, and its check.

Every pool is generated from the seed before anything is timed; the program
receives only the generated arrays (or, for the CLI, argv strings holding
them as JSON). A run cycles through its pool in whole passes.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import check


@dataclass(frozen=True)
class Workload:
    name: str
    tail_pct: float     # fixed so runs of different speed report the same percentile
    pool: Callable[[np.random.Generator, bool], list]
    op: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], float | None]          # (inst, out, ref) -> gap
    reference: Callable[[Any, Any], Any] | None = None      # (lib, inst) -> ref, untimed

    def warmup(self, pool: list) -> list[int]:
        """Pool indices run once, untimed, before the loop: one of each op kind."""
        if self.name != "cli":
            return [0]
        first: dict[str, int] = {}
        for i, inst in enumerate(pool):
            first.setdefault(inst[0], i)
        return sorted(first.values())


# ---- pair-small / pair-large ----------------------------------------------

def _ties(rng: np.random.Generator, n: int) -> np.ndarray:
    """Multiples of 1/64 summing to exactly 1: many exact ties and zeros."""
    return rng.multinomial(64, np.full(n, 1.0 / n)) / 64.0


def pair_small_pool(rng: np.random.Generator, tiny: bool) -> list:
    size = 20 if tiny else 1000
    tied = set(rng.permutation(size)[: size // 4].tolist())
    pool = []
    for i in range(size):
        n, m = (int(x) for x in rng.integers(8, 65, size=2))
        if i in tied:
            pool.append((_ties(rng, n), _ties(rng, m)))
        else:
            pool.append((rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))))
    return pool


def pair_large_pool(rng: np.random.Generator, tiny: bool) -> list:
    size, n = (2, 64) if tiny else (80, 2048)
    return [(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))) for _ in range(size)]


def pair_op(lib, inst):
    mc = lib.mc
    p = mc.make_probvec(inst[0])
    q = mc.make_probvec(inst[1])
    cm = mc.min_entropy_coupling(p, q)
    return p, q, cm, cm.entropy(), mc.bounds(p, q)


def pair_check(inst, out, ref):
    raw_p, raw_q = inst
    p, q, cm, h, rep = out
    check.probvec(p, raw_p)
    check.probvec(q, raw_q)
    h_m, h_z = check.coupling(cm, raw_p, raw_q)
    check.close(h, h_m, "CouplingMatrix.entropy")
    check.bounds_report(rep, raw_p, raw_q, h_z)
    return h_m - h_z


# ---- kway -------------------------------------------------------------------

def kway_pool(rng: np.random.Generator, tiny: bool) -> list:
    size, k, n = (2, 5, 6) if tiny else (40, 48, 64)
    return [[rng.dirichlet(np.ones(n)) for _ in range(k)] for _ in range(size)]


def kway_op(lib, inst):
    mc = lib.mc
    ps = [mc.make_probvec(raw) for raw in inst]
    joint = mc.k_min_entropy_coupling(ps)
    h = joint.entropy()
    meet = ps[0]
    for other in ps[1:]:        # folded the way `mecouple couple-k` does it
        meet = mc.glb(meet, other).meet
    return ps, joint, h, mc.entropy(meet)


def kway_check(inst, out, ref):
    ps, joint, h, h_meet = out
    for p, raw in zip(ps, inst):
        check.probvec(p, raw)
    h_j, h_z = check.joint(joint, inst)
    check.close(h, h_j, "SparseJoint.entropy")
    check.close(h_meet, h_z, "folded meet entropy")
    return h_j - h_z


# ---- cli --------------------------------------------------------------------

CLI_SIZES = {"couple": 192, "oracle": 4, "distance": 256, "bounds": 1024}
CLI_TINY = {"couple": 12, "oracle": 3, "distance": 16, "bounds": 32}
CLI_BLOCK = ("couple", "couple", "oracle", "distance", "bounds")   # the 2:1:1:1 mix


def cli_pool(rng: np.random.Generator, tiny: bool) -> list:
    sizes = CLI_TINY if tiny else CLI_SIZES
    pool = []
    for _ in range(2 if tiny else 20):
        # shuffled within each block of five, so any prefix keeps the mix
        for cmd in rng.permutation(CLI_BLOCK):
            cmd = str(cmd)
            n = sizes[cmd]
            p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            pool.append((cmd, p, q, [cmd, json.dumps(p.tolist()), json.dumps(q.tolist())]))
    return pool


def cli_op(lib, inst):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = lib.cli.main(inst[3])
    return rc, out.getvalue()


def _sig_matrix(mat: np.ndarray) -> np.ndarray:
    return np.array([[check.sig(v) for v in row] for row in mat])


def cli_reference(lib, inst) -> dict:
    """The library's answer to one CLI command, itself checked independently.

    Returns the expected JSON document (its matrix as an array), the entropy
    the printed matrix must have, and the coupling gap where there is one.
    """
    mc = lib.mc
    cmd, raw_p, raw_q, _ = inst
    p, q = mc.make_probvec(raw_p), mc.make_probvec(raw_q)
    cm = mc.min_entropy_coupling(p, q)
    h_m, h_z = check.coupling(cm, raw_p, raw_q)
    h_p, h_q = check.entropy(raw_p), check.entropy(raw_q)
    ref = {"matrix": None, "matrix_entropy": None, "gap": None}
    if cmd == "couple":
        lib_h_m = cm.entropy()
        lib_h_z = mc.entropy(mc.glb(p, q).meet)
        check.close(lib_h_m, h_m, "couple joint entropy")
        check.close(lib_h_z, h_z, "couple glb entropy")
        ref["doc"] = {
            "order": "original", "rows": len(raw_p), "cols": len(raw_q),
            "joint_entropy": check.sig(lib_h_m), "glb_entropy": check.sig(lib_h_z),
            "gap": check.sig(lib_h_m - lib_h_z), "nnz": cm.nnz, "unit": "bits",
        }
        ref["matrix"] = _sig_matrix(cm.in_original_order()[: len(raw_p), : len(raw_q)])
        ref["matrix_entropy"] = h_m
        ref["gap"] = h_m - h_z
    elif cmd == "oracle":
        opt, vc = mc.exact_min_entropy(p, q)
        check.expect(h_z - check.TOL <= opt <= h_m + check.TOL,
                     f"oracle: H(meet)={h_z!r} opt={opt!r} H(M)={h_m!r}")
        mat = np.zeros(vc.matrix.shape)
        mat[np.ix_(np.asarray(p.perm), np.asarray(q.perm))] = vc.matrix
        ref["doc"] = {"opt_entropy": check.sig(opt), "order": "original",
                      "support_size": vc.support_size, "unit": "bits"}
        ref["matrix"] = _sig_matrix(mat)
        ref["matrix_entropy"] = opt
    elif cmd == "distance":
        di = mc.distance_interval(p, q)
        check.close(di.lower, 2 * h_z - h_p - h_q, "distance lower")
        check.close(di.upper, 2 * h_m - h_p - h_q, "distance upper")
        check.close(di.estimate, di.lower + 1.0, "distance estimate")
        ref["doc"] = {"lower": check.sig(di.lower), "upper": check.sig(di.upper),
                      "estimate": check.sig(di.estimate), "unit": "bits"}
        ref["gap"] = h_m - h_z
    else:
        rep = mc.bounds(p, q)
        check.bounds_report(rep, raw_p, raw_q, h_z)
        ref["doc"] = {field: check.sig(getattr(rep, field)) for field in rep._fields}
        ref["doc"]["unit"] = "bits"
    return ref


def cli_check(inst, out, ref):
    rc, text = out
    check.expect(rc == 0, f"exit code {rc}")
    check.expect(text.endswith("\n") and text.count("\n") == 1, "output is not one line")
    doc = json.loads(text)
    if ref["matrix"] is not None:
        mat = np.asarray(doc.pop("matrix"), dtype=float)
        check.expect(mat.shape == ref["matrix"].shape and np.array_equal(mat, ref["matrix"]),
                     "printed matrix differs from the library's at 12 digits")
        check.marginals(mat, inst[1], inst[2])
        check.close(check.entropy(mat), ref["matrix_entropy"], "printed matrix entropy")
    check.expect(doc == ref["doc"], f"printed {doc} differs from library {ref['doc']}")
    return ref["gap"]


WORKLOADS = {
    "pair-small": Workload("pair-small", 90.0, pair_small_pool, pair_op, pair_check),
    "pair-large": Workload("pair-large", 75.0, pair_large_pool, pair_op, pair_check),
    "kway": Workload("kway", 75.0, kway_pool, kway_op, kway_check),
    "cli": Workload("cli", 90.0, cli_pool, cli_op, cli_check, cli_reference),
}
