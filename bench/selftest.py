"""Self-test of the benchmark: the checker rejects perturbed outputs, and a
tiny-size run of every workload, untraced and traced, passes its checks.

    python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import time
import unittest

import numpy as np

import check
import run
from spans import LAYERS, Tracer
from workloads import (WORKLOADS, cli_check, cli_op, cli_reference, kway_check, kway_op,
                       pair_check, pair_op)

LIB, _ = run.import_mecouple()


def tiny_pool(name: str) -> list:
    return run.make_pool(WORKLOADS[name], seed=7, tiny=True)


class CheckerRejectsPerturbedOutputs(unittest.TestCase):
    def pair(self):
        inst = tiny_pool("pair-small")[1]
        out = pair_op(LIB, inst)
        pair_check(inst, out, None)     # the genuine output passes
        return inst, out

    def assert_rejected(self, fn, *args) -> None:
        with self.assertRaises(check.CheckFailed):
            fn(*args, None)

    def with_matrix(self, out, matrix: np.ndarray):
        p, q, cm, h, rep = out
        matrix.flags.writeable = False
        return p, q, dataclasses.replace(cm, matrix=matrix), h, rep

    def test_moved_mass_breaks_marginals(self) -> None:
        inst, out = self.pair()
        m = out[2].matrix.copy()
        i, j = np.argwhere(m > 1e-3)[0]
        m[i, j] -= 1e-6
        m[i, (j + 1) % m.shape[1]] += 1e-6          # row sums still hold, columns do not
        self.assert_rejected(pair_check, inst, self.with_matrix(out, m))

    def test_added_mass_breaks_total(self) -> None:
        inst, out = self.pair()
        m = out[2].matrix.copy()
        m[0, 0] += 1e-6
        self.assert_rejected(pair_check, inst, self.with_matrix(out, m))

    def test_product_coupling_breaks_sandwich_and_support(self) -> None:
        inst, out = self.pair()
        p, q = out[0], out[1]
        n = out[2].n
        prod = np.outer(np.pad(p.values, (0, n - p.n)), np.pad(q.values, (0, n - q.n)))
        self.assert_rejected(pair_check, inst, self.with_matrix(out, prod))

    def test_wrong_entropy_is_rejected(self) -> None:
        inst, out = self.pair()
        self.assert_rejected(pair_check, inst, out[:3] + (out[3] + 1e-6,) + out[4:])

    def test_perturbed_joint_is_rejected(self) -> None:
        inst = tiny_pool("kway")[0]
        ps, joint, h, h_meet = kway_op(LIB, inst)
        kway_check(inst, (ps, joint, h, h_meet), None)
        (v0, c0), (v1, c1) = joint.entries[:2]
        moved = ((v0 + 1e-6, c0), (v1 - 1e-6, c1)) + joint.entries[2:]
        bad = dataclasses.replace(joint, entries=moved)
        self.assert_rejected(kway_check, inst, (ps, bad, h, h_meet))

    def test_altered_cli_output_is_rejected(self) -> None:
        pool = tiny_pool("cli")
        idx = next(i for i, inst in enumerate(pool) if inst[0] == "couple")
        ref = cli_reference(LIB, pool[idx])
        rc, text = cli_op(LIB, pool[idx])
        cli_check(pool[idx], (rc, text), ref)
        doc = json.loads(text)
        doc["joint_entropy"] += 1e-9
        bad = json.dumps(doc, separators=(",", ":")) + "\n"
        with self.assertRaises(check.CheckFailed):
            cli_check(pool[idx], (0, bad), ref)


class TinyRunsPass(unittest.TestCase):
    def run_tiny(self, name: str, traced: bool) -> None:
        wl = WORKLOADS[name]
        pool = tiny_pool(name)
        r = run.Run(wl, LIB, pool, time.perf_counter() + 60.0)
        tracer = Tracer(LIB.mc) if traced else None
        if tracer:
            tracer.install()
        try:
            lat, cal = r.passes(0.0, 1, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        self.assertEqual(r.failures, [])
        self.assertEqual(len(lat), len(pool))
        self.assertEqual(len(r.gaps), len(pool))
        self.assertGreater(r.gap_mean(), 0.0)
        if tracer:
            metrics, balance = tracer.metrics(cal.scales(len(lat)))
            self.assertTrue(balance["adds_up"], balance)
            self.assertTrue(all(f"{layer}.self_ms" in metrics for layer in LAYERS))
            self.assertGreater(metrics["pairwise.min_entropy_coupling.calls"][0], 0.0)
            self.assertEqual(sum(metrics[f"{layer}.failed"][0] for layer in LAYERS), 0)

    def test_every_workload(self) -> None:
        for name in WORKLOADS:
            for traced in (False, True):
                with self.subTest(workload=name, traced=traced):
                    self.run_tiny(name, traced)

    def test_tracer_restores_the_library(self) -> None:
        before = (LIB.mc.min_entropy_coupling, LIB.mc.pairwise.CouplingMatrix.entropy, LIB.cli.main)
        self.run_tiny("cli", traced=True)
        after = (LIB.mc.min_entropy_coupling, LIB.mc.pairwise.CouplingMatrix.entropy, LIB.cli.main)
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()
