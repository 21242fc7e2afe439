"""Machine-speed calibration, so that timings survive a host whose speed drifts.

On the shared 2-vCPU VM this benchmark was built on, the same op ran at two
speeds about 2x apart. The mode changed every fraction of a second to every
few minutes, with no steal time and with process CPU time equal to wall time,
so the slowdown comes from contention on the host. A fixed reference kernel,
independent of mecouple, is timed between ops throughout each run. Each op's
time is then scaled by REF_S / (kernel time measured next to it), which states
it at the speed where the kernel takes REF_S. Raw times are reported too.

The kernel mixes the kinds of work mecouple's ops do: interpreter loops with
float formatting, JSON encoding of nested lists, and a list-to-array round trip
with a vectorised log. It allocates few garbage-collected containers, so it
does not trigger collections that depend on the program's live objects.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

REF_S = 0.004               # the kernel time that defines reference speed
CHUNK_S = 0.02              # time the kernel at least once per this much op time
_VALUES = np.random.default_rng(2017).uniform(0.1, 1.0, 20_000)
_LIST = _VALUES.tolist()
_ROWS = _VALUES[:1600].reshape(40, 40).tolist()


def kernel() -> float:
    """Run the reference kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for v in _LIST[:3000]:
        acc += float(f"{v:.12g}")
    acc += len(json.dumps(_ROWS))
    arr = np.asarray(list(_LIST))
    acc += float((arr * np.log2(arr)).sum())
    elapsed = time.perf_counter() - t0
    if acc == 0.0:              # keeps the work observable; never true
        raise AssertionError
    return elapsed


class Calibrator:
    """Kernel timings taken during a loop, keyed by the op index they precede."""

    def __init__(self) -> None:
        self.marks: list[int] = []
        self.times: list[float] = []
        self._since = CHUNK_S

    def before_op(self, op: int, last_op_s: float) -> None:
        """Call before each op with the previous op's time (0 for the first)."""
        self._since += last_op_s
        if self._since >= CHUNK_S:
            self.marks.append(op)
            self.times.append(kernel())
            self._since = 0.0

    def finish(self, n_ops: int) -> None:
        """A closing kernel run, so the last ops are bracketed too."""
        self.marks.append(n_ops)
        self.times.append(kernel())

    def scales(self, n_ops: int) -> list[float]:
        """Per-op scale: REF_S over the mean of the two kernel runs that open
        and close the op's chunk. Wider windows tracked the host worse."""
        out = []
        for i in range(n_ops):
            j = bisect.bisect_right(self.marks, i) - 1
            out.append(REF_S / statistics.fmean(self.times[j: j + 2]))
        return out

    def median_ms(self) -> float:
        return statistics.median(self.times) * 1e3
