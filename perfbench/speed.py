"""The speed of the vCPU a pass runs on, and times scaled to a fixed speed.

On a shared host the speed of one vCPU swings by about 1.5x in phases
that last seconds to minutes, and so does every wall time measured on
it; the two vCPUs of a 2-vCPU guest do not swing together.  The runner
therefore pins itself and every worker it starts to one vCPU, and while
a worker runs it times a fixed ~0.5 ms kernel (a small complex matmul and
a pure-Python loop, like the program's own mix) every ``PERIOD_S`` in
thread CPU time, which excludes the time the kernel waited for the
worker.  The kernel's cost over time gives the vCPU's speed over time,
and ``ref_seconds`` turns an interval of wall time into the seconds the
same work takes at the reference speed: the integral of
``REF_COST_S / cost(t)`` over the interval.  A change to the program
moves these times as it moves wall time; the host's phases do not.
"""
from __future__ import annotations

import bisect
import statistics
import time

PERIOD_S = 0.05
# Kernel cost at the reference speed: the median on a 2-vCPU KVM guest of
# an Intel Xeon (family 6, model 207), so reference seconds read close to
# the wall seconds of that machine.
REF_COST_S = 0.5e-3


class SpeedProbe:
    def __init__(self):
        import numpy as np

        self._a = (np.random.default_rng(0).standard_normal((64, 64)) + 0j)
        self.times: list[float] = []          # time.monotonic() at mid-kernel
        self.costs: list[float] = []          # thread CPU seconds of the kernel

    def sample(self) -> None:
        t0, c0 = time.monotonic(), time.thread_time()
        for _ in range(4):
            self._a @ self._a
        s = 0
        for i in range(3000):
            s += i * i
        cost = time.thread_time() - c0
        self.times.append((t0 + time.monotonic()) / 2)
        self.costs.append(cost)

    def ref_seconds(self, t0: float, t1: float) -> float:
        return ref_seconds(self.times, self.costs, t0, t1)


def ref_seconds(times, costs, t0: float, t1: float, ref_cost: float = REF_COST_S) -> float:
    """Seconds that the wall interval [t0, t1] takes at the reference speed.

    Each sample's speed holds from halfway after the previous sample to
    halfway before the next one (the first and last extend outwards); a
    sample's cost is first replaced by the median of it and its two
    neighbours, so one kernel hit by an interrupt does not count.
    """
    if not times:
        raise ValueError("no speed samples")
    n = len(costs)
    smooth = [statistics.median(costs[max(0, i - 1):i + 2]) for i in range(n)]
    edges = [(a + b) / 2 for a, b in zip(times, times[1:])]
    total = 0.0
    i = bisect.bisect_right(edges, t0)
    lo = t0
    while lo < t1:
        hi = min(t1, edges[i]) if i < len(edges) else t1
        total += (hi - lo) * ref_cost / smooth[i]
        lo, i = hi, i + 1
    return total
