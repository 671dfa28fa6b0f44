"""A fixed reference workload that measures how fast the machine runs
right now.

The virtual CPUs this benchmark runs on change speed for minutes at a
time (noisy neighbours on the host), and CPU time slows down with wall
time, so neither clock alone can tell a slower program from a slower
machine.  :func:`probe` runs the same interpreter-bound work every time
(dict and attribute traffic, calls, a binary heap and string hashing
over a working set of a few MiB, the mix a discrete-event simulator
makes) and returns its wall time.  It uses only the standard library,
so no change to the program moves it; a run interleaves probes with its
operations and divides its operation time by the probes' time.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import List

__all__ = ["REFERENCE_S", "probe", "Pacer", "bracketed"]

#: probe wall seconds on the reference machine (a quiet 2-vCPU
#: 2.0 GHz Xeon, Python 3.11): normalised times read as seconds there
REFERENCE_S = 0.0050
#: reference work per probe, and wall seconds of operations between
#: probes (a probe costs about a twentieth of that)
PROBE_ROUNDS = 2_000
PERIOD_S = 0.1
#: probes on each side of a one-off step timed by :func:`bracketed`
BRACKET_PROBES = 4


class _Node:
    __slots__ = ("key", "value", "hits")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.hits = 0


_TABLE = None


def _table():
    global _TABLE
    if _TABLE is None:
        table = {f"host{i:05d}.svc{i % 37}": _Node(i, i * 7 % 1009)
                 for i in range(40_000)}
        _TABLE = table, list(table)
    return _TABLE


def _work(rounds: int) -> int:
    table, keys = _table()
    n = len(keys)
    heap = []
    acc = 0
    stride = 7919
    j = 0
    for r in range(rounds):
        j = (j + stride) % n
        node = table[keys[j]]
        node.hits += 1
        acc = (acc + node.value * node.hits) & 0xFFFFFF
        heapq.heappush(heap, ((acc ^ r) % 10007, r, node))
        if len(heap) > 512:
            _, _, old = heapq.heappop(heap)
            acc ^= hash(old.key) & 0xFFFF
        if r % 64 == 0:
            acc += len(f"{node.key}:{acc}")
    return acc


def probe() -> float:
    """Wall seconds of one fixed slice of reference work, with the
    cyclic collector off so the program's heap does not weigh on it."""
    _table()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work(PROBE_ROUNDS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Interleaves probes with a workload's operations.

    The workload calls :meth:`tick` between operations (or between
    short steps of a long one), outside its operation clock.  A probe
    runs once at least ``period`` wall seconds went by since the last,
    so probes sample the machine evenly over the timed work.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.walls: List[float] = []
        self._due = time.perf_counter() + period

    def tick(self) -> None:
        if time.perf_counter() >= self._due:
            self.walls.append(probe())
            self._due = time.perf_counter() + self.period

    def slowdown(self) -> float:
        """How many times slower than the reference machine this one
        ran over the probes so far (0.0 without probes)."""
        if not self.walls:
            return 0.0
        return sum(self.walls) / (len(self.walls) * REFERENCE_S)


def bracketed(fn):
    """Run ``fn()`` once; returns its result and its wall time divided
    by the slowdown probed right before and right after it (one-off
    steps such as set-up, which cannot be paced from inside)."""
    walls = [probe() for _ in range(BRACKET_PROBES)]
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    walls += [probe() for _ in range(BRACKET_PROBES)]
    return out, wall * len(walls) * REFERENCE_S / sum(walls)
