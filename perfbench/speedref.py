"""A fixed reference search that tracks how fast this machine runs right now.

On a shared virtual machine (2 vCPUs, x86-64) the same gridbench pass took
up to 40% longer a minute later, more than any useful regression bound.  The reference is a plain
A* written here, on a fixed 300x300 grid at the reference density: the same
kind of work as the solvers (tuple keys, dicts, a 20k-cell blocked set,
heapq), so its time drifts with theirs.  Passes sample it every few hundred
milliseconds between timed operations; each operation divided by the
samples just before and after it gives a figure that follows gridbench
rather than the machine.
Set-up times are divided by samples taken just before and after them.
The reference never changes with gridbench.
"""

from __future__ import annotations

import heapq
import math
import random
import statistics
import time

from checks import legal_steps

N = 300
DENSITY = 0.25
START, GOAL = (80, 90), (200, 160)   # about as far apart as on the reference instance
INTERVAL_S = 0.3                     # between samples, while a pass runs
# the reference's time on a quiet 2-vCPU x86-64 VM: set-up times, divided by
# the reference, are multiplied by this to read in seconds again
NOMINAL_S = 0.035


class SpeedReference:
    def __init__(self):
        rng = random.Random(2310)
        self.blocked = {(int(rng.random() * N), int(rng.random() * N))
                        for _ in range(int(DENSITY * N * N))} - {START, GOAL}
        self.cost = self._search()
        if self.cost is None:
            raise RuntimeError("the reference grid has no path")
        self._samples = []
        self._last = 0.0

    def _search(self):
        gx, gy = GOAL
        g = {START: 0.0}
        open_ = [(0.0, START)]
        while open_:
            _, c = heapq.heappop(open_)
            if c == GOAL:
                return g[c]
            gc = g[c]
            for n, w in legal_steps(c, N, N, self.blocked):
                ng = gc + w
                if ng < g.get(n, math.inf):
                    g[n] = ng
                    heapq.heappush(open_, (ng + math.hypot(n[0] - gx, n[1] - gy), n))
        return None

    def sample(self) -> float:
        """Run the reference search once; its time in seconds."""
        t0 = time.perf_counter()
        cost = self._search()
        self._last = time.perf_counter()
        self._samples.append(self._last - t0)
        if cost != self.cost:
            raise RuntimeError("the reference search is not deterministic")
        return self._samples[-1]

    def begin(self) -> None:
        self._samples = []
        self.sample()

    def tick(self) -> int:
        """Sample if the last sample is older than the interval; call after an operation.

        Returns the index, among the pass's samples, of the last sample taken
        before the operation; the next one follows it.
        """
        before = len(self._samples) - 1
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()
        return before

    @property
    def samples(self) -> list:
        """The samples since ``begin``, in order."""
        return list(self._samples)

    def end(self) -> float:
        """Median sample of the pass since ``begin``."""
        self.sample()
        return statistics.median(self._samples)
