"""Real-time agents: bounded lookahead episodes interleaved with movement.

Both agents repeat the same cycle until the goal is reached: run a
best-first lookahead of at most ``lookahead`` expansions from the current
cell, raise the stored heuristic over the expanded region, then move.  If
the lookahead reaches the goal the agent commits to the found path;
otherwise it takes one step toward the best frontier state (minimum
g + h, ties broken by insertion order).  The executed trajectory,
revisits included, is the reported path.

The two update rules:

* LRTA* (learning): rebuild h over the expanded region by a
  shortest-path backup from the frontier, i.e. the fixpoint of
  h(s) = min over neighbors s' of step_cost(s, s') + h(s');
* RTAA* (adaptive): the bulk rule h(s) = f(best frontier) - g(s) for
  every s expanded this episode.

Both preserve consistency of the (consistent) straight-line heuristic,
which is what guarantees the agent escapes every local minimum.

Value stores follow the canonical real-time-search implementation: dense
per-cell arrays (h, g, search tree, generation counters) allocated for
the whole grid once per solve and reset per episode by counter, so the
live footprint scales with the grid area rather than the touched region.
"""

from __future__ import annotations

import heapq
from math import hypot

from .. import grid as gridmod
from ..errors import InvalidCellError, NoPathError
from ..grid import SQRT2, step_cost
from ..instrumentation import (
    ARRAY_SLOT_BYTES,
    HEAP_ENTRY_BYTES,
    SET_ENTRY_BYTES,
    AllocationProbe,
)
from ..pqueue import LazyHeap
from .common import SolverParams, TieBreak

_N_ARRAYS = 5  # h, g, tree, generated-counter, expanded-counter (negated once settled)


class RealTimeAgent:
    """Stepwise driver, exposed so tests can inspect per-episode state."""

    def __init__(self, grid, params: SolverParams, probe: AllocationProbe, adaptive: bool):
        self.grid = grid
        self.params = params
        self.probe = probe
        self.adaptive = adaptive
        w, h = grid.width, grid.height
        # the arrays are indexed by padded id; the border slots are never
        # read, and the accounting charges the w x h cells of the grid
        self._ncells = w * h
        gx, gy = grid.goal
        self._h = [hypot(x - gx, y - gy) for y in range(-1, h + 1) for x in range(-1, w + 1)]
        size = len(self._h)
        self._g = [0.0] * size
        self._tree = [-1] * size
        self._gen = [0] * size
        self._exp = [0] * size
        probe.alloc(_N_ARRAYS * self._ncells * ARRAY_SLOT_BYTES)
        # each cell's neighbour list, built on first use and kept for this
        # solve; not charged: like the flags it is substrate, not search state
        self._nbrs = [None] * size
        self._arrays_live = True
        self._episode = 0
        self._pos = grid.index(grid.start)
        self.path = [grid.start]
        self.path_cost = 0.0
        self.expanded = 0
        self.done = False
        # any finite shortest path costs less than sqrt(2) x cell count;
        # stored h climbing past this bound proves the goal unreachable
        self._h_cap = self._ncells * SQRT2 + 1.0
        self._closed = []  # ids expanded by the most recent episode

    @property
    def position(self):
        """The agent's cell."""
        return self.grid.coord(self._pos)

    @property
    def last_closed(self) -> list:
        """Cells expanded by the most recent episode."""
        return [self.grid.coord(i) for i in self._closed]

    def h_value(self, c) -> float:
        """Current stored heuristic for a cell."""
        if not self.grid.in_bounds(c):
            raise InvalidCellError(f"{tuple(c)} is out of bounds")
        return self._h[self.grid.index(c)]

    def _neighbors(self, i: int) -> list:
        nbrs = self._nbrs[i]
        if nbrs is None:
            # looked up on each miss, not at import, so a patched gridbench.grid is seen
            nbrs = self._nbrs[i] = gridmod.neighbor_cells(i, self.grid.flags, self.grid.steps)
        return nbrs

    def _release_arrays(self) -> None:
        if self._arrays_live:
            self.probe.free(_N_ARRAYS * self._ncells * ARRAY_SLOT_BYTES)
            self._arrays_live = False

    def run_episode(self) -> bool:
        """One plan/update/move cycle; returns True once the goal is reached."""
        if self.done:
            return True
        grid, probe = self.grid, self.probe
        neighbors = self._neighbors
        h_arr, g_arr, tree, gen, exp = self._h, self._g, self._tree, self._gen, self._exp
        high_g = self.params.tie_break is TieBreak.HIGH_G
        self._episode += 1
        eid = self._episode
        oi = self._pos
        goal = grid.index(grid.goal)
        g_arr[oi] = 0.0
        gen[oi] = eid
        tree[oi] = -1
        open_ = LazyHeap(probe)
        open_.push(oi, (h_arr[oi], 0.0))
        closed = []
        budget = self.params.lookahead
        expd = 0
        reached = False
        while open_ and expd < budget:
            _, si = open_.pop()
            expd += 1
            probe.expand(si)
            if si == goal:
                reached = True
                break
            exp[si] = eid
            closed.append(si)
            probe.alloc(ARRAY_SLOT_BYTES)  # closed stack slot
            gs = g_arr[si]
            for ni, c in neighbors(si):
                ng = gs + c
                if gen[ni] != eid or ng < g_arr[ni]:
                    g_arr[ni] = ng
                    gen[ni] = eid
                    tree[ni] = si
                    open_.push(ni, (ng + h_arr[ni], -ng if high_g else ng))
        self.expanded += expd
        self._closed = closed

        if reached:
            for step in self._chain_to(goal, oi):
                self._step(step)
            self._finish_episode(open_, closed)
            self.done = True
            self._release_arrays()
            return True

        top = open_.peek()
        if top is None:
            self._finish_episode(open_, closed)
            self._release_arrays()
            raise NoPathError(f"goal {tuple(grid.goal)} unreachable from {tuple(grid.start)}")
        best = top[1]

        if self.adaptive:
            f_best = g_arr[best] + h_arr[best]
            for si in closed:
                h_arr[si] = f_best - g_arr[si]
        else:
            self._learning_backup(open_, eid)

        self._step(self._chain_to(best, oi)[0])
        self._finish_episode(open_, closed)
        if self._pos == goal:
            self.done = True
            self._release_arrays()
            return True
        if h_arr[self._pos] > self._h_cap:
            self._release_arrays()
            raise NoPathError(f"goal {tuple(grid.goal)} unreachable from {tuple(grid.start)}")
        return False

    def _step(self, i: int) -> None:
        """Move the agent to the adjacent cell of id ``i``."""
        cell = self.grid.coord(i)
        self.path_cost += step_cost(self.path[-1], cell)
        self.path.append(cell)
        self._pos = i

    def _chain_to(self, end: int, origin: int) -> list:
        """Tree path origin -> end as ids, origin excluded."""
        tree = self._tree
        out = []
        ci = end
        while ci != origin:
            out.append(ci)
            ci = tree[ci]
        out.reverse()
        return out

    def _finish_episode(self, open_: LazyHeap, closed: list) -> None:
        open_.release()
        self.probe.free(ARRAY_SLOT_BYTES * len(closed))

    def _learning_backup(self, open_: LazyHeap, eid: int) -> None:
        """Dijkstra from the frontier into this episode's expanded region."""
        probe, neighbors = self.probe, self._neighbors
        h_arr, exp = self._h, self._exp
        pq = []
        seq = 0
        for si in open_.live_items():
            seq += 1
            pq.append((h_arr[si], seq, si))
            probe.alloc(HEAP_ENTRY_BYTES)
        heapq.heapify(pq)
        # a settled cell is stamped exp = -eid, which no episode's eid
        # matches; the probe still charges it as a hashed settled set
        settled = 0
        while pq:
            d, _, si = heapq.heappop(pq)
            probe.free(HEAP_ENTRY_BYTES)
            if exp[si] == -eid:
                continue
            if exp[si] == eid:
                h_arr[si] = d
            exp[si] = -eid
            settled += 1
            probe.alloc(SET_ENTRY_BYTES)
            for ni, c in neighbors(si):
                if exp[ni] == eid:
                    seq += 1
                    heapq.heappush(pq, (d + c, seq, ni))
                    probe.alloc(HEAP_ENTRY_BYTES)
        probe.free(SET_ENTRY_BYTES * settled)

    def run(self):
        while not self.run_episode():
            pass
        return self.path, self.path_cost, self.expanded


def run_lrta(grid, params: SolverParams, probe: AllocationProbe):
    return RealTimeAgent(grid, params, probe, adaptive=False).run()


def run_rtaa(grid, params: SolverParams, probe: AllocationProbe):
    return RealTimeAgent(grid, params, probe, adaptive=True).run()
