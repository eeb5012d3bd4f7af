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
  h(s) = min over neighbors s' of step_cost(s, s') + h(s').  The backup
  is a Dijkstra search that queues a cell only when its value improves;
* RTAA* (adaptive): the bulk rule h(s) = f(best frontier) - g(s) for
  every s expanded this episode.

Both preserve consistency of the (consistent) straight-line heuristic,
which is what guarantees the agent escapes every local minimum.

Value stores follow the canonical real-time-search implementation: dense
per-cell arrays (h, g, search tree, generation counters) allocated for
the whole grid once per solve and reset per episode by counter, so the
live footprint scales with the grid area rather than the touched region.
The lookahead and the backup walk each cell's usable arcs through
``grid.arc_masks``, built once per solve and not charged.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import hypot

from ..errors import InvalidCellError, NoPathError
from ..grid import SQRT2, arc_masks, arc_table, step_cost
from ..instrumentation import (
    ARRAY_SLOT_BYTES,
    HEAP_ENTRY_BYTES,
    SET_ENTRY_BYTES,
    AllocationProbe,
)
from .common import INF, SolverParams, TieBreak

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
        # h is computed on first read (``_h_at``); -1.0 marks a cell not yet
        # read.  The probe still charges the whole h array: the 5 x w x h
        # charge is an accounting constant, not a measurement
        self._stride = stride = w + 2
        gx, gy = grid.goal
        self._gx, self._gy = gx + 1, gy + 1  # the goal in the padded frame
        size = stride * (h + 2)
        self._h = [-1.0] * size
        self._g = [0.0] * size
        self._tree = [-1] * size
        self._gen = [0] * size
        self._exp = [0] * size
        probe.alloc(_N_ARRAYS * self._ncells * ARRAY_SLOT_BYTES)
        # each cell's usable arcs (``grid.arc_masks``), built once per solve;
        # not charged: like the flags it is substrate, not search state
        self._mask = arc_masks(grid.flags, grid.steps)
        self._table = arc_table(grid.steps)
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
        self._open = {}  # ids on its open list when its lookahead stopped

    @property
    def position(self):
        """The agent's cell."""
        return self.grid.coord(self._pos)

    @property
    def last_closed(self) -> list:
        """Cells expanded by the most recent episode."""
        return [self.grid.coord(i) for i in self._closed]

    @property
    def last_open(self) -> list:
        """Cells on the open list when the most recent lookahead stopped.

        A cell whose g fell after its expansion is pushed again, so it can
        be in both lists; the learning backup seeds it as frontier.
        """
        return [self.grid.coord(i) for i in self._open]

    def h_value(self, c) -> float:
        """Current stored heuristic for a cell."""
        if not self.grid.in_bounds(c):
            raise InvalidCellError(f"{tuple(c)} is out of bounds")
        return self._h_at(self.grid.index(c))

    def _h_at(self, i: int) -> float:
        """h of padded id ``i``: the straight-line distance until learning raises it."""
        h = self._h[i]
        if h < 0.0:
            s = self._stride
            h = self._h[i] = hypot(i % s - self._gx, i // s - self._gy)
        return h

    def _release_arrays(self) -> None:
        if self._arrays_live:
            self.probe.free(_N_ARRAYS * self._ncells * ARRAY_SLOT_BYTES)
            self._arrays_live = False

    def run_episode(self) -> bool:
        """One plan/update/move cycle; returns True once the goal is reached."""
        if self.done:
            return True
        grid, probe = self.grid, self.probe
        mask, table = self._mask, self._table
        h_arr, g_arr, tree, gen, exp = self._h, self._g, self._tree, self._gen, self._exp
        stride, gx, gy = self._stride, self._gx, self._gy
        high_g = self.params.tie_break is TieBreak.HIGH_G
        self._episode += 1
        eid = self._episode
        oi = self._pos
        goal = grid.index(grid.goal)
        g_arr[oi] = 0.0
        gen[oi] = eid
        tree[oi] = -1
        # The open list is a binary heap with lazy deletion: entries
        # (f, tie, seq, id), and ``live`` maps each id to the seq of the
        # entry that counts, so a re-push supersedes the earlier entry.  The
        # probe's bytes are kept in locals (see ``instrumentation``) and
        # written back before each probe call
        heap = [(self._h_at(oi), 0.0, 1, oi)]
        live = {oi: 1}
        seq = 1
        nbytes = probe.live_bytes + HEAP_ENTRY_BYTES
        peak = max(probe.peak_bytes, nbytes)
        closed = []
        budget = self.params.lookahead
        expd = 0
        reached = False
        while live and expd < budget:
            while True:
                _, _, sq, si = heappop(heap)
                nbytes -= HEAP_ENTRY_BYTES
                if live.get(si) == sq:
                    del live[si]
                    break
            expd += 1
            probe.live_bytes, probe.peak_bytes = nbytes, peak
            probe.expand(si)
            if si == goal:
                reached = True
                break
            exp[si] = eid
            closed.append(si)
            nbytes += ARRAY_SLOT_BYTES  # closed stack slot
            gs = g_arr[si]
            for off, c in table[mask[si]]:
                ni = si + off
                ng = gs + c
                if gen[ni] != eid or ng < g_arr[ni]:
                    g_arr[ni] = ng
                    gen[ni] = eid
                    tree[ni] = si
                    hn = h_arr[ni]
                    if hn < 0.0:
                        hn = h_arr[ni] = hypot(ni % stride - gx, ni // stride - gy)
                    seq += 1
                    live[ni] = seq
                    heappush(heap, (ng + hn, -ng if high_g else ng, seq, ni))
                    nbytes += HEAP_ENTRY_BYTES
            if nbytes > peak:
                peak = nbytes
        self.expanded += expd
        self._closed, self._open = closed, live

        if not reached:
            # peek at the best frontier entry, discarding stale ones on the way
            while heap:
                top = heap[0]
                if live.get(top[3]) == top[2]:
                    break
                heappop(heap)
                nbytes -= HEAP_ENTRY_BYTES
        probe.live_bytes, probe.peak_bytes = nbytes, peak

        if reached:
            for step in self._chain_to(goal, oi):
                self._step(step)
            self._finish_episode(heap, closed)
            self.done = True
            self._release_arrays()
            return True

        if not heap:
            self._finish_episode(heap, closed)
            self._release_arrays()
            raise NoPathError(f"goal {tuple(grid.goal)} unreachable from {tuple(grid.start)}")
        best = heap[0][3]

        if self.adaptive:
            f_best = g_arr[best] + h_arr[best]
            for si in closed:
                h_arr[si] = f_best - g_arr[si]
        else:
            self._learning_backup(list(live), closed, eid)

        self._step(self._chain_to(best, oi)[0])
        self._finish_episode(heap, closed)
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

    def _finish_episode(self, heap: list, closed: list) -> None:
        """Free the episode's open-list entries, stale ones included, and its closed stack."""
        self.probe.free(HEAP_ENTRY_BYTES * len(heap) + ARRAY_SLOT_BYTES * len(closed))

    def _learning_backup(self, frontier: list, closed: list, eid: int) -> None:
        """Dijkstra from the frontier into this episode's expanded region.

        Frontier cells enter the queue at their stored h.  Every cell of
        ``closed`` starts at a tentative value of INF, kept in the ``g``
        array: LRTA* reads no g once the lookahead is over.  A settled cell
        pushes an expanded neighbour only when ``d + c`` is strictly below
        the neighbour's tentative value, and a cell's first popped entry is
        written back as its h.  That entry is the earliest pushed at the
        cell's least value, as it would be if every relaxation were pushed,
        so pushing improvements alone changes only the queue's size.
        """
        probe, mask, table = self.probe, self._mask, self._table
        h_arr, dist, exp = self._h, self._g, self._exp
        for si in closed:
            dist[si] = INF
        pq = [(h_arr[si], seq, si) for seq, si in enumerate(frontier, 1)]
        seq = len(pq)
        heapify(pq)
        # byte accounting in locals, written back on return (see ``instrumentation``)
        nbytes = probe.live_bytes + HEAP_ENTRY_BYTES * seq
        peak = max(probe.peak_bytes, nbytes)
        # a settled cell is stamped exp = -eid, which no episode's eid
        # matches; the probe still charges it as a hashed settled set
        settled = 0
        while pq:
            d, _, si = heappop(pq)
            nbytes -= HEAP_ENTRY_BYTES
            if exp[si] == -eid:
                continue
            if exp[si] == eid:
                h_arr[si] = d
            exp[si] = -eid
            settled += 1
            nbytes += SET_ENTRY_BYTES
            for off, c in table[mask[si]]:
                ni = si + off
                if exp[ni] == eid:
                    nd = d + c
                    if nd < dist[ni]:
                        dist[ni] = nd
                        seq += 1
                        heappush(pq, (nd, seq, ni))
                        nbytes += HEAP_ENTRY_BYTES
            if nbytes > peak:
                peak = nbytes
        probe.live_bytes = nbytes - SET_ENTRY_BYTES * settled
        probe.peak_bytes = peak

    def run(self):
        while not self.run_episode():
            pass
        return self.path, self.path_cost, self.expanded


def run_lrta(grid, params: SolverParams, probe: AllocationProbe):
    return RealTimeAgent(grid, params, probe, adaptive=False).run()


def run_rtaa(grid, params: SolverParams, probe: AllocationProbe):
    return RealTimeAgent(grid, params, probe, adaptive=True).run()
