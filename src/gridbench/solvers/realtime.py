"""Real-time agents: bounded lookahead episodes interleaved with movement.

Both agents repeat the same cycle until the goal is reached: run a
best-first lookahead of at most ``lookahead`` expansions from the current
cell, raise the stored heuristic over the expanded region, then move.  If
the lookahead reaches the goal the agent commits to the found path;
otherwise it walks the whole search-tree path to the best frontier state
(minimum g + h, ties to the higher g, then to the earlier push), as
RTAA* (Koenig & Likhachev, AAMAS 2006) and LSS-LRTA* (Koenig & Sun,
JAAMAS 2009) do, and the next lookahead starts there.  An expanded cell
is never re-opened within a lookahead.  The executed trajectory,
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
``Grid.masks``, built once per grid and not charged.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import hypot

from ..grid import arc_table
from ..instrumentation import (
    ARRAY_SLOT_BYTES,
    HEAP_ENTRY_BYTES,
    SET_ENTRY_BYTES,
    AllocationProbe,
)
from .common import INF, SolverParams, cell_id, check_solvable, path_cost_of

_N_ARRAYS = 5  # h, g, tree, generated-counter, expanded-counter (negated once settled)


class RealTimeAgent:
    """Stepwise driver, exposed so tests can inspect per-episode state."""

    def __init__(self, grid, params: SolverParams, probe: AllocationProbe, adaptive: bool):
        # complete on a solvable grid: a lookahead pops the goal before its open list runs out
        check_solvable(grid, grid.flags)
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
        # each cell's usable arcs (``Grid.masks``); not charged: like the
        # flags it is substrate, not search state
        self._mask = grid.masks
        self._table = arc_table(grid.steps)
        self._episode = 0
        self._pos = grid.index(grid.start)
        self.path = [grid.start]
        self.expanded = 0
        self.done = False
        self._closed = []  # ids expanded by the most recent episode
        self._open = {}  # ids on its open list when its lookahead stopped

    @property
    def last_closed(self) -> list:
        """Cells expanded by the most recent episode."""
        return self.grid.coords(self._closed)

    @property
    def last_open(self) -> list:
        """Cells on the open list when the most recent lookahead stopped."""
        return self.grid.coords(self._open)

    def h_value(self, c) -> float:
        """Current stored heuristic for a cell."""
        return self._h_at(cell_id(self.grid, c))

    def _h_at(self, i: int) -> float:
        """h of padded id ``i``: the straight-line distance until learning raises it."""
        h = self._h[i]
        if h < 0.0:
            s = self._stride
            h = self._h[i] = hypot(i % s - self._gx, i // s - self._gy)
        return h

    def run_episode(self) -> bool:
        """One plan/update/move cycle; returns True once the goal is reached."""
        if self.done:
            return True
        grid, probe = self.grid, self.probe
        mask, table = self._mask, self._table
        h_arr, g_arr, tree, gen, exp = self._h, self._g, self._tree, self._gen, self._exp
        stride, gx, gy = self._stride, self._gx, self._gy
        self._episode += 1
        eid = self._episode
        oi = self._pos
        goal = grid.index(grid.goal)
        g_arr[oi] = 0.0
        gen[oi] = eid
        tree[oi] = -1
        # The open list is a binary heap with lazy deletion: entries
        # (f, -g, seq, id), and ``live`` maps each id to the seq of the
        # entry that counts, so a re-push supersedes the earlier entry.  The
        # probe's bytes and the episode's expansions are kept in locals (see
        # ``instrumentation``) and written back before each probe call
        heap = [(self._h_at(oi), 0.0, 1, oi)]
        live = {oi: 1}
        seq = 1
        nbytes = probe.live_bytes + HEAP_ENTRY_BYTES
        peak = max(probe.peak_bytes, nbytes)
        closed = []
        budget = self.params.lookahead
        expd, nexp0, on_expand = 0, probe.expansions, probe.on_expand
        reached = False
        while expd < budget:
            while True:
                _, _, sq, si = heappop(heap)
                nbytes -= HEAP_ENTRY_BYTES
                if live.get(si) == sq:
                    del live[si]
                    break
            expd += 1
            if on_expand is not None:
                probe.live_bytes, probe.peak_bytes, probe.expansions = nbytes, peak, nexp0 + expd
                on_expand(si)
            if si == goal:
                reached = True
                break
            exp[si] = eid
            closed.append(si)
            nbytes += ARRAY_SLOT_BYTES  # closed stack slot
            gs = g_arr[si]
            for off, c in table[mask[si]]:
                ni = si + off
                if exp[ni] == eid:
                    # h is consistent, so an expanded cell's g is already
                    # least; a lower ng is a rounding difference only
                    continue
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
                    heappush(heap, (ng + hn, -ng, seq, ni))
                    nbytes += HEAP_ENTRY_BYTES
            if nbytes > peak:
                peak = nbytes
        self.expanded += expd
        self._closed, self._open = closed, live

        if not reached:
            # peek at the best frontier entry, discarding stale ones on the way
            while live.get(heap[0][3]) != heap[0][2]:
                heappop(heap)
                nbytes -= HEAP_ENTRY_BYTES
        probe.live_bytes, probe.peak_bytes, probe.expansions = nbytes, peak, nexp0 + expd

        if reached:
            best = goal
        else:
            best = heap[0][3]
            if self.adaptive:
                f_best = g_arr[best] + h_arr[best]
                for si in closed:
                    h_arr[si] = f_best - g_arr[si]
            else:
                self._learning_backup(list(live), closed, eid)

        # the map is static and fully known, so the tree path to the goal or
        # to the best frontier cell stays valid while the agent walks all of it
        for step in self._chain_to(best, oi):
            self._step(step)
        # free the episode's open-list entries, stale ones included, and its closed stack
        probe.free(HEAP_ENTRY_BYTES * len(heap) + ARRAY_SLOT_BYTES * len(closed))
        if self._pos == goal:
            self.done = True
            probe.free(_N_ARRAYS * self._ncells * ARRAY_SLOT_BYTES)
            return True
        return False

    def _step(self, i: int) -> None:
        """Move the agent to the adjacent cell of id ``i``."""
        self.path.append(self.grid.coord(i))
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
        return self.path, path_cost_of(self.path), self.expanded


def run_lrta(grid, params: SolverParams, probe: AllocationProbe):
    return RealTimeAgent(grid, params, probe, adaptive=False).run()


def run_rtaa(grid, params: SolverParams, probe: AllocationProbe):
    return RealTimeAgent(grid, params, probe, adaptive=True).run()
