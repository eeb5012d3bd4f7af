"""Backward replanner with RAISE/LOWER wavefront propagation.

Searches outward from the goal, giving every touched cell a tagged record
(NEW / OPEN / CLOSED, cost estimate h, queue key k, back-pointer) that
survives for the life of the planner.  The queue key k is the smallest h
the cell has held while queued: entries popped with k < h are RAISE
states that first try to reroute through a settled neighbor, entries with
k == h are LOWER states that propagate improvements to their neighbors.
On an arc-cost change (an obstacle toggled), affected CLOSED cells
re-enter the open list and processing resumes until the robot's cell is
again provably optimal.  ``replan`` drives the RAISE/LOWER loop
(``_run``); ``initial_run`` is a backward uniform-cost sweep with its
own loop.  The sweep is exact because h only falls during a first
search, so every queued cell has k == h.  Hence no RAISE state occurs,
and a LOWER expansion improves a neighbor only where its h exceeds the
new cost: a back-pointer child's h came from an h of its parent that was
no lower.  Toggles made before the run only add INF arcs, which no
back-pointer crosses yet, so dirty cells walk their masks in the sweep
too.  The whole record store is kept; its footprint is part of what the
benchmarks measure.
The store is four dense arrays indexed by padded id (tag, h, k,
back-pointer), but the probe charges one record per cell that has left
NEW, as a hashed store of only the touched cells would hold.  The open
list is a binary heap with lazy deletion: ``_heap`` holds (key, seq,
id) entries and ``_live`` maps each queued id to the seq of the entry
that counts (a dense list, 0 where no entry counts), so a re-push
supersedes the earlier entry and stale entries stay in the heap (and in
the byte count) until they surface.  A cell
walks its usable arcs through ``grid.arc_masks``, built once per planner
and refreshed around each toggle; the cells in the 3x3 block of a toggle
are marked dirty and, in ``_run``, walk ``_arcs`` instead, which also
lists their unusable arcs, at cost INF.
"""

from __future__ import annotations

from heapq import heappop, heappush

from ..errors import InvalidCellError, NoPathError
from ..grid import OUTSIDE, arc_masks, arc_table, refresh_arc_masks
from ..instrumentation import HEAP_ENTRY_BYTES, RECORD_ENTRY_BYTES, AllocationProbe
from .common import (
    INF,
    AlgorithmId,
    SolverParams,
    path_cost_of,
    require_default_tie_break,
    toggle_cell,
)

_NEW, _OPEN, _CLOSED = 0, 1, 2


class DStarPlanner:
    def __init__(self, grid, params: SolverParams | None = None, probe: AllocationProbe | None = None):
        self.grid = grid
        self.params = params or SolverParams()
        require_default_tie_break(self.params, (AlgorithmId.D_STAR,))
        self.probe = probe or AllocationProbe()
        # padded flags of the planner's own (mutable) copy of the grid
        self._flags = bytearray(grid.flags)
        self._steps = grid.steps
        # each cell's usable arcs (``grid.arc_masks``) over the planner's own
        # flags; ``set_blocked`` refreshes the cells around a toggle and marks
        # its 3x3 block dirty.  Not charged: like the flags it is substrate,
        # not search state
        self._mask = arc_masks(self._flags, self._steps)
        self._table = arc_table(self._steps)
        self._dirty = bytearray(len(self._flags))
        # the record store, one slot per padded id: a cell holds a record
        # once its tag leaves _NEW, and only then is it charged to the probe
        size = len(self._flags)
        self._tag = bytearray(size)
        self._h = [INF] * size
        self._k = [INF] * size
        self._back = [-1] * size  # -1: no back-pointer
        self._heap = []
        self._live = [0] * size  # seq of each queued id's current entry, 0 if none
        self._seq = 0
        self.expanded = 0

    def _arcs(self, i):
        """``(offset, cost)`` to every in-grid 8-neighbour of a dirty cell, INF if unusable.

        A toggle changes the usability only of arcs with both ends in its
        3x3 block, and back-pointers are set only along usable arcs, so only
        a dirty cell can hold a back-pointer child across an arc that has
        since become unusable; the INF arcs let it propagate that loss.  A
        clean cell's unusable arcs have never been usable, change nothing,
        and are skipped: it walks its ``arc_masks`` entry.
        """
        flags = self._flags
        m = 0 if flags[i] else self._mask[i]
        return [(off, cost if m >> d & 1 else INF)
                for d, (off, cost, _, _) in enumerate(self._steps) if flags[i + off] != OUTSIDE]

    def _insert(self, s, h_new: float) -> None:
        tag = self._tag[s]
        if tag == _NEW:
            self.probe.alloc(RECORD_ENTRY_BYTES)
            k = h_new
        elif tag == _OPEN:
            k = min(self._k[s], h_new)
        else:
            k = min(self._h[s], h_new)
        self._k[s] = k
        self._h[s] = h_new
        self._tag[s] = _OPEN
        self._seq += 1
        self._live[s] = self._seq
        heappush(self._heap, (k, self._seq, s))
        self.probe.alloc(HEAP_ENTRY_BYTES)

    def _run(self, stop: int) -> None:
        """Expand the least-keyed OPEN cell until the search can stop at cell ``stop``.

        A replan stops when the least key is no less than h(stop), or the
        open list is empty.
        """
        heap, live, tag, h, kq, back = (self._heap, self._live, self._tag, self._h, self._k,
                                        self._back)
        mask, table, dirty, probe, seq = self._mask, self._table, self._dirty, self.probe, self._seq
        # the pops and the LOWER inserts keep the probe's bytes in locals,
        # written back before every probe call, return and raise (see
        # ``instrumentation``); each expansion only adds bytes after its pop,
        # so the peak is raised once at its end
        nbytes, peak = probe.live_bytes, probe.peak_bytes
        while True:
            # peek, dropping stale entries off the top; it also runs after
            # the last expansion, so they leave the heap (and the byte count)
            # before any later push
            while heap:
                k_old, sq, x = heap[0]
                if live[x] == sq:
                    break
                heappop(heap)
                nbytes -= HEAP_ENTRY_BYTES
            if not heap or k_old >= h[stop]:
                break
            heappop(heap)
            nbytes -= HEAP_ENTRY_BYTES
            live[x] = 0
            tag[x] = _CLOSED
            self.expanded += 1
            probe.live_bytes, probe.peak_bytes = nbytes, peak
            probe.expand(x)
            rh = h[x]
            arcs = self._arcs(x) if dirty[x] else table[mask[x]]
            if k_old < rh:
                # RAISE: try to reroute through an already-settled neighbor
                # (a cell without a record has h = INF and never qualifies)
                for off, c in arcs:
                    y = x + off
                    hy = h[y]
                    if hy <= k_old and rh > hy + c:
                        back[x] = y
                        rh = h[x] = hy + c
                if k_old < rh:
                    # still raised: re-expand descendants and enlist possible
                    # rescuers, through ``_insert`` and the probe's own counts
                    self._seq = seq
                    insert = self._insert
                    for off, c in arcs:
                        y = x + off
                        nh = rh + c
                        if tag[y] == _NEW:
                            if nh < INF:
                                back[y] = x
                                insert(y, nh)
                        elif back[y] == x and h[y] != nh:
                            insert(y, nh)
                        elif back[y] != x and h[y] > nh:
                            insert(x, rh)
                        elif back[y] != x and rh > h[y] + c and tag[y] == _CLOSED and h[y] > k_old:
                            insert(y, h[y])
                    seq, nbytes, peak = self._seq, probe.live_bytes, probe.peak_bytes
                    continue
            # LOWER: propagate the settled cost to neighbors; a cell without a
            # record (h = INF, back = -1) gets one when nh is finite.  The
            # steps of ``_insert`` are inlined
            for off, c in arcs:
                y = x + off
                nh = rh + c
                if back[y] == x:
                    if h[y] == nh:
                        continue
                elif h[y] > nh:
                    back[y] = x
                else:
                    continue
                t = tag[y]
                if t == _NEW:
                    nbytes += RECORD_ENTRY_BYTES
                    k = nh
                else:
                    k = kq[y] if t == _OPEN else h[y]
                    if nh < k:
                        k = nh
                kq[y] = k
                h[y] = nh
                tag[y] = _OPEN
                seq += 1
                live[y] = seq
                heappush(heap, (k, seq, y))
                nbytes += HEAP_ENTRY_BYTES
            if nbytes > peak:
                peak = nbytes
        self._seq = seq
        probe.live_bytes, probe.peak_bytes = nbytes, peak

    def initial_run(self) -> None:
        """Settle costs outward from the goal until the start is closed.

        A backward uniform-cost sweep (see the module docstring for why it
        is exact); raises NoPathError if the open list empties first.  It
        needs a fresh planner, whose queued cells all have k == h.
        """
        if self.expanded:
            raise RuntimeError("initial_run needs a fresh planner; use replan to repair")
        self._insert(self.grid.index(self.grid.goal), 0.0)
        stop = self.grid.index(self.grid.start)
        heap, live, tag, h, kq, back = (self._heap, self._live, self._tag, self._h, self._k,
                                        self._back)
        mask, table, probe, seq = self._mask, self._table, self.probe, self._seq
        # the probe's bytes stay in locals as in ``_run``
        nbytes, peak = probe.live_bytes, probe.peak_bytes
        expanded = 0
        while heap:
            rh, sq, x = heappop(heap)
            nbytes -= HEAP_ENTRY_BYTES
            if live[x] != sq:
                continue
            live[x] = 0
            tag[x] = _CLOSED
            expanded += 1
            probe.live_bytes, probe.peak_bytes = nbytes, peak
            probe.expand(x)
            # every expansion is LOWER with k == h: the steps of ``_insert``
            # are inlined and reduce to k = h = nh
            for off, c in table[mask[x]]:
                y = x + off
                nh = rh + c
                if h[y] > nh:
                    if tag[y] == _NEW:
                        nbytes += RECORD_ENTRY_BYTES
                    back[y] = x
                    kq[y] = h[y] = nh
                    tag[y] = _OPEN
                    seq += 1
                    live[y] = seq
                    heappush(heap, (nh, seq, y))
                    nbytes += HEAP_ENTRY_BYTES
            if nbytes > peak:
                peak = nbytes
            if x == stop:
                # drop the stale entries off the top, so they leave the heap
                # (and the byte count) before any later push
                while heap and live[heap[0][2]] != heap[0][1]:
                    heappop(heap)
                    nbytes -= HEAP_ENTRY_BYTES
                break
        self._seq, self.expanded = seq, expanded
        probe.live_bytes, probe.peak_bytes = nbytes, peak
        if tag[stop] != _CLOSED:
            raise NoPathError(f"no path from {tuple(self.grid.start)} to {tuple(self.grid.goal)}")

    def set_blocked(self, cell, blocked: bool = True) -> None:
        """Toggle an obstacle; re-queues affected CLOSED cells."""
        i = toggle_cell(self.grid, self._flags, cell, blocked, (self.grid.goal,),
                        "the goal must stay traversable")
        flags = self._flags
        affected = [i] + [i + off for off, _, _, _ in self._steps if flags[i + off] != OUTSIDE]
        refresh_arc_masks(self._mask, affected[1:], flags, self._steps)
        for s in affected:
            self._dirty[s] = 1
            if self._tag[s] == _CLOSED:
                self._insert(s, self._h[s])

    def _cell_id(self, cell) -> int:
        if not self.grid.in_bounds(cell):
            raise InvalidCellError(f"{tuple(cell)} is out of bounds")
        return self.grid.index(cell)

    def replan(self, position) -> None:
        """Process until the cost at ``position`` is again provably optimal."""
        self._run(self._cell_id(position))

    def extract_path(self, origin=None) -> list:
        origin = self._cell_id(origin if origin is not None else self.grid.start)
        coord = self.grid.coord
        if self._h[origin] == INF:
            raise NoPathError(f"no path from {tuple(coord(origin))} to {tuple(self.grid.goal)}")
        goal = self.grid.index(self.grid.goal)
        back, flags, mask = self._back, self._flags, self._mask
        bit = {off: 1 << d for d, (off, _, _, _) in enumerate(self._steps)}
        path = [origin]
        cur = origin
        limit = self.grid.width * self.grid.height + 1
        while cur != goal:
            nxt = back[cur]
            if nxt < 0:
                raise NoPathError(f"broken back-pointer chain at {tuple(coord(cur))}")
            # the arc to the back-pointer must be usable
            if flags[cur] or not mask[cur] & bit.get(nxt - cur, 0):
                raise NoPathError(f"back-pointer chain crosses a blocked arc at {tuple(coord(cur))}")
            cur = nxt
            path.append(cur)
            if len(path) > limit:
                raise NoPathError("back-pointer chain cycled")
        return [coord(i) for i in path]

    def solve(self) -> tuple:
        self.initial_run()
        path = self.extract_path()
        return path, path_cost_of(path), self.expanded


def run(grid, params: SolverParams, probe: AllocationProbe):
    return DStarPlanner(grid, params, probe).solve()
