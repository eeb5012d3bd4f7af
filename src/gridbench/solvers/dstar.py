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
The store is three dense lists indexed by padded id: h, the back-pointer
and ``_live``, each queued cell's current (k, seq, id) heap entry (None
where no entry counts).  The tag and k of a record are read from them: a
cell is OPEN while it has a live entry, whose key is its k; NEW while its
h is INF and it has no back-pointer (the goal has h 0, and a cell raised
to INF keeps its back-pointer); CLOSED otherwise.  No k but an OPEN
cell's is ever read: a CLOSED cell is queued under min(h, new h), and a
NEW one under its new h.  The probe charges one record per cell that has
left NEW, as a hashed store of only the touched cells would hold.  The
open list is a binary heap with lazy deletion: a re-push supersedes the
earlier entry, which stays in the heap (and in the byte count) until it
surfaces, stale because it is not its cell's live entry.  The sweep in
``initial_run`` needs no heap (Orlin, Madduri, Subramani and Williamson,
2010): every arc costs 1 or sqrt(2), every key it pushes is the popped
key plus one of the two, and popped keys never fall, so one FIFO queue
per step cost (``ortho``, ``diag``) stays sorted by (key, seq), and
popping the smaller of the two heads gives exactly the heap's pop order.
The entries, seqs and byte charges are the heap's; at the stop the rest,
merged, becomes ``_heap`` as one sorted list, which is a valid heap.
``_run`` keeps the heap, because its RAISE states break that monotone
order.  Both of its branches queue cells with the steps of ``_insert``
written out and the probe's bytes in locals; ``_insert`` itself serves
only ``set_blocked`` (and the goal's first entry in ``initial_run``).
The sweep writes no live entry per push or pop: every push lowers h and
a closed cell's h never falls again, so an entry is current exactly when
its key equals its cell's h, and at the stop each current entry left
becomes its cell's live entry.  A cell walks its usable arcs
through the planner's copy of ``Grid.masks``, refreshed around each
toggle; the cells in the 3x3 block of a toggle are marked dirty and, in
``_run``, walk ``_arcs`` instead, which also lists their unusable arcs,
at cost INF.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, merge

from ..errors import InvalidCellError, NoPathError
from ..grid import OUTSIDE, arc_table, refresh_arc_masks
from ..instrumentation import HEAP_ENTRY_BYTES, RECORD_ENTRY_BYTES, AllocationProbe
from .common import INF, SolverParams, path_cost_of, toggle_cell


class DStarPlanner:
    def __init__(self, grid, probe: AllocationProbe | None = None):
        self.grid = grid
        self.probe = probe or AllocationProbe()
        # padded flags of the planner's own (mutable) copy of the grid
        self._flags = bytearray(grid.flags)
        self._steps = grid.steps
        # each cell's usable arcs over the planner's own flags, a copy of
        # ``Grid.masks``; ``set_blocked`` refreshes the cells around a toggle
        # and marks its 3x3 block dirty.  Not charged: like the flags it is
        # substrate, not search state
        self._mask = bytearray(grid.masks)
        self._table = arc_table(self._steps)
        self._dirty = bytearray(len(self._flags))
        # the record store, one slot per padded id: h, the back-pointer and
        # the current queue entry.  A cell holds a record once it leaves
        # NEW, and only then is it charged to the probe
        size = len(self._flags)
        self._h = [INF] * size
        self._back = [-1] * size  # -1: no back-pointer
        self._heap = []
        self._live = [None] * size  # each queued id's current (k, seq, id) entry, None if none
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
        """Queue ``s`` with cost ``h_new``; a NEW cell's k is h_new, as h is INF.

        Serves ``set_blocked`` and the goal's entry in ``initial_run``; the
        search loops write its steps out.
        """
        h, entry = self._h[s], self._live[s]
        if h == INF and self._back[s] < 0:
            self.probe.alloc(RECORD_ENTRY_BYTES)
        k = min(entry[0] if entry else h, h_new)
        self._h[s] = h_new
        self._seq += 1
        entry = self._live[s] = (k, self._seq, s)
        heappush(self._heap, entry)
        self.probe.alloc(HEAP_ENTRY_BYTES)

    def _run(self, stop: int) -> None:
        """Expand the least-keyed OPEN cell until the search can stop at cell ``stop``.

        A replan stops when the least key is no less than h(stop), or the
        open list is empty.
        """
        heap, live, h, back = self._heap, self._live, self._h, self._back
        mask, table, dirty, probe, seq = self._mask, self._table, self._dirty, self.probe, self._seq
        # the pops and the RAISE and LOWER inserts keep the probe's bytes in
        # locals, as does the count of this call's expansions, written back
        # before every return (see ``instrumentation``); each expansion only
        # adds bytes after its pop, so the peak is raised once at its end
        nbytes, peak = probe.live_bytes, probe.peak_bytes
        expanded, nexp0, on_expand = 0, probe.expansions, probe.on_expand
        while True:
            # peek, dropping stale entries off the top; it also runs after
            # the last expansion, so they leave the heap (and the byte count)
            # before any later push
            while heap:
                k_old, _, x = heap[0]
                if live[x] is heap[0]:
                    break
                heappop(heap)
                nbytes -= HEAP_ENTRY_BYTES
            if not heap or k_old >= h[stop]:
                break
            heappop(heap)
            nbytes -= HEAP_ENTRY_BYTES
            live[x] = None
            expanded += 1
            if on_expand is not None:
                probe.live_bytes, probe.peak_bytes = nbytes, peak
                probe.expansions = nexp0 + expanded
                on_expand(x)
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
                # rescuers.  Each case queues one cell s under cost hs, with
                # the steps of ``_insert`` inlined.  Only a NEW neighbor needs
                # a record: x and a neighbor with a back-pointer or a finite
                # h already hold one
                for off, c in arcs:
                    y = x + off
                    nh = rh + c
                    hy, by = h[y], back[y]
                    if hy == INF and by < 0:
                        if nh == INF:
                            continue
                        nbytes += RECORD_ENTRY_BYTES
                        back[y] = x
                        s, hs = y, nh
                    elif by == x:
                        if hy == nh:
                            continue
                        s, hs = y, nh
                    elif hy > nh:
                        s, hs = x, rh
                    elif rh > hy + c and live[y] is None and hy > k_old:
                        s, hs = y, hy
                    else:
                        continue
                    e = live[s]
                    k = e[0] if e else h[s]
                    if hs < k:
                        k = hs
                    h[s] = hs
                    seq += 1
                    e = live[s] = (k, seq, s)
                    heappush(heap, e)
                    nbytes += HEAP_ENTRY_BYTES
            else:
                # LOWER: propagate the settled cost to neighbors; a NEW cell
                # (h = INF, back = -1) gets a record when nh is finite.  The
                # steps of ``_insert`` are inlined
                for off, c in arcs:
                    y = x + off
                    nh = rh + c
                    hy = h[y]
                    if back[y] == x:
                        if hy == nh:
                            continue
                    elif hy > nh:
                        if hy == INF and back[y] < 0:
                            nbytes += RECORD_ENTRY_BYTES
                        back[y] = x
                    else:
                        continue
                    e = live[y]
                    k = e[0] if e else hy
                    if nh < k:
                        k = nh
                    h[y] = nh
                    seq += 1
                    e = live[y] = (k, seq, y)
                    heappush(heap, e)
                    nbytes += HEAP_ENTRY_BYTES
            if nbytes > peak:
                peak = nbytes
        self._seq = seq
        self.expanded += expanded
        probe.live_bytes, probe.peak_bytes, probe.expansions = nbytes, peak, nexp0 + expanded

    def initial_run(self) -> None:
        """Settle costs outward from the goal until the start is closed.

        A backward uniform-cost sweep (see the module docstring for why it
        is exact); raises NoPathError if the open list empties first, that
        is, when the start's h is still INF.  It needs a fresh planner,
        whose queued cells all have k == h.
        """
        if self.expanded:
            raise RuntimeError("initial_run needs a fresh planner; use replan to repair")
        goal = self.grid.index(self.grid.goal)
        self._insert(goal, 0.0)
        stop = self.grid.index(self.grid.start)
        live, h, back = self._live, self._h, self._back
        mask, table, probe, seq = self._mask, self._table, self.probe, self._seq
        # one FIFO queue per step cost (see the module docstring); the goal's
        # entry opens the orthogonal one
        ortho, diag = deque(self._heap), deque()
        # the probe's bytes and the expansions stay in locals as in ``_run``
        nbytes, peak = probe.live_bytes, probe.peak_bytes
        expanded, nexp0, on_expand = 0, probe.expansions, probe.on_expand
        while ortho or diag:
            if diag and (not ortho or diag[0] < ortho[0]):
                rh, sq, x = diag.popleft()
            else:
                rh, sq, x = ortho.popleft()
            nbytes -= HEAP_ENTRY_BYTES
            # current exactly when its key is h: every push lowers h, and a
            # closed cell's h never falls again
            if h[x] != rh:
                continue
            expanded += 1
            if on_expand is not None:
                probe.live_bytes, probe.peak_bytes = nbytes, peak
                probe.expansions = nexp0 + expanded
                on_expand(x)
            # every expansion is LOWER with k == h: a push writes only h, the
            # back-pointer and its entry; ``_live`` is derived at the stop.
            # One test per arc: the neighbour and its new h are made only for
            # an arc that lowers it.  A cell with h = INF is NEW
            for off, c in table[mask[x]]:
                if h[x + off] > rh + c:
                    y = x + off
                    if h[y] == INF:
                        nbytes += RECORD_ENTRY_BYTES
                    back[y] = x
                    nh = h[y] = rh + c
                    seq += 1
                    (ortho if c == 1.0 else diag).append((nh, seq, y))
                    nbytes += HEAP_ENTRY_BYTES
            if nbytes > peak:
                peak = nbytes
            if x == stop:
                break
        # the deferred writes: the goal's entry was popped first, and each
        # cell with a current entry left is OPEN under that entry
        live[goal] = None
        rest = list(merge(ortho, diag))
        for e in rest:
            if h[e[2]] == e[0]:
                live[e[2]] = e
        # the rest is sorted and so a valid heap for ``_run``; its stale
        # front entries leave it (and the byte count) before any later push
        stale = 0
        while stale < len(rest) and live[rest[stale][2]] is not rest[stale]:
            stale += 1
        nbytes -= stale * HEAP_ENTRY_BYTES
        self._heap = rest[stale:]
        self._seq, self.expanded = seq, expanded
        probe.live_bytes, probe.peak_bytes, probe.expansions = nbytes, peak, nexp0 + expanded
        if h[stop] == INF:
            raise NoPathError(f"no path from {tuple(self.grid.start)} to {tuple(self.grid.goal)}")

    def set_blocked(self, cell, blocked: bool = True) -> None:
        """Toggle an obstacle; re-queues affected CLOSED cells (neither OPEN nor NEW)."""
        i = toggle_cell(self.grid, self._flags, cell, blocked, (self.grid.goal,),
                        "the goal must stay traversable")
        flags, h, back = self._flags, self._h, self._back
        affected = [i] + [i + off for off, _, _, _ in self._steps if flags[i + off] != OUTSIDE]
        refresh_arc_masks(self._mask, affected[1:], flags, self._steps)
        for s in affected:
            self._dirty[s] = 1
            if self._live[s] is None and not (h[s] == INF and back[s] < 0):
                self._insert(s, h[s])

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
        return self.grid.coords(path)

    def solve(self) -> tuple:
        self.initial_run()
        path = self.extract_path()
        return path, path_cost_of(path), self.expanded


def run(grid, params: SolverParams, probe: AllocationProbe):
    return DStarPlanner(grid, probe).solve()
