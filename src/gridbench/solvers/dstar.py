"""Backward replanner with RAISE/LOWER wavefront propagation.

Searches outward from the goal, giving every touched cell a tagged record
(NEW / OPEN / CLOSED, cost estimate h, queue key k, back-pointer) that
survives for the life of the planner.  The queue key k is the smallest h
the cell has held while queued: entries popped with k < h are RAISE
states that first try to reroute through a settled neighbor, entries with
k == h are LOWER states that propagate improvements to their neighbors.
On an arc-cost change (an obstacle toggled), affected CLOSED cells
re-enter the open list and processing resumes until the robot's cell is
again provably optimal.  On a static grid the initial run is a plain
backward uniform-cost sweep.  The whole record store is kept; its
footprint is part of what the benchmarks measure.
"""

from __future__ import annotations

from ..errors import InvalidCellError, NoPathError
from ..grid import BLOCKED, OUTSIDE
from ..instrumentation import RECORD_ENTRY_BYTES, AllocationProbe, TrackedMap
from ..pqueue import LazyHeap
from .common import INF, SolverParams, path_cost_of, toggle_cell

_NEW, _OPEN, _CLOSED = 0, 1, 2


class _Record:
    __slots__ = ("tag", "h", "k", "back")

    def __init__(self):
        self.tag = _NEW
        self.h = INF
        self.k = INF
        self.back = None


class DStarPlanner:
    def __init__(self, grid, params: SolverParams | None = None, probe: AllocationProbe | None = None):
        self.grid = grid
        self.params = params or SolverParams()
        self.probe = probe or AllocationProbe()
        # padded flags of the planner's own (mutable) copy of the grid
        self._flags = bytearray(grid.flags)
        self._steps = grid.steps
        self._records = TrackedMap(self.probe, entry_bytes=RECORD_ENTRY_BYTES)
        self._open = LazyHeap(self.probe)
        self.expanded = 0

    def _rec(self, s) -> _Record:
        r = self._records.data.get(s)
        if r is None:
            r = _Record()
            self._records[s] = r
        return r

    def _arcs(self, i):
        """All in-grid 8-neighbors with arc cost, INF for unusable arcs."""
        flags = self._flags
        cell_blocked = flags[i] == BLOCKED
        out = []
        for off, cost, fa, fb in self._steps:
            j = i + off
            f = flags[j]
            if f == OUTSIDE:
                continue
            if cell_blocked or f or (fa and (flags[i + fa] or flags[i + fb])):
                out.append((j, INF))
            else:
                out.append((j, cost))
        return out

    def _insert(self, s, h_new: float) -> None:
        r = self._rec(s)
        if r.tag == _NEW:
            r.k = h_new
        elif r.tag == _OPEN:
            r.k = min(r.k, h_new)
        else:
            r.k = min(r.h, h_new)
        r.h = h_new
        r.tag = _OPEN
        self._open.push(s, (r.k,))

    def _kmin(self) -> float:
        top = self._open.peek()
        return top[0][0] if top is not None else -1.0

    def _process_state(self) -> float:
        open_ = self._open
        if not open_:
            return -1.0
        (k_old,), x = open_.pop()
        records = self._records.data
        r = records[x]  # every queued cell has a record
        r.tag = _CLOSED
        self.expanded += 1
        self.probe.expand(x)
        arcs = self._arcs(x)
        if k_old < r.h:
            # RAISE: try to reroute through an already-settled neighbor
            for y, c in arcs:
                ry = records.get(y)
                if ry is not None and ry.h <= k_old and r.h > ry.h + c:
                    r.back = y
                    r.h = ry.h + c
        rh = r.h  # fixed from here on: the loops below update only neighbours
        if k_old == rh:
            # LOWER: propagate the settled cost to neighbors
            for y, c in arcs:
                ry = records.get(y)
                nh = rh + c
                if ry is None:
                    if nh < INF:
                        ry = self._rec(y)
                        ry.back = x
                        self._insert(y, nh)
                elif (ry.back == x and ry.h != nh) or (ry.back != x and ry.h > nh):
                    ry.back = x
                    self._insert(y, nh)
        else:
            # still raised: re-expand descendants and enlist possible rescuers
            for y, c in arcs:
                ry = records.get(y)
                nh = rh + c
                if ry is None:
                    if nh < INF:
                        ry = self._rec(y)
                        ry.back = x
                        self._insert(y, nh)
                elif ry.back == x and ry.h != nh:
                    ry.back = x
                    self._insert(y, nh)
                elif ry.back != x and ry.h > nh:
                    self._insert(x, rh)
                elif ry.back != x and rh > ry.h + c and ry.tag == _CLOSED and ry.h > k_old:
                    self._insert(y, ry.h)
        return self._kmin()

    def initial_run(self) -> None:
        """Settle costs outward from the goal until the start is closed."""
        start = self.grid.index(self.grid.start)
        self._insert(self.grid.index(self.grid.goal), 0.0)
        while True:
            r = self._records.data.get(start)
            if r is not None and r.tag == _CLOSED:
                break
            if self._open.peek() is None:
                raise NoPathError(
                    f"no path from {tuple(self.grid.start)} to {tuple(self.grid.goal)}"
                )
            self._process_state()

    def set_blocked(self, cell, blocked: bool = True) -> None:
        """Toggle an obstacle; re-queues affected CLOSED cells."""
        i = toggle_cell(self.grid, self._flags, cell, blocked, (self.grid.goal,),
                        "the goal must stay traversable")
        flags = self._flags
        affected = [i] + [i + off for off, _, _, _ in self._steps if flags[i + off] != OUTSIDE]
        for s in affected:
            r = self._records.data.get(s)
            if r is not None and r.tag == _CLOSED:
                self._insert(s, r.h)

    def _cell_id(self, cell) -> int:
        if not self.grid.in_bounds(cell):
            raise InvalidCellError(f"{tuple(cell)} is out of bounds")
        return self.grid.index(cell)

    def replan(self, position) -> None:
        """Process until the cost at ``position`` is again provably optimal."""
        position = self._cell_id(position)
        while True:
            r = self._records.data.get(position)
            href = r.h if r is not None else INF
            k = self._kmin()
            if k < 0 or k >= href:
                break
            self._process_state()

    def extract_path(self, origin=None) -> list:
        origin = self._cell_id(origin if origin is not None else self.grid.start)
        coord = self.grid.coord
        records = self._records.data
        r = records.get(origin)
        if r is None or r.h == INF:
            raise NoPathError(f"no path from {tuple(coord(origin))} to {tuple(self.grid.goal)}")
        goal = self.grid.index(self.grid.goal)
        path = [origin]
        cur = origin
        limit = self.grid.width * self.grid.height + 1
        while cur != goal:
            rc = records.get(cur)
            nxt = rc.back if rc is not None else None
            if nxt is None:
                raise NoPathError(f"broken back-pointer chain at {tuple(coord(cur))}")
            arc = dict(self._arcs(cur)).get(nxt, INF)
            if arc == INF:
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
