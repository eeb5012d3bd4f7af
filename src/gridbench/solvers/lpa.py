"""Incremental forward planner built on one-step-lookahead (rhs) values.

Every touched cell carries two estimates of its cost from the start: g
(committed) and rhs (best over predecessors of g + step cost); a cell is
locally consistent when they agree.  The open list holds inconsistent
cells keyed lexicographically by

    [min(g, rhs) + h(cell, goal); min(g, rhs)]

and the shortest path is recomputed by expanding only inconsistent cells
until the goal is consistent with a minimal key.  The first run on a
static grid therefore behaves exactly like A*; after an edge change,
``set_blocked`` re-queues just the affected cells and the next
``compute`` repairs the solution instead of starting over.
"""

from __future__ import annotations

from math import hypot

from ..errors import NoPathError
from ..grid import neighbor_cells
from ..instrumentation import AllocationProbe, TrackedMap
from ..pqueue import LazyHeap
from .common import INF, SolverParams, cells_around, toggle_cell


class LpaStarPlanner:
    def __init__(self, grid, params: SolverParams | None = None, probe: AllocationProbe | None = None):
        self.grid = grid
        self.params = params or SolverParams()
        self.probe = probe or AllocationProbe()
        # padded flags of the planner's own (mutable) copy of the grid
        self._flags = bytearray(grid.flags)
        self._steps = grid.steps
        self._stride = grid.width + 2
        self._start = grid.index(grid.start)
        self._goal = grid.index(grid.goal)
        self._gx, self._gy = self._goal % self._stride, self._goal // self._stride
        self._g = TrackedMap(self.probe, default=INF)
        self._rhs = TrackedMap(self.probe, default=INF)
        self._open = LazyHeap(self.probe)
        self.expanded = 0
        self._rhs[self._start] = 0.0
        self._open.push(self._start, self._key(self._start))

    def _neighbors(self, i):
        return neighbor_cells(i, self._flags, self._steps)

    def _key(self, s):
        m = min(self._g.get(s), self._rhs.get(s))
        stride = self._stride
        return (m + hypot(s % stride - self._gx, s // stride - self._gy), m)

    def _update_vertex(self, s) -> None:
        if s != self._start:
            if self._flags[s]:
                rhs = INF
            else:
                rhs = INF
                for n, c in self._neighbors(s):
                    v = self._g.get(n) + c
                    if v < rhs:
                        rhs = v
            self._rhs[s] = rhs
        self._open.remove(s)
        if self._g.get(s) != self._rhs.get(s):
            self._open.push(s, self._key(s))

    def compute(self) -> None:
        """Expand inconsistent cells until the goal is settled."""
        goal = self._goal
        g, rhs, open_ = self._g, self._rhs, self._open
        while open_:
            top = open_.peek()
            if not (top[0] < self._key(goal) or rhs.get(goal) != g.get(goal)):
                break
            _, u = open_.pop()
            self.expanded += 1
            self.probe.expand(u)
            if g.get(u) > rhs.get(u):
                g[u] = rhs.get(u)
                for n, _ in self._neighbors(u):
                    self._update_vertex(n)
            else:
                g[u] = INF
                self._update_vertex(u)
                for n, _ in self._neighbors(u):
                    self._update_vertex(n)
        if g.get(goal) == INF:
            raise NoPathError(f"no path from {tuple(self.grid.start)} to {tuple(self.grid.goal)}")

    def set_blocked(self, cell, blocked: bool = True) -> None:
        """Apply an obstacle change and re-queue the affected cells."""
        i = toggle_cell(self.grid, self._flags, cell, blocked,
                        (self.grid.start, self.grid.goal), "start/goal must stay traversable")
        self._update_vertex(i)
        for j in cells_around(i, self._flags, self._stride):
            self._update_vertex(j)

    def extract_path(self) -> list:
        """Greedy descent from the goal along settled g values."""
        start, goal = self._start, self._goal
        if self._g.get(goal) == INF:
            raise NoPathError(f"no path from {tuple(self.grid.start)} to {tuple(self.grid.goal)}")
        path = [goal]
        cur = goal
        limit = self.grid.width * self.grid.height + 1
        while cur != start:
            best = None
            best_val = INF
            for n, c in self._neighbors(cur):
                v = self._g.get(n) + c
                if v < best_val:
                    best_val = v
                    best = n
            if best is None or best_val == INF:
                raise NoPathError(f"path extraction stranded at {tuple(self.grid.coord(cur))}")
            cur = best
            path.append(cur)
            if len(path) > limit:
                raise NoPathError("path extraction cycled; values inconsistent")
        path.reverse()
        return [self.grid.coord(i) for i in path]

    def solve(self) -> tuple:
        self.compute()
        path = self.extract_path()
        return path, self._g.get(self._goal), self.expanded


def run(grid, params: SolverParams, probe: AllocationProbe):
    return LpaStarPlanner(grid, params, probe).solve()
