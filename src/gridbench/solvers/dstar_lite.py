"""Goal-rooted incremental planner for a moving agent.

Same g/rhs machinery as the forward planner, but rooted at the goal: g(s)
estimates the cost from s to the goal, and keys are measured toward the
agent's current cell,

    [min(g, rhs) + h(agent, s) + k_m; min(g, rhs)].

The offset k_m accumulates the heuristic distance covered by the agent
since the last recomputation, which keeps every stale open-list key a
valid lower bound, so moving does not force a re-sort.  Entries whose
stored key has fallen below their recomputed key are refreshed on pop.
On a static grid the first ``compute`` is plain backward A* and the
extracted path is optimal.
"""

from __future__ import annotations

from math import hypot

from ..errors import NoPathError
from ..grid import neighbor_cells
from ..instrumentation import AllocationProbe, TrackedMap
from ..pqueue import LazyHeap
from .common import INF, SolverParams, cells_around, toggle_cell


class DStarLitePlanner:
    def __init__(self, grid, params: SolverParams | None = None, probe: AllocationProbe | None = None):
        self.grid = grid
        self.params = params or SolverParams()
        self.probe = probe or AllocationProbe()
        # padded flags of the planner's own (mutable) copy of the grid
        self._flags = bytearray(grid.flags)
        self._steps = grid.steps
        self._stride = grid.width + 2
        self._goal = grid.index(grid.goal)
        self._g = TrackedMap(self.probe, default=INF)
        self._rhs = TrackedMap(self.probe, default=INF)
        self._open = LazyHeap(self.probe)
        self.expanded = 0
        self._move_to(grid.index(grid.start))
        self._last = self._pos
        self._k_m = 0.0
        self._rhs[self._goal] = 0.0
        self._open.push(self._goal, self._key(self._goal))

    @property
    def position(self):
        """The agent's cell."""
        return self.grid.coord(self._pos)

    def _move_to(self, i: int) -> None:
        self._pos = i
        self._px, self._py = i % self._stride, i // self._stride

    def _neighbors(self, i):
        return neighbor_cells(i, self._flags, self._steps)

    def _key(self, s):
        m = min(self._g.get(s), self._rhs.get(s))
        stride = self._stride
        return (m + hypot(self._px - s % stride, self._py - s // stride) + self._k_m, m)

    def _moved(self) -> float:
        """Straight-line distance from the cell of the last key offset to the agent."""
        stride = self._stride
        last = self._last
        return hypot(last % stride - self._px, last // stride - self._py)

    def _update_vertex(self, s) -> None:
        if s != self._goal:
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
        """Expand until the agent's cell is consistent with a minimal key."""
        g, rhs, open_ = self._g, self._rhs, self._open
        pos = self._pos
        while open_:
            top = open_.peek()
            if not (top[0] < self._key(pos) or rhs.get(pos) != g.get(pos)):
                break
            k_old, u = open_.pop()
            k_new = self._key(u)
            if k_old < k_new:
                # stale lower bound from before the agent moved
                self._open.push(u, k_new)
                continue
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
        if g.get(pos) == INF:
            raise NoPathError(f"no path from {tuple(self.position)} to {tuple(self.grid.goal)}")

    def _best_move(self, cell):
        best = None
        best_val = INF
        for n, c in self._neighbors(cell):
            v = c + self._g.get(n)
            if v < best_val:
                best_val = v
                best = n
        return best, best_val

    def extract_path(self) -> list:
        """Greedy descent from the agent's cell toward the goal."""
        goal = self._goal
        if self._g.get(self._pos) == INF:
            raise NoPathError(f"no path from {tuple(self.position)} to {tuple(self.grid.goal)}")
        path = [self._pos]
        cur = self._pos
        limit = self.grid.width * self.grid.height + 1
        while cur != goal:
            nxt, val = self._best_move(cur)
            if nxt is None or val == INF:
                raise NoPathError(f"path extraction stranded at {tuple(self.grid.coord(cur))}")
            cur = nxt
            path.append(cur)
            if len(path) > limit:
                raise NoPathError("path extraction cycled; values inconsistent")
        return [self.grid.coord(i) for i in path]

    def advance(self, steps: int = 1) -> None:
        """Move the agent along the current optimal path."""
        for _ in range(steps):
            if self._pos == self._goal:
                return
            nxt, val = self._best_move(self._pos)
            if nxt is None or val == INF:
                raise NoPathError(f"agent stranded at {tuple(self.position)}")
            self._move_to(nxt)
        self._k_m += self._moved()
        self._last = self._pos

    def set_blocked(self, cell, blocked: bool = True) -> None:
        """Apply an obstacle change and re-queue the affected cells."""
        i = toggle_cell(self.grid, self._flags, cell, blocked,
                        (self.position, self.grid.goal), "agent/goal cells must stay traversable")
        self._k_m += self._moved()
        self._last = self._pos
        self._update_vertex(i)
        for j in cells_around(i, self._flags, self._stride):
            self._update_vertex(j)

    def solve(self) -> tuple:
        self.compute()
        path = self.extract_path()
        return path, self._g.get(self._pos), self.expanded


def run(grid, params: SolverParams, probe: AllocationProbe):
    return DStarLitePlanner(grid, params, probe).solve()
