"""Incremental planners on one-step-lookahead (rhs) values: LPA* and D* Lite.

Every touched cell has two estimates of its cost from a root cell: g
(committed) and rhs (best over neighbours of g + step cost).  The open
list holds the cells with g != rhs, keyed lexicographically by
[min(g, rhs) + h(target, cell) + k_m; min(g, rhs)], and ``compute``
expands them until the target is consistent with a minimal key; the path
is the greedy descent along g from the target to the root.  On a static
grid that is A* from the root; after an obstacle change, ``set_blocked``
re-queues only the affected cells.  LPA* roots the search at the start
and aims at the goal (k_m stays 0); D* Lite (``dstar_lite``) roots it at
the goal and aims at the moving agent.
"""

from __future__ import annotations

from math import hypot

from ..errors import NoPathError
from ..grid import neighbor_cells
from ..instrumentation import AllocationProbe, TrackedMap
from ..pqueue import LazyHeap
from .common import INF, SolverParams, cells_around, toggle_cell


class GRhsPlanner:
    """The g/rhs core; the path runs target -> root, or root -> target if ``_forward``."""

    _forward = False

    def __init__(self, grid, root, target, params: SolverParams | None = None,
                 probe: AllocationProbe | None = None):
        self.grid = grid
        self.params = params or SolverParams()
        self.probe = probe or AllocationProbe()
        # padded flags of the planner's own (mutable) copy of the grid
        self._flags = bytearray(grid.flags)
        self._steps = grid.steps
        self._stride = grid.width + 2
        self._root = grid.index(root)
        self._g = TrackedMap(self.probe, default=INF)
        self._rhs = TrackedMap(self.probe, default=INF)
        self._open = LazyHeap(self.probe)
        self.expanded = 0
        self._aim(grid.index(target))
        self._last = self._target
        self._k_m = 0.0
        self._rhs[self._root] = 0.0
        self._open.push(self._root, self._key(self._root))

    def _aim(self, i: int) -> None:
        self._target = i
        self._tx, self._ty = i % self._stride, i // self._stride

    def _key(self, s):
        m = min(self._g.get(s), self._rhs.get(s))
        return (m + hypot(self._tx - s % self._stride, self._ty - s // self._stride) + self._k_m, m)

    def _no_path(self) -> NoPathError:
        origin = self.grid.coord(self._root if self._forward else self._target)
        return NoPathError(f"no path from {tuple(origin)} to {tuple(self.grid.goal)}")

    def _update_vertex(self, s) -> None:
        if s != self._root:
            rhs = INF
            if not self._flags[s]:
                for n, c in neighbor_cells(s, self._flags, self._steps):
                    v = self._g.get(n) + c
                    if v < rhs:
                        rhs = v
            self._rhs[s] = rhs
        self._open.remove(s)
        if self._g.get(s) != self._rhs.get(s):
            self._open.push(s, self._key(s))

    def compute(self) -> None:
        """Expand inconsistent cells until the target is consistent with a minimal key."""
        g, rhs, open_ = self._g, self._rhs, self._open
        target = self._target
        while open_:
            (k1, k2), _ = open_.peek()
            t1, t2 = self._key(target)
            # k1 values within 1e-9 tie: one ulp of rounding must not end the search
            if not (k1 < t1 - 1e-9 or (k1 <= t1 + 1e-9 and k2 < t2)
                    or rhs.get(target) != g.get(target)):
                break
            k_old, u = open_.pop()
            k_new = self._key(u)
            if k_old < k_new:
                # stale lower bound from before the target moved
                open_.push(u, k_new)
                continue
            self.expanded += 1
            self.probe.expand(u)
            if g.get(u) > rhs.get(u):
                g[u] = rhs.get(u)
            else:
                g[u] = INF
                self._update_vertex(u)
            for n, _ in neighbor_cells(u, self._flags, self._steps):
                self._update_vertex(n)
        if g.get(target) == INF:
            raise self._no_path()

    def set_blocked(self, cell, blocked: bool = True) -> None:
        """Apply an obstacle change, add the target's move since the last one to k_m, re-queue."""
        ends = (self.grid.coord(self._root), self.grid.coord(self._target))
        i = toggle_cell(self.grid, self._flags, cell, blocked, ends,
                        "path ends must stay traversable")
        stride, last = self._stride, self._last
        self._k_m += hypot(last % stride - self._tx, last // stride - self._ty)
        self._last = self._target
        self._update_vertex(i)
        for j in cells_around(i, self._flags, stride):
            self._update_vertex(j)

    def _best_step(self, i):
        """The neighbour of ``i`` with the least step cost + g, and that sum."""
        best, best_val = None, INF
        for n, c in neighbor_cells(i, self._flags, self._steps):
            v = c + self._g.get(n)
            if v < best_val:
                best, best_val = n, v
        return best, best_val

    def extract_path(self) -> list:
        """Greedy descent along settled g values from the target to the root."""
        cur = self._target
        if self._g.get(cur) == INF:
            raise self._no_path()
        path = [cur]
        limit = self.grid.width * self.grid.height + 1
        while cur != self._root:
            cur, val = self._best_step(cur)
            if cur is None or val == INF:
                raise NoPathError(f"path extraction stranded at {tuple(self.grid.coord(path[-1]))}")
            path.append(cur)
            if len(path) > limit:
                raise NoPathError("path extraction cycled; values inconsistent")
        if self._forward:
            path.reverse()
        return [self.grid.coord(i) for i in path]

    def solve(self) -> tuple:
        self.compute()
        return self.extract_path(), self._g.get(self._target), self.expanded


class LpaStarPlanner(GRhsPlanner):
    """LPA*: forward from the start, keys aimed at the goal."""

    _forward = True

    def __init__(self, grid, params=None, probe=None):
        super().__init__(grid, grid.start, grid.goal, params, probe)


def run(grid, params: SolverParams, probe: AllocationProbe):
    return LpaStarPlanner(grid, params, probe).solve()
