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
from ..instrumentation import MAP_ENTRY_BYTES, AllocationProbe
from ..pqueue import LazyHeap
from .common import INF, SolverParams, cells_around, toggle_cell

_HAS_G, _HAS_RHS = 1, 2  # bits of GRhsPlanner._held


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
        # g and rhs are dense arrays indexed by padded id; ``_held`` marks the
        # cells that hold a g / rhs entry, and each entry is charged to the
        # probe at its first write, as a hashed map of touched cells would be
        size = len(self._flags)
        self._g = [INF] * size
        self._rhs = [INF] * size
        self._held = bytearray(size)
        # each cell's neighbour list, built on first use; ``set_blocked``
        # drops the lists around the toggled cell.  Not charged: like the
        # flags it is substrate, not search state
        self._nbrs = [None] * size
        self._open = LazyHeap(self.probe)
        self.expanded = 0
        self._aim(grid.index(target))
        self._last = self._target
        self._k_m = 0.0
        self._set_rhs(self._root, 0.0)
        self._open.push(self._root, self._key(self._root))

    def _aim(self, i: int) -> None:
        self._target = i
        self._tx, self._ty = i % self._stride, i // self._stride

    def _neighbors(self, i) -> list:
        nbrs = self._nbrs[i]
        if nbrs is None:
            nbrs = self._nbrs[i] = neighbor_cells(i, self._flags, self._steps)
        return nbrs

    def _set_g(self, s, v: float) -> None:
        if not self._held[s] & _HAS_G:
            self._held[s] |= _HAS_G
            self.probe.alloc(MAP_ENTRY_BYTES)
        self._g[s] = v

    def _set_rhs(self, s, v: float) -> None:
        if not self._held[s] & _HAS_RHS:
            self._held[s] |= _HAS_RHS
            self.probe.alloc(MAP_ENTRY_BYTES)
        self._rhs[s] = v

    def _key(self, s):
        m = min(self._g[s], self._rhs[s])
        return (m + hypot(self._tx - s % self._stride, self._ty - s // self._stride) + self._k_m, m)

    def _no_path(self) -> NoPathError:
        origin = self.grid.coord(self._root if self._forward else self._target)
        return NoPathError(f"no path from {tuple(origin)} to {tuple(self.grid.goal)}")

    def _update_vertex(self, s) -> None:
        if s != self._root:
            rhs = INF
            if not self._flags[s]:
                g = self._g
                for n, c in self._neighbors(s):
                    v = g[n] + c
                    if v < rhs:
                        rhs = v
            self._set_rhs(s, rhs)
        self._open.remove(s)
        if self._g[s] != self._rhs[s]:
            self._open.push(s, self._key(s))

    def compute(self) -> None:
        """Expand inconsistent cells until the target is consistent with a minimal key."""
        g, rhs, open_ = self._g, self._rhs, self._open
        target, root, neighbors = self._target, self._root, self._neighbors
        held, probe, key = self._held, self.probe, self._key
        # the target's key depends only on its g and rhs while compute runs,
        # so it is recomputed only when one of them has changed
        tg = trhs = None
        while open_:
            (k1, k2), _ = open_.peek()
            gt, rt = g[target], rhs[target]
            if gt != tg or rt != trhs:
                tg, trhs = gt, rt
                t1, t2 = key(target)
            # k1 values within 1e-9 tie: one ulp of rounding must not end the search
            if not (k1 < t1 - 1e-9 or (k1 <= t1 + 1e-9 and k2 < t2) or rt != gt):
                break
            k_old, u = open_.pop()
            k_new = key(u)
            if k_old < k_new:
                # stale lower bound from before the target moved
                open_.push(u, k_new)
                continue
            self.expanded += 1
            probe.expand(u)
            if g[u] > rhs[u]:
                # g falls: every rhs already holds its full minimum and u is
                # each neighbour's neighbour at the same step cost, so only
                # the new g(u) + c can lower it (exact: min does not round).
                # The first-write charge of ``_set_rhs`` and the queue steps
                # of ``_update_vertex`` are inlined: about 10% of a solve
                gu = rhs[u]
                self._set_g(u, gu)
                for n, c in neighbors(u):
                    if n != root:
                        if not held[n] & _HAS_RHS:
                            held[n] |= _HAS_RHS
                            probe.alloc(MAP_ENTRY_BYTES)
                        v = gu + c
                        if v < rhs[n]:
                            rhs[n] = v
                    open_.remove(n)
                    if g[n] != rhs[n]:
                        open_.push(n, key(n))
            else:
                # g rises: u may have been a neighbour's argmin, recompute in full
                self._set_g(u, INF)
                self._update_vertex(u)
                for n, _ in neighbors(u):
                    self._update_vertex(n)
        if g[target] == INF:
            raise self._no_path()

    def set_blocked(self, cell, blocked: bool = True) -> None:
        """Apply an obstacle change, add the target's move since the last one to k_m, re-queue."""
        ends = (self.grid.coord(self._root), self.grid.coord(self._target))
        i = toggle_cell(self.grid, self._flags, cell, blocked, ends,
                        "path ends must stay traversable")
        stride, last = self._stride, self._last
        self._k_m += hypot(last % stride - self._tx, last // stride - self._ty)
        self._last = self._target
        around = cells_around(i, self._flags, stride)
        for j in around:
            self._nbrs[j] = None
        self._update_vertex(i)
        for j in around:
            self._update_vertex(j)

    def _best_step(self, i):
        """The neighbour of ``i`` with the least step cost + g, and that sum."""
        best, best_val = None, INF
        for n, c in self._neighbors(i):
            v = c + self._g[n]
            if v < best_val:
                best, best_val = n, v
        return best, best_val

    def extract_path(self) -> list:
        """Greedy descent along settled g values from the target to the root."""
        cur = self._target
        if self._g[cur] == INF:
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
        return self.extract_path(), self._g[self._target], self.expanded


class LpaStarPlanner(GRhsPlanner):
    """LPA*: forward from the start, keys aimed at the goal."""

    _forward = True

    def __init__(self, grid, params=None, probe=None):
        super().__init__(grid, grid.start, grid.goal, params, probe)


def run(grid, params: SolverParams, probe: AllocationProbe):
    return LpaStarPlanner(grid, params, probe).solve()
