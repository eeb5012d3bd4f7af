"""Optimal reference search: A* under the straight-line heuristic.

The heuristic is consistent on an 8-connected grid, so the first expansion
of the goal carries the true minimum cost; this solver is the exactness
oracle the rest of the suite is measured against.
"""

from __future__ import annotations

from math import hypot

from ..errors import NoPathError
from ..grid import arc_masks, arc_table
from ..instrumentation import MAP_ENTRY_BYTES, AllocationProbe
from ..pqueue import LazyHeap
from .common import INF, SolverParams, reconstruct, tie_term


def run(grid, params: SolverParams, probe: AllocationProbe):
    """Returns (path, path_cost, expanded)."""
    tb = params.tie_break
    stride = grid.width + 2
    # the grid's arcs, built per solve like every solver's; substrate, not charged
    mask, table = arc_masks(grid.flags, grid.steps), arc_table(grid.steps)
    start, goal = grid.index(grid.start), grid.index(grid.goal)
    gx, gy = goal % stride, goal // stride
    g = {start: 0.0}
    parents = {}
    probe.alloc(MAP_ENTRY_BYTES)
    open_ = LazyHeap(probe)
    open_.push(start, (hypot(start % stride - gx, start // stride - gy), tie_term(0.0, tb)))
    expanded = 0
    while open_:
        _, s = open_.pop()
        expanded += 1
        probe.expand(s)
        if s == goal:
            path = [grid.coord(i) for i in reconstruct(parents, goal, start)]
            return path, g[goal], expanded
        gs = g[s]
        for off, c in table[mask[s]]:
            n = s + off
            ng = gs + c
            if ng < g.get(n, INF):
                if n not in g:
                    probe.alloc(MAP_ENTRY_BYTES)
                g[n] = ng
                if n not in parents:
                    probe.alloc(MAP_ENTRY_BYTES)
                parents[n] = s
                open_.push(n, (ng + hypot(n % stride - gx, n // stride - gy), tie_term(ng, tb)))
    raise NoPathError(f"no path from {tuple(grid.start)} to {tuple(grid.goal)}")
