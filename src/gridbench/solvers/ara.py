"""Anytime search: inflate the heuristic, publish, then repair.

Runs weighted A* rounds with f = g + w*h, starting at the configured
initial weight and lowering w by a fixed decrement down to 1
(2.5 -> 2.0 -> 1.5 -> 1.0 by default).  g values, parents, and the open
list persist across rounds; states found locally inconsistent while
closed are parked on an inconsistency list and re-opened for the next
round instead of restarting the search.  Every published cost is at most
w times the optimum for that round's w, costs never increase between
rounds, and the w = 1 round is exact.
"""

from __future__ import annotations

from math import hypot

from ..errors import NoPathError
from ..grid import arc_masks, arc_table
from ..instrumentation import MAP_ENTRY_BYTES, SET_ENTRY_BYTES, AllocationProbe
from ..pqueue import LazyHeap
from .common import INF, SolverParams, reconstruct, tie_term


def run_detailed(grid, params: SolverParams, probe: AllocationProbe):
    """Returns (path, cost, expanded, iterates) with one (w, cost) per round."""
    tb = params.tie_break
    stride = grid.width + 2
    # the grid's arcs, built per solve like every solver's; substrate, not charged
    mask, table = arc_masks(grid.flags, grid.steps), arc_table(grid.steps)
    start, goal = grid.index(grid.start), grid.index(grid.goal)
    gx, gy = goal % stride, goal // stride

    def h(s):
        return hypot(s % stride - gx, s // stride - gy)

    g = {start: 0.0}
    probe.alloc(MAP_ENTRY_BYTES)
    parents = {}
    open_ = LazyHeap(probe)
    closed = set()
    # keyed by (x, y): the iteration order of this set is the re-open
    # order, which breaks ties between equal keys in the next round
    incons = set()
    expanded = 0
    iterates = []

    w = params.ara_initial_weight
    open_.push(start, (w * h(start), tie_term(0.0, tb)))

    while True:
        # improve-path round at the current weight
        while open_:
            top = open_.peek()
            if top is not None and g.get(goal, INF) <= top[0][0]:
                break
            _, s = open_.pop()
            if s not in closed:
                closed.add(s)
                probe.alloc(SET_ENTRY_BYTES)
            expanded += 1
            probe.expand(s)
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
                    if n in closed:
                        xy = (n % stride - 1, n // stride - 1)
                        if xy not in incons:
                            incons.add(xy)
                            probe.alloc(SET_ENTRY_BYTES)
                    else:
                        open_.push(n, (ng + w * h(n), tie_term(ng, tb)))
        cost = g.get(goal, INF)
        if cost == INF:
            raise NoPathError(f"no path from {tuple(grid.start)} to {tuple(grid.goal)}")
        iterates.append((w, cost))
        if w <= 1.0 or (not open_ and not incons):
            break
        w = max(1.0, w - params.ara_weight_decrement)
        # re-open surviving open entries and the inconsistency list at the new weight
        reopen = open_.live_items()
        for x, y in incons:
            s = grid.index((x, y))
            if s not in open_:
                reopen.append(s)
        open_.release()
        probe.free(SET_ENTRY_BYTES * (len(incons) + len(closed)))
        incons.clear()
        closed.clear()
        for s in reopen:
            open_.push(s, (g[s] + w * h(s), tie_term(g[s], tb)))

    path = [grid.coord(i) for i in reconstruct(parents, goal, start)]
    return path, g[goal], expanded, iterates


def run(grid, params: SolverParams, probe: AllocationProbe):
    path, cost, expanded, _ = run_detailed(grid, params, probe)
    return path, cost, expanded
