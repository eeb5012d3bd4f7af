"""Optimal reference search: A* under the straight-line heuristic.

The heuristic is consistent on an 8-connected grid, so the first expansion
of the goal carries the true minimum cost; this solver is the exactness
oracle the rest of the suite is measured against.

g and the search tree are dense arrays indexed by padded id; a cell's
first write charges the probe two map entries, as hashed g and parent
maps of the touched cells would hold.  The open list is a binary heap of
(f, tie, seq, id) entries with a ``live`` map from each queued id to the
seq of the entry that counts, so a re-push supersedes the earlier entry,
which stays in the heap (and in the byte count) until it surfaces.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import hypot

from ..errors import NoPathError
from ..grid import arc_masks, arc_table
from ..instrumentation import HEAP_ENTRY_BYTES, MAP_ENTRY_BYTES, AllocationProbe
from .common import INF, SolverParams, TieBreak


def run(grid, params: SolverParams, probe: AllocationProbe):
    """Returns (path, path_cost, expanded)."""
    high_g = params.tie_break is TieBreak.HIGH_G
    stride = grid.width + 2
    # the grid's arcs, built per solve like every solver's; substrate, not charged
    mask, table = arc_masks(grid.flags, grid.steps), arc_table(grid.steps)
    start, goal = grid.index(grid.start), grid.index(grid.goal)
    gx, gy = goal % stride, goal // stride
    size = len(grid.flags)
    g = [INF] * size
    parent = [-1] * size
    g[start] = 0.0
    heap = [(hypot(start % stride - gx, start // stride - gy), 0.0, 1, start)]
    live = {start: 1}
    seq = 1
    # the probe's bytes are kept in locals and written back before every
    # probe call, return and raise (see ``instrumentation``); the start's
    # g entry has no parent entry
    nbytes = probe.live_bytes + MAP_ENTRY_BYTES + HEAP_ENTRY_BYTES
    peak = max(probe.peak_bytes, nbytes)
    expanded = 0
    while live:
        while True:
            _, _, sq, s = heappop(heap)
            nbytes -= HEAP_ENTRY_BYTES
            if live.get(s) == sq:
                del live[s]
                break
        expanded += 1
        probe.live_bytes, probe.peak_bytes = nbytes, peak
        probe.expand(s)
        if s == goal:
            ids = [goal]
            while s != start:
                s = parent[s]
                ids.append(s)
            return [grid.coord(i) for i in reversed(ids)], g[goal], expanded
        gs = g[s]
        for off, c in table[mask[s]]:
            n = s + off
            ng = gs + c
            gn = g[n]
            if ng < gn:
                if gn == INF:
                    nbytes += 2 * MAP_ENTRY_BYTES
                g[n] = ng
                parent[n] = s
                seq += 1
                live[n] = seq
                heappush(heap, (ng + hypot(n % stride - gx, n // stride - gy),
                                -ng if high_g else ng, seq, n))
                nbytes += HEAP_ENTRY_BYTES
        if nbytes > peak:
            peak = nbytes
    probe.live_bytes, probe.peak_bytes = nbytes, peak
    raise NoPathError(f"no path from {tuple(grid.start)} to {tuple(grid.goal)}")
