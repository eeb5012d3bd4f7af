"""Optimal reference search: A* under the straight-line heuristic.

The heuristic is consistent on an 8-connected grid, so the first expansion
of the goal carries the true minimum cost; this solver is the exactness
oracle the rest of the suite is measured against.

g and the search tree are dense arrays indexed by padded id; a cell's
first write charges the probe two map entries, as hashed g and parent
maps of the touched cells would hold.  The open list is a binary heap of
(f, -g, seq, id) entries, so equal-f entries pop higher g first, then in
push order.  The open list's index is dense, as in the g/rhs core
(``lpa``): ``live`` holds, per padded id, the seq of the entry that
counts (0: not queued; seqs start at 1), so a re-push supersedes the
earlier entry, which stays in the heap (and in the byte count) until it
surfaces; ``queued`` counts the ids with a nonzero seq.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import hypot

from ..errors import NoPathError
from ..grid import arc_table
from ..instrumentation import HEAP_ENTRY_BYTES, MAP_ENTRY_BYTES, AllocationProbe
from .common import INF, SolverParams


def run(grid, params: SolverParams, probe: AllocationProbe):
    """Returns (path, path_cost, expanded)."""
    stride = grid.width + 2
    # the grid's arcs (``Grid.masks``); substrate, not charged
    mask, table = grid.masks, arc_table(grid.steps)
    start, goal = grid.index(grid.start), grid.index(grid.goal)
    gx, gy = goal % stride, goal // stride
    size = len(grid.flags)
    g = [INF] * size
    parent = [-1] * size
    g[start] = 0.0
    heap = [(hypot(start % stride - gx, start // stride - gy), 0.0, 1, start)]
    live = [0] * size
    live[start] = seq = queued = 1
    # the probe's bytes and expansion count are kept in locals and written
    # back before every probe call, return and raise (see
    # ``instrumentation``); the start's g entry has no parent entry
    nbytes = probe.live_bytes + MAP_ENTRY_BYTES + HEAP_ENTRY_BYTES
    peak = max(probe.peak_bytes, nbytes)
    expanded, nexp0, on_expand = 0, probe.expansions, probe.on_expand
    while queued:
        while True:
            _, _, sq, s = heappop(heap)
            nbytes -= HEAP_ENTRY_BYTES
            if live[s] == sq:
                live[s] = 0
                queued -= 1
                break
        expanded += 1
        if on_expand is not None:
            probe.live_bytes, probe.peak_bytes, probe.expansions = nbytes, peak, nexp0 + expanded
            on_expand(s)
        if s == goal:
            probe.live_bytes, probe.peak_bytes, probe.expansions = nbytes, peak, nexp0 + expanded
            ids = [goal]
            while s != start:
                s = parent[s]
                ids.append(s)
            return grid.coords(reversed(ids)), g[goal], expanded
        gs = g[s]
        # one test per arc; the neighbour and its new g are made only for
        # an arc that lowers it
        for off, c in table[mask[s]]:
            if gs + c < g[s + off]:
                n = s + off
                if g[n] == INF:
                    nbytes += 2 * MAP_ENTRY_BYTES
                ng = g[n] = gs + c
                parent[n] = s
                seq += 1
                if not live[n]:
                    queued += 1
                live[n] = seq
                heappush(heap, (ng + hypot(n % stride - gx, n // stride - gy), -ng, seq, n))
                nbytes += HEAP_ENTRY_BYTES
        if nbytes > peak:
            peak = nbytes
    probe.live_bytes, probe.peak_bytes, probe.expansions = nbytes, peak, nexp0 + expanded
    raise NoPathError(f"no path from {tuple(grid.start)} to {tuple(grid.goal)}")
