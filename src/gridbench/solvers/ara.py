"""Anytime search: inflate the heuristic, publish, then repair.

Runs weighted A* rounds with f = g + w*h, starting at the configured
initial weight and lowering w by a fixed decrement down to 1
(2.5 -> 2.0 -> 1.5 -> 1.0 by default).  g values, parents, and the open
list persist across rounds; states found locally inconsistent while
closed are parked on an inconsistency list and re-opened for the next
round instead of restarting the search.  Every published cost is at most
w times the optimum for that round's w, costs never increase between
rounds, and the w = 1 round is exact.

State is kept as in ``astar``: dense g and parent arrays charged two map
entries at a cell's first write, and an inline (f, -g, seq, id) heap.
Its ``live`` index is a dict, not ``astar``'s dense list, because each
round re-opens cells in the dict's insertion order, and that order fixes
their seqs.  The closed set is a stamp array holding the round that
closed each cell; each first close in a round charges one set entry.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import hypot

from ..errors import NoPathError
from ..grid import arc_table
from ..instrumentation import (
    HEAP_ENTRY_BYTES,
    MAP_ENTRY_BYTES,
    SET_ENTRY_BYTES,
    AllocationProbe,
)
from .common import INF, SolverParams


def run_detailed(grid, params: SolverParams, probe: AllocationProbe):
    """Returns (path, cost, expanded, iterates) with one (w, cost) per round."""
    stride = grid.width + 2
    # the grid's arcs (``Grid.masks``); substrate, not charged
    mask, table = grid.masks, arc_table(grid.steps)
    start, goal = grid.index(grid.start), grid.index(grid.goal)
    gx, gy = goal % stride, goal // stride
    size = len(grid.flags)
    g = [INF] * size
    parent = [-1] * size
    closed = [0] * size  # the round that last closed each cell
    rnd = 1
    nclosed = 0  # cells closed this round
    g[start] = 0.0
    incons = {}  # padded id -> None, in insertion order
    expanded = 0
    iterates = []

    w = params.ara_initial_weight
    heap = [(w * hypot(start % stride - gx, start // stride - gy), 0.0, 1, start)]
    live = {start: 1}
    seq = 1
    # the probe's bytes and expansion count are kept in locals and written
    # back before every probe call, return and raise (see
    # ``instrumentation``); the start's g entry has no parent entry
    nbytes = probe.live_bytes + MAP_ENTRY_BYTES + HEAP_ENTRY_BYTES
    peak = max(probe.peak_bytes, nbytes)
    nexp0, on_expand = probe.expansions, probe.on_expand

    while True:
        # improve-path round at the current weight
        while live:
            while True:  # peek: drop stale entries off the top
                f, _, sq, s = heap[0]
                if live.get(s) == sq:
                    break
                heappop(heap)
                nbytes -= HEAP_ENTRY_BYTES
            if g[goal] <= f:
                break
            heappop(heap)
            nbytes -= HEAP_ENTRY_BYTES
            del live[s]
            if closed[s] != rnd:
                closed[s] = rnd
                nclosed += 1
                nbytes += SET_ENTRY_BYTES
                if nbytes > peak:
                    peak = nbytes
            expanded += 1
            if on_expand is not None:
                probe.live_bytes, probe.peak_bytes = nbytes, peak
                probe.expansions = nexp0 + expanded
                on_expand(s)
            gs = g[s]
            # one test per arc, as in ``astar``
            for off, c in table[mask[s]]:
                if gs + c < g[s + off]:
                    n = s + off
                    if g[n] == INF:
                        nbytes += 2 * MAP_ENTRY_BYTES
                    ng = g[n] = gs + c
                    parent[n] = s
                    if closed[n] == rnd:
                        if n not in incons:
                            incons[n] = None
                            nbytes += SET_ENTRY_BYTES
                    else:
                        seq += 1
                        live[n] = seq
                        heappush(heap, (ng + w * hypot(n % stride - gx, n // stride - gy),
                                        -ng, seq, n))
                        nbytes += HEAP_ENTRY_BYTES
            if nbytes > peak:
                peak = nbytes
        probe.live_bytes, probe.peak_bytes, probe.expansions = nbytes, peak, nexp0 + expanded
        cost = g[goal]
        if cost == INF:
            raise NoPathError(f"no path from {tuple(grid.start)} to {tuple(grid.goal)}")
        iterates.append((w, cost))
        if w <= 1.0 or (not live and not incons):
            break
        w = max(1.0, w - params.ara_weight_decrement)
        # re-open surviving open entries, in the live map's insertion order,
        # then the inconsistency list, at the new weight; every heap entry
        # of the finished round is freed, stale ones included
        reopen = list(live)
        reopen.extend(s for s in incons if s not in live)
        nbytes -= HEAP_ENTRY_BYTES * len(heap) + SET_ENTRY_BYTES * (len(incons) + nclosed)
        heap.clear()
        live.clear()
        incons.clear()
        rnd += 1
        nclosed = 0
        for s in reopen:
            gs = g[s]
            seq += 1
            live[s] = seq
            heappush(heap, (gs + w * hypot(s % stride - gx, s // stride - gy), -gs, seq, s))
            nbytes += HEAP_ENTRY_BYTES
        if nbytes > peak:
            peak = nbytes

    s = goal
    ids = [goal]
    while s != start:
        s = parent[s]
        ids.append(s)
    return grid.coords(reversed(ids)), cost, expanded, iterates


def run(grid, params: SolverParams, probe: AllocationProbe):
    path, cost, expanded, _ = run_detailed(grid, params, probe)
    return path, cost, expanded
