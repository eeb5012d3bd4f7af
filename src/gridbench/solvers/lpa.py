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
the goal and aims at the moving agent.  Each planner walks its cells'
usable arcs through its own copy of ``Grid.masks``, and ``set_blocked``
refreshes the masks of the cells around a toggle.  ``compute`` walks the
arcs of an expansion whose g falls (every expansion of a first search)
in a loop of its own, which can skip a neighbour on its rhs alone; the
rarer rising g keeps the general loop.  The open list's index is dense:
one seq per padded id, 0 where the cell is not queued.
"""

from __future__ import annotations

from heapq import heappop, heappush
from math import hypot

from ..errors import NoPathError
from ..grid import arc_table, refresh_arc_masks
from ..grid import neighbor_cells  # noqa: F401  (perfbench's tracer patches this name)
from ..instrumentation import HEAP_ENTRY_BYTES, MAP_ENTRY_BYTES, AllocationProbe
from .common import INF, SolverParams, cells_around, toggle_cell

_HAS_G, _HAS_RHS = 1, 2  # bits of GRhsPlanner._held


class GRhsPlanner:
    """The g/rhs core; the path runs target -> root, or root -> target if ``_forward``."""

    _forward = False

    def __init__(self, grid, root, target, probe: AllocationProbe | None = None):
        self.grid = grid
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
        # each cell's usable arcs over the planner's own flags, a copy of
        # ``Grid.masks``; ``set_blocked`` refreshes the cells around a toggle.
        # Not charged: like the flags it is substrate, not search state
        self._mask = bytearray(grid.masks)
        self._table = arc_table(self._steps)
        # the open list is a binary heap with lazy deletion: flat
        # (k1, k2, seq, id) entries, and ``_live`` holds, per padded id, the
        # seq of the entry that counts (0: not queued; seqs start at 1), so a
        # re-push supersedes the earlier entry, which stays in the heap (and
        # in the byte count) until it surfaces.  ``_queued`` counts the ids
        # with a nonzero seq: ``compute`` runs while it is positive and, at
        # 0, leaves any stale entries where they are.  ``compute`` pushes a
        # cell only when its g or rhs changes; ``set_blocked`` re-pushes the
        # cells around a toggle.  Entries with seq > ``_fresh`` were keyed
        # after the last target move or k_m change, so their keys are
        # current; older ones are re-keyed when they are popped
        self._heap = []
        self._live = [0] * size
        self._queued = 0
        self._seq = 0
        self.expanded = 0
        self._aim(grid.index(target))
        self._last = self._target
        self._k_m = 0.0
        self._set_rhs(self._root, 0.0)
        self._update_vertex(self._root)

    def _aim(self, i: int) -> None:
        self._target = i
        self._fresh = self._seq
        self._tx, self._ty = i % self._stride, i // self._stride

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
                for off, c in self._table[self._mask[s]]:
                    v = g[s + off] + c
                    if v < rhs:
                        rhs = v
            self._set_rhs(s, rhs)
        if self._live[s]:
            self._live[s] = 0
            self._queued -= 1
        if self._g[s] != self._rhs[s]:
            self._seq += 1
            self._live[s] = self._seq
            self._queued += 1
            heappush(self._heap, (*self._key(s), self._seq, s))
            self.probe.alloc(HEAP_ENTRY_BYTES)

    def compute(self) -> None:
        """Expand inconsistent cells until the target is consistent with a minimal key."""
        g, rhs, held, mask, table = self._g, self._rhs, self._held, self._mask, self._table
        heap, live, queued, probe = self._heap, self._live, self._queued, self.probe
        seq, fresh = self._seq, self._fresh
        target, stride, tx, ty, k_m = self._target, self._stride, self._tx, self._ty, self._k_m
        # The steps of ``_update_vertex`` (the key, the queue step and the
        # first-write charges) are written out, and the probe's bytes and
        # this call's expansions are kept in locals, written back before
        # every probe call, return and raise (see ``instrumentation``).  Each
        # expansion only adds bytes after its pop, so the peak is raised once
        # at its end.
        nbytes, peak = probe.live_bytes, probe.peak_bytes
        expanded, nexp0, on_expand = 0, probe.expansions, probe.on_expand
        # the target's key depends only on its g and rhs while compute runs
        # (its h is 0), so it is recomputed only when one of them has changed
        tg = trhs = None
        while queued:
            while True:  # peek: drop stale entries off the top
                k1, k2, sq, u = heap[0]
                if live[u] == sq:
                    break
                heappop(heap)
                nbytes -= HEAP_ENTRY_BYTES
            gt, rt = g[target], rhs[target]
            if gt != tg or rt != trhs:
                tg, trhs = gt, rt
                t2 = gt if gt < rt else rt
                t1 = t2 + k_m
            # k1 values within 1e-9 tie: one ulp of rounding must not end the search
            if not (k1 < t1 - 1e-9 or (k1 <= t1 + 1e-9 and k2 < t2) or rt != gt):
                break
            heappop(heap)
            nbytes -= HEAP_ENTRY_BYTES
            live[u] = 0
            queued -= 1
            if sq <= fresh:
                # keyed before the target moved: k2 is current (the cell's g
                # and rhs have not changed since), k1 may be stale
                n1 = k2 + hypot(tx - u % stride, ty - u // stride) + k_m
                if k1 < n1:
                    seq += 1
                    live[u] = seq
                    queued += 1
                    heappush(heap, (n1, k2, seq, u))
                    nbytes += HEAP_ENTRY_BYTES
                    if nbytes > peak:
                        peak = nbytes
                    continue
            expanded += 1
            if on_expand is not None:
                probe.live_bytes, probe.peak_bytes = nbytes, peak
                probe.expansions = nexp0 + expanded
                on_expand(u)
            gu, ru = g[u], rhs[u]
            if gu > ru:
                # g falls: every rhs already holds its full minimum and u is
                # each neighbour's neighbour at the same step cost, so only
                # the new g(u) + c can lower it (exact: min does not round).
                # A neighbour whose rhs is not lowered keeps its entry (or
                # its absence).  Each arc is one test, made before the held
                # bit: every finite rhs was charged at its first write, and
                # the root, whose rhs is 0 and below every g(u) + c, is never
                # lowered; the neighbour and its new rhs are made only for an
                # arc that passes
                if not held[u] & _HAS_G:
                    held[u] |= _HAS_G
                    nbytes += MAP_ENTRY_BYTES
                g[u] = ru
                for off, c in table[mask[u]]:
                    if ru + c >= rhs[u + off]:
                        continue
                    n = u + off
                    v = ru + c
                    if not held[n] & _HAS_RHS:
                        held[n] |= _HAS_RHS
                        nbytes += MAP_ENTRY_BYTES
                    rhs[n] = v
                    gn = g[n]
                    if gn != v:
                        m = gn if gn < v else v
                        seq += 1
                        if not live[n]:
                            queued += 1
                        live[n] = seq
                        heappush(heap, (m + hypot(tx - n % stride, ty - n // stride) + k_m, m,
                                        seq, n))
                        nbytes += HEAP_ENTRY_BYTES
                    else:  # consistent now, so it was queued under its old rhs
                        live[n] = 0
                        queued -= 1
                if nbytes > peak:
                    peak = nbytes
                continue
            # g rises (u already holds a g entry: g(u) < rhs(u)).  No
            # neighbour's g changed, so rhs(u) keeps its exact value.  A
            # neighbour n's rhs is the least g + c over its neighbours: if
            # g_old(u) + c is not it, another neighbour attains it and rhs(n)
            # stands, as the root's 0 always does; only where u was the argmin
            # (a tie included) is the full 8-neighbour minimum taken again.  n
            # already holds an rhs entry: it got one when g(u) fell, or, for
            # an arc that became usable since, from ``set_blocked``'s
            # ``_update_vertex`` on the 3x3 block around the toggle
            g[u] = INF
            if ru != INF:
                seq += 1
                live[u] = seq
                queued += 1
                heappush(heap, (ru + hypot(tx - u % stride, ty - u // stride) + k_m, ru, seq, u))
                nbytes += HEAP_ENTRY_BYTES
            for off, c in table[mask[u]]:
                n = u + off
                rn = rhs[n]
                if gu + c != rn:
                    continue
                # n is free (no usable arc leads to a blocked cell)
                best = INF
                for oj, cj in table[mask[n]]:
                    v = g[n + oj] + cj
                    if v < best:
                        best = v
                if best == rn:
                    continue
                rhs[n] = best
                gn = g[n]
                if gn != best:
                    m = gn if gn < best else best
                    seq += 1
                    if not live[n]:
                        queued += 1
                    live[n] = seq
                    heappush(heap, (m + hypot(tx - n % stride, ty - n // stride) + k_m, m, seq, n))
                    nbytes += HEAP_ENTRY_BYTES
                else:  # consistent now, so it was queued under its old rhs
                    live[n] = 0
                    queued -= 1
            if nbytes > peak:
                peak = nbytes
        self._queued, self._seq = queued, seq
        self.expanded += expanded
        probe.live_bytes, probe.peak_bytes, probe.expansions = nbytes, peak, nexp0 + expanded
        if g[target] == INF:
            raise self._no_path()

    def set_blocked(self, cell, blocked: bool = True) -> None:
        """Apply an obstacle change, add the target's move since the last one to k_m, re-queue."""
        ends = (self.grid.coord(self._root), self.grid.coord(self._target))
        i = toggle_cell(self.grid, self._flags, cell, blocked, ends,
                        "path ends must stay traversable")
        stride, last = self._stride, self._last
        if last != self._target:
            self._k_m += hypot(last % stride - self._tx, last // stride - self._ty)
            self._last = self._target
            self._fresh = self._seq
        around = cells_around(i, self._flags, stride)
        refresh_arc_masks(self._mask, around, self._flags, self._steps)
        self._update_vertex(i)
        for j in around:
            self._update_vertex(j)

    def _best_step(self, i):
        """The neighbour of ``i`` with the least step cost + g, and that sum."""
        best, best_val = None, INF
        for off, c in self._table[self._mask[i]]:
            n = i + off
            v = c + self._g[n]
            if v < best_val:
                best, best_val = n, v
        return best, best_val

    def extract_path(self) -> list:
        """Greedy descent along settled g values from the target to the root.

        Each step goes to the neighbour with the least step cost + g, the
        first in step order on a tie, as ``_best_step`` would.
        """
        g, mask, table, root = self._g, self._mask, self._table, self._root
        cur = self._target
        if g[cur] == INF:
            raise self._no_path()
        path = [cur]
        limit = self.grid.width * self.grid.height + 1
        while cur != root:
            step, best = 0, INF
            for off, c in table[mask[cur]]:
                v = c + g[cur + off]
                if v < best:
                    step, best = off, v
            if not step:
                raise NoPathError(f"path extraction stranded at {tuple(self.grid.coord(cur))}")
            cur += step
            path.append(cur)
            if len(path) > limit:
                raise NoPathError("path extraction cycled; values inconsistent")
        if self._forward:
            path.reverse()
        return self.grid.coords(path)

    def solve(self) -> tuple:
        self.compute()
        return self.extract_path(), self._g[self._target], self.expanded


class LpaStarPlanner(GRhsPlanner):
    """LPA*: forward from the start, keys aimed at the goal."""

    _forward = True

    def __init__(self, grid, probe=None):
        super().__init__(grid, grid.start, grid.goal, probe)


def run(grid, params: SolverParams, probe: AllocationProbe):
    return LpaStarPlanner(grid, probe).solve()
