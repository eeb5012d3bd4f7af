"""Independent reference computations used as test oracles.

Everything here is deliberately brute force and shares nothing with the
solver implementations beyond the grid movement model itself.
"""

import heapq
import math

from gridbench.grid import NEIGHBOR_STEPS, Coord

INF = math.inf


def reference_neighbors(cell, width, height, is_free, allow_corner_cutting=False):
    """8-neighbourhood of ``cell`` by coordinates and a traversability callback.

    The movement rule written out cell by cell, with bounds checks; the
    padded-id neighbour table of ``gridbench.grid`` must agree with it.
    """
    x, y = cell[0], cell[1]
    out = []
    for dx, dy, cost in NEIGHBOR_STEPS:
        nx, ny = x + dx, y + dy
        if nx < 0 or nx >= width or ny < 0 or ny >= height:
            continue
        if not is_free(nx, ny):
            continue
        if cost != 1.0 and not allow_corner_cutting:
            # both flanks of an in-bounds diagonal are themselves in bounds
            if not (is_free(nx, y) and is_free(x, ny)):
                continue
        out.append((Coord(nx, ny), cost))
    return out


def grid_neighbors(grid, cell):
    """``reference_neighbors`` over a Grid's own blocked set."""
    blocked = grid.blocked
    return reference_neighbors(cell, grid.width, grid.height,
                               lambda x, y: (x, y) not in blocked, grid.allow_corner_cutting)


def bellman_ford_cost(grid):
    """Shortest start->goal cost by relaxation over all cells to fixpoint."""
    dist = {grid.start: 0.0}
    cells = [
        (x, y)
        for y in range(grid.height)
        for x in range(grid.width)
        if grid.is_traversable((x, y))
    ]
    changed = True
    while changed:
        changed = False
        for c in cells:
            dc = dist.get(c, INF)
            if dc == INF:
                continue
            for n, cost in grid_neighbors(grid, c):
                if dc + cost < dist.get(n, INF) - 1e-15:
                    dist[n] = dc + cost
                    changed = True
    return dist.get(grid.goal, INF)


def dijkstra_from(grid, source):
    """Exact distance map from `source` over the traversable component."""
    dist = {tuple(source): 0.0}
    pq = [(0.0, 0, tuple(source))]
    seq = 0
    while pq:
        d, _, c = heapq.heappop(pq)
        if d > dist.get(c, INF):
            continue
        for n, cost in grid_neighbors(grid, c):
            nd = d + cost
            if nd < dist.get(tuple(n), INF) - 1e-15:
                dist[tuple(n)] = nd
                seq += 1
                heapq.heappush(pq, (nd, seq, tuple(n)))
    return dist


def two_pass_stats(samples):
    """Textbook two-pass mean / sample standard deviation."""
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return mean, 0.0
    var = sum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, math.sqrt(var)


def spearman(xs, ys):
    """Spearman rank correlation with average ranks for ties."""

    def ranks(vals):
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        r = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    rx, ry = ranks(xs), ranks(ys)
    n = len(xs)
    mx = sum(rx) / n
    my = sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den if den else 0.0


def assert_valid_path(grid, path, cost, tol=1e-9):
    """Path is a traversable 8-neighbor chain start->goal matching cost."""
    from gridbench import path_cost_of

    assert path[0] == grid.start, f"path starts at {path[0]}, not {grid.start}"
    assert path[-1] == grid.goal, f"path ends at {path[-1]}, not {grid.goal}"
    for c in path:
        assert grid.is_traversable(c), f"path crosses blocked/out-of-bounds cell {c}"
    recomputed = path_cost_of(path)
    assert abs(recomputed - cost) <= tol, f"cost {cost} != recomputed {recomputed}"
