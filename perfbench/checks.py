"""Output checks shared by the workloads.

A path is accepted only as a chain of legal moves under gridbench's
movement rule (8-connected, no corner cutting) over an explicit blocked
set, so the checks do not trust any solver's own notion of the grid.
"""

from __future__ import annotations

import math

SQRT2 = math.sqrt(2.0)
COST_TOL = 1e-9

STEPS = ((0, -1, 1.0), (1, -1, SQRT2), (1, 0, 1.0), (1, 1, SQRT2),
         (0, 1, 1.0), (-1, 1, SQRT2), (-1, 0, 1.0), (-1, -1, SQRT2))


def legal_steps(cell, width, height, blocked):
    """Free 8-neighbours of ``cell`` with their step costs."""
    x, y = cell
    for dx, dy, cost in STEPS:
        nx, ny = x + dx, y + dy
        if not (0 <= nx < width and 0 <= ny < height) or (nx, ny) in blocked:
            continue
        if dx and dy and ((nx, y) in blocked or (x, ny) in blocked):
            continue
        yield (nx, ny), cost


def path_error(path, width, height, blocked, origin, goal):
    """None when ``path`` is a legal chain origin -> goal, else the reason."""
    if not path:
        return "empty path"
    if tuple(path[0]) != tuple(origin):
        return f"path starts at {tuple(path[0])}, expected {tuple(origin)}"
    if tuple(path[-1]) != tuple(goal):
        return f"path ends at {tuple(path[-1])}, expected goal {tuple(goal)}"
    for a, b in zip(path, path[1:]):
        if (b[0], b[1]) not in dict(legal_steps((a[0], a[1]), width, height, blocked)):
            return f"illegal move {tuple(a)} -> {tuple(b)}"
    if (path[0][0], path[0][1]) in blocked:
        return f"path starts on blocked cell {tuple(path[0])}"
    return None


def chain_cost(path) -> float:
    return sum(SQRT2 if a[0] != b[0] and a[1] != b[1] else 1.0 for a, b in zip(path, path[1:]))


def same_cost(a: float, b: float) -> bool:
    return abs(a - b) <= COST_TOL


def outcome_error(grid, blocked, path, cost, optimum, optimal: bool):
    """None when a one-shot solve's result holds, else the reason.

    The path must be a legal chain from start to goal whose step costs sum
    to the reported cost; optimal solvers must match ``optimum`` and no
    solver may beat it.
    """
    err = path_error(path, grid.width, grid.height, blocked, grid.start, grid.goal)
    if err is None and not same_cost(cost, chain_cost(path)):
        err = f"reported cost {cost!r} != path cost {chain_cost(path)!r}"
    if err is None and optimal and not same_cost(cost, optimum):
        err = f"cost {cost!r} != astar_oracle {optimum!r}"
    if err is None and cost < optimum - COST_TOL:
        err = f"cost {cost!r} below the optimum {optimum!r}"
    return err
