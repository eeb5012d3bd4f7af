"""Deterministic construction of the two benchmark environment families.

Random family: n x n grids with an exact obstacle count
floor(density * (n^2 - 2) + 0.5), obstacles drawn uniformly without
replacement from all cells except start and goal, and a start/goal pair
whose Euclidean separation lands within 0.5 of the requested distance.
Draws that leave the goal unreachable are rejected wholesale.  The
reachability check runs two best-first searches in turn, one from the
start toward the goal and one from the goal toward the start: it answers
yes when they meet and no when either runs out of cells, so a sealed
start or goal costs a few expansions, not a flood of the other side.
A draw is checked through its ``Grid.solvable``, which the grid keeps.

The obstacle draw is a partial Fisher-Yates shuffle of the cell ids that
writes each drawn cell straight into row-major flag bytes, which
``Grid.from_cells`` pads into the grid: no (x, y) pair is made per
obstacle.

Wall family: fixed 31-wide x 71-tall grids with full-width-minus-gap
horizontal walls every 10 rows, anchored to the left edge on odd rows
and the right edge on even ones.

Sampling uses only random.Random().random(), the one stream the stdlib
guarantees stable across versions, so equal specs always serialize to
identical bytes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain

from . import grid as gridmod
from .errors import GenerationError, InvalidSpecError
from .grid import BLOCKED, SQRT2, Coord, Grid, euclidean_heuristic

MAX_GENERATION_ATTEMPTS = 1000

WALL_GRID_WIDTH = 31
WALL_GRID_HEIGHT = 71
WALL_ROW_SPACING = 10
WALL_GRID_START = Coord(1, 1)
WALL_GRID_GOAL = Coord(29, 69)


@dataclass(frozen=True)
class RandomGridSpec:
    n: int
    density: float
    sg_distance: float
    seed: int

    def __post_init__(self):
        if self.n < 3:
            raise InvalidSpecError(f"grid side must be >= 3, got {self.n}")
        if not 0.0 <= self.density < 1.0:
            raise InvalidSpecError(f"density must be in [0, 1), got {self.density}")
        if not 0.0 <= self.sg_distance <= SQRT2 * (self.n - 1):
            raise InvalidSpecError(
                f"sg_distance {self.sg_distance} out of [0, {SQRT2 * (self.n - 1):.3f}] for n={self.n}"
            )
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class WallGridSpec:
    num_walls: int
    wall_length: int

    def __post_init__(self):
        if not 0 <= self.num_walls <= 7:
            raise InvalidSpecError(f"num_walls must be in [0, 7], got {self.num_walls}")
        if not 1 <= self.wall_length <= 29:
            raise InvalidSpecError(f"wall_length must be in [1, 29], got {self.wall_length}")


def obstacle_count(n: int, density: float) -> int:
    """Exact blocked-cell count: round-half-up of density * (n^2 - 2)."""
    return math.floor(density * (n * n - 2) + 0.5)


@lru_cache(maxsize=64)
def _distance_ring(n: int, sg_distance: float) -> tuple:
    """Integer offsets whose length is within 0.5 of sg_distance, row by row.

    isqrt bounds each row's |dx| one wider on each side than the exact
    test needs, since hypot is within an ulp of the true length.
    """
    lo, hi = sg_distance - 0.5, sg_distance + 0.5
    ring = []
    for dy in range(-(n - 1), n):
        far = min(n - 1, math.isqrt(max(0, math.ceil(hi * hi) - dy * dy)) + 1)
        near = max(0, math.isqrt(max(0, math.floor(lo * lo) - dy * dy)) - 1)
        for dx in chain(range(-far, -near + 1), range(max(near, 1), far + 1)):
            if lo <= math.hypot(dx, dy) <= hi:
                ring.append((dx, dy))
    return tuple(ring)


def is_solvable(grid: Grid) -> bool:
    """Whether the goal is reachable from the start.

    Reachability is yes or no, so any search that stops when it links the
    two answers it.  Two best-first searches take turns, one expansion
    each: one from the start on squared straight-line distance to the
    goal, one from the goal on squared distance to the start.  On an open
    grid each walks a narrow band toward the other.  They share one
    ``seen`` array, marked 1 by the start's side and 2 by the goal's: the
    answer is yes when either side reaches a cell the other has seen, and
    no as soon as either side runs out of cells, because that side has
    then visited its whole component.  So a sealed start or goal is
    answered in a few expansions, and a cut-off pair costs at most about
    twice the smaller of the two components.
    """
    if grid.start == grid.goal:
        return True
    flags, steps = grid.flags, grid.steps
    # looked up per call, not at import, so a patched gridbench.grid is seen
    neighbors = gridmod.neighbor_cells
    stride, size = grid.width + 2, len(flags)
    start, goal = grid.index(grid.start), grid.index(grid.goal)
    seen = bytearray(size)
    seen[start], seen[goal] = 1, 2
    # a heap entry is one int, squared distance * size + id: it orders by
    # distance, then id, and costs less to push and pop than a tuple
    sides = (([start], 1, 2, *divmod(goal, stride)),
             ([goal], 2, 1, *divmod(start, stride)))
    while True:
        for heap, mine, theirs, ty, tx in sides:
            if not heap:
                return False
            for n, _ in neighbors(heappop(heap) % size, flags, steps):
                mark = seen[n]
                if mark == theirs:
                    return True
                if not mark:
                    seen[n] = mine
                    y, x = divmod(n, stride)
                    heappush(heap, ((x - tx) ** 2 + (y - ty) ** 2) * size + n)


def generate_random_grid(spec: RandomGridSpec, allow_corner_cutting: bool = False) -> Grid:
    rand = random.Random(spec.seed).random
    n = spec.n
    target = obstacle_count(n, spec.density)
    ring = _distance_ring(n, spec.sg_distance)
    for _ in range(MAX_GENERATION_ATTEMPTS):
        # every draw is min(int(rand() * k), k - 1): uniform on 0 .. k-1
        sx = min(int(rand() * n), n - 1)
        sy = min(int(rand() * n), n - 1)
        goals = [
            (sx + dx, sy + dy)
            for dx, dy in ring
            if 0 <= sx + dx < n and 0 <= sy + dy < n
        ]
        if not goals:
            continue
        gx, gy = goals[min(int(rand() * len(goals)), len(goals) - 1)]
        # cells are row-major ids y * n + x, minus start and goal (one cell
        # when they coincide); the higher id goes first so the lower keeps its place
        cells = list(range(n * n))
        for i in sorted({sy * n + sx, gy * n + gx}, reverse=True):
            del cells[i]
        # partial Fisher-Yates: the first `target` positions become the blocked
        # set.  Position i is final after its swap and never read again, so
        # its cell goes straight into the row-major flag bytes and only
        # position j is written back.
        blk = bytearray(n * n)
        m = len(cells)
        for i in range(target):
            j = i + int(rand() * (m - i))
            if j == m:  # the same clamp as min(..., k - 1), without the call
                j -= 1
            blk[cells[j]] = BLOCKED
            cells[j] = cells[i]
        grid = Grid.from_cells(n, n, blk, (sx, sy), (gx, gy), allow_corner_cutting)
        if grid.solvable:
            return grid
    raise GenerationError(
        f"no solvable placement after {MAX_GENERATION_ATTEMPTS} attempts for {spec}"
    )


def generate_instance_set(spec: RandomGridSpec, count: int,
                          allow_corner_cutting: bool = False) -> list[Grid]:
    """`count` grids from consecutive seeds spec.seed .. spec.seed + count - 1."""
    if count < 1:
        raise InvalidSpecError(f"count must be >= 1, got {count}")
    return [
        generate_random_grid(replace(spec, seed=spec.seed + i), allow_corner_cutting)
        for i in range(count)
    ]


def generate_wall_grid(spec: WallGridSpec, allow_corner_cutting: bool = False) -> Grid:
    blocked = []
    for k in range(1, spec.num_walls + 1):
        x0 = 0 if k % 2 == 1 else WALL_GRID_WIDTH - spec.wall_length
        blocked.extend((x, WALL_ROW_SPACING * k) for x in range(x0, x0 + spec.wall_length))
    grid = Grid(WALL_GRID_WIDTH, WALL_GRID_HEIGHT, blocked, WALL_GRID_START, WALL_GRID_GOAL,
                allow_corner_cutting)
    if not grid.solvable:
        raise GenerationError(f"wall grid for {spec} is unsolvable")
    return grid


def wall_length_sequence() -> list[int]:
    """Seven wall lengths: half the grid width, then +2 per step."""
    first = WALL_GRID_WIDTH // 2
    return [first + 2 * i for i in range(7)]


def sg_distance(grid: Grid) -> float:
    return euclidean_heuristic(grid.start, grid.goal)
