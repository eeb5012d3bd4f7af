"""Grid world substrate shared by every solver.

Cells are (x, y) with x = column, y = row, origin at the top-left.
Movement is 8-connected: orthogonal steps cost 1, diagonal steps cost
sqrt(2).  A diagonal step is allowed only when both flanking orthogonal
cells are traversable ("no corner cutting"), unless the grid was built
with ``allow_corner_cutting=True``.

Grids are immutable after construction and safe to share across workers;
every operation here is a pure function of its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import AdjacencyError, GridFormatError, InvalidCellError

SQRT2 = math.sqrt(2.0)


class Coord(NamedTuple):
    """A cell position: x is the column, y is the row (both 0-based)."""

    x: int
    y: int


# Clockwise neighbor order starting due north.  Fixed so tie-breaking is
# deterministic everywhere downstream.
NEIGHBOR_STEPS: tuple[tuple[int, int, float], ...] = (
    (0, -1, 1.0),
    (1, -1, SQRT2),
    (1, 0, 1.0),
    (1, 1, SQRT2),
    (0, 1, 1.0),
    (-1, 1, SQRT2),
    (-1, 0, 1.0),
    (-1, -1, SQRT2),
)


def euclidean_heuristic(a, b) -> float:
    """Straight-line distance between two cells."""
    return math.hypot(a[0] - b[0], a[1] - b[1])


def step_cost(a, b) -> float:
    """Cost of one move: 1 orthogonal, sqrt(2) diagonal.

    Raises AdjacencyError if the cells are not distinct 8-neighbors.
    """
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    if dx < -1 or dx > 1 or dy < -1 or dy > 1 or (dx == 0 and dy == 0):
        raise AdjacencyError(f"cells {tuple(a)} and {tuple(b)} are not 8-neighbors")
    return SQRT2 if dx != 0 and dy != 0 else 1.0


# Flag values of the padded cell array.  The array holds the grid
# row-major with a one-cell border of OUTSIDE around it, so every cell of
# the grid has all eight neighbour ids inside the array and neighbour
# generation needs no bounds check.
FREE, BLOCKED, OUTSIDE = 0, 1, 2


def neighbor_steps(width: int, allow_corner_cutting: bool) -> tuple:
    """The 8-entry step table for padded ids of a ``width``-wide grid.

    One ``(offset, cost, flank_a, flank_b)`` per step, in NEIGHBOR_STEPS
    order.  The flanks are the id offsets of the two orthogonal cells a
    diagonal step passes; they are 0 for orthogonal steps and whenever
    corner cutting is allowed, which means "no flank to check".
    """
    stride = width + 2
    table = []
    for dx, dy, cost in NEIGHBOR_STEPS:
        if cost != 1.0 and not allow_corner_cutting:
            flank_a, flank_b = dx, dy * stride
        else:
            flank_a = flank_b = 0
        table.append((dy * stride + dx, cost, flank_a, flank_b))
    return tuple(table)


def neighbor_cells(i: int, flags, steps) -> list[tuple[int, float]]:
    """Free 8-neighbours of padded id ``i`` as ``(id, cost)``, clockwise from north.

    ``flags`` is a padded flag array (``Grid.flags`` or a planner's mutable
    copy) and ``steps`` its grid's ``neighbor_steps`` table.  Only the
    neighbours and the flanks are read, never the flag of ``i`` itself.
    """
    out = []
    for off, cost, fa, fb in steps:
        j = i + off
        if flags[j]:
            continue
        if fa and (flags[i + fa] or flags[i + fb]):
            continue
        out.append((j, cost))
    return out


@dataclass(frozen=True)
class Grid:
    """Immutable rectangular cell world with a blocked set and start/goal.

    start == goal is permitted only as the explicit trivial case; the text
    format cannot express it (exactly one 'S' and one 'G').

    Solvers walk padded integer cell ids: ``index(c)`` is
    ``(y + 1) * (width + 2) + x + 1``, ``flags[index(c)]`` is FREE or
    BLOCKED and the border reads OUTSIDE.  ``Coord`` appears only at the
    API boundary (start, goal, paths in and out).
    """

    width: int
    height: int
    blocked: frozenset
    start: Coord
    goal: Coord
    allow_corner_cutting: bool = False
    flags: bytes = field(init=False, repr=False, compare=False)
    steps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InvalidCellError(f"degenerate grid {self.width}x{self.height}")
        object.__setattr__(self, "blocked", frozenset(Coord(c[0], c[1]) for c in self.blocked))
        object.__setattr__(self, "start", Coord(self.start[0], self.start[1]))
        object.__setattr__(self, "goal", Coord(self.goal[0], self.goal[1]))
        stride = self.width + 2
        flags = bytearray([OUTSIDE]) * (stride * (self.height + 2))
        for y in range(1, self.height + 1):
            flags[y * stride + 1:y * stride + 1 + self.width] = bytes(self.width)
        width, height = self.width, self.height
        for x, y in self.blocked:
            if not (0 <= x < width and 0 <= y < height):
                raise InvalidCellError(f"blocked cell {(x, y)} out of bounds")
            flags[(y + 1) * stride + x + 1] = BLOCKED
        for name in ("start", "goal"):
            c = getattr(self, name)
            if not self.in_bounds(c):
                raise InvalidCellError(f"{name} {tuple(c)} out of bounds")
            if c in self.blocked:
                raise InvalidCellError(f"{name} {tuple(c)} is blocked")
        object.__setattr__(self, "flags", bytes(flags))
        object.__setattr__(self, "steps", neighbor_steps(self.width, self.allow_corner_cutting))

    def in_bounds(self, c) -> bool:
        return 0 <= c[0] < self.width and 0 <= c[1] < self.height

    def is_traversable(self, c) -> bool:
        return self.in_bounds(c) and (c[0], c[1]) not in self.blocked

    def index(self, c) -> int:
        """Padded id of an in-bounds cell."""
        return (c[1] + 1) * (self.width + 2) + c[0] + 1

    def coord(self, i: int) -> Coord:
        """The cell of padded id ``i``."""
        y, x = divmod(i, self.width + 2)
        return Coord(x - 1, y - 1)

    def neighbors8(self, c) -> list[tuple[Coord, float]]:
        """Traversable neighbors of a traversable cell, clockwise from north."""
        if not self.is_traversable(c):
            raise InvalidCellError(f"{tuple(c)} is not a traversable cell")
        stride = self.width + 2
        i = (c[1] + 1) * stride + c[0] + 1
        return [(Coord(j % stride - 1, j // stride - 1), cost)
                for j, cost in neighbor_cells(i, self.flags, self.steps)]


# ---------------------------------------------------------------------------
# Text format: first line "WIDTH HEIGHT", then HEIGHT rows of WIDTH chars.
# '.' traversable, '#' blocked, 'S' start, 'G' goal.
# ---------------------------------------------------------------------------

def format_grid(grid: Grid) -> str:
    if grid.start == grid.goal:
        raise GridFormatError("text format cannot express start == goal")
    rows = []
    for y in range(grid.height):
        row = []
        for x in range(grid.width):
            if (x, y) == grid.start:
                row.append("S")
            elif (x, y) == grid.goal:
                row.append("G")
            elif (x, y) in grid.blocked:
                row.append("#")
            else:
                row.append(".")
        rows.append("".join(row))
    return f"{grid.width} {grid.height}\n" + "\n".join(rows) + "\n"


def parse_grid(text: str, allow_corner_cutting: bool = False) -> Grid:
    lines = text.splitlines()
    if not lines:
        raise GridFormatError("empty grid text")
    header = lines[0].split()
    if len(header) != 2:
        raise GridFormatError(f"line 1: expected 'WIDTH HEIGHT', got {lines[0]!r}")
    try:
        width, height = int(header[0]), int(header[1])
    except ValueError:
        raise GridFormatError(f"line 1: non-integer dimensions {lines[0]!r}") from None
    if width < 1 or height < 1:
        raise GridFormatError(f"line 1: degenerate dimensions {width}x{height}")
    body = lines[1:]
    if len(body) < height:
        raise GridFormatError(f"expected {height} rows, got {len(body)}")
    if any(row.strip() for row in body[height:]):
        raise GridFormatError(f"trailing content after row {height}")
    blocked = set()
    start = goal = None
    for y in range(height):
        row = body[y]
        if len(row) != width:
            raise GridFormatError(f"line {y + 2}: expected {width} chars, got {len(row)}")
        for x, ch in enumerate(row):
            if ch == "#":
                blocked.add(Coord(x, y))
            elif ch == "S":
                if start is not None:
                    raise GridFormatError(f"line {y + 2}: duplicate 'S'")
                start = Coord(x, y)
            elif ch == "G":
                if goal is not None:
                    raise GridFormatError(f"line {y + 2}: duplicate 'G'")
                goal = Coord(x, y)
            elif ch != ".":
                raise GridFormatError(f"line {y + 2}: bad character {ch!r}")
    if start is None or goal is None:
        raise GridFormatError("grid must contain exactly one 'S' and one 'G'")
    return Grid(width, height, frozenset(blocked), start, goal, allow_corner_cutting)


def save_grid(grid: Grid, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_grid(grid))


def load_grid(path, allow_corner_cutting: bool = False) -> Grid:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grid(fh.read(), allow_corner_cutting)
