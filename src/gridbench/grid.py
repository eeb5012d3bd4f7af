"""Grid world substrate shared by every solver.

Cells are (x, y) with x = column, y = row, origin at the top-left.
Movement is 8-connected: orthogonal steps cost 1, diagonal steps cost
sqrt(2).  A diagonal step is allowed only when both flanking orthogonal
cells are traversable ("no corner cutting"), unless the grid was built
with ``allow_corner_cutting=True``.

Grids are immutable after construction and safe to share across workers;
every operation here is a pure function of its arguments.  The padded
flag array ``Grid.flags`` is a grid's only copy of its obstacles;
``Grid.blocked`` is derived from it on first read, outside equality and hashing.
Both constructors build the flags the same way: ``Grid.from_cells`` takes
row-major cell bytes, the ``Grid(...)`` constructor writes its (x, y) pairs
into such bytes, and one join of row slices pads them with the border.

The movement rule is written once per cell, in ``neighbor_cells``.  The
solvers do not call it per expansion: each grid builds its ``arc_masks``
once, on first read of ``Grid.masks``, one byte per padded id whose bit d
says whether step d is usable.  Every solver walks
``arc_table(steps)[mask[i]]``, the ``(offset, cost)`` pairs of that byte
in step order.  A planner that toggles obstacles keeps its own copy of
the masks and refreshes the bytes around the toggle
(``refresh_arc_masks``) through ``neighbor_cells``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, compress, repeat
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


_OUTSIDE = bytes([OUTSIDE])
# cells.translate(None, _CELL_BYTES) deletes these: any byte left is invalid
_CELL_BYTES = bytes([FREE, BLOCKED])

# flags.translate() table: FREE -> 1, BLOCKED and OUTSIDE -> 0
_FREE_BYTE = bytes([1]) + bytes(255)


def arc_masks(flags, steps) -> bytearray:
    """One byte per padded id: bit d is set when step d of ``steps`` is usable from it.

    The bulk form of ``neighbor_cells``: for every in-grid id ``i``,
    ``arc_table(steps)[mask[i]]`` lists the same arcs as
    ``neighbor_cells(i, flags, steps)``, as ``(offset, cost)``.  All cells
    are done at once on Python integers holding one byte per id (1 where
    the cell is free), with one shift and AND per step and per flank.
    Border ids get arbitrary bits; no solver reads them.
    """
    size = len(flags)
    free = int.from_bytes(flags.translate(_FREE_BYTE), "little")
    # byte i of at[off] is 1 when id i + off is free
    at = {off: free >> 8 * off if off > 0 else free << -8 * off for off, _, _, _ in steps}
    masks = 0
    for d, (off, _, fa, fb) in enumerate(steps):
        arc = at[off]
        if fa:
            arc &= at[fa] & at[fb]
        masks |= arc << d
    return bytearray((masks & ((1 << 8 * size) - 1)).to_bytes(size, "little"))


def refresh_arc_masks(mask, cells, flags, steps) -> None:
    """Recompute the ``arc_masks`` bytes of ``cells`` in place, through ``neighbor_cells``.

    A toggle of cell ``i`` changes the bytes of exactly the cells around
    ``i``: a byte reads the flags of its cell's 8 neighbours, never its own.
    """
    bit = {off: 1 << d for d, (off, _, _, _) in enumerate(steps)}
    for i in cells:
        mask[i] = sum(bit[j - i] for j, _ in neighbor_cells(i, flags, steps))


@lru_cache(maxsize=64)
def arc_table(steps) -> tuple:
    """For each of the 256 masks of ``arc_masks``, its ``(offset, cost)`` arcs in step order."""
    return tuple(tuple((off, cost) for d, (off, cost, _, _) in enumerate(steps) if m >> d & 1)
                 for m in range(256))


@dataclass(frozen=True, init=False)
class Grid:
    """Immutable rectangular cell world: its obstacles, a start and a goal.

    start == goal is permitted only as the explicit trivial case; the text
    format cannot express it (exactly one 'S' and one 'G').

    ``blocked`` may be any iterable of (x, y) pairs: the grid writes each
    pair's flag and keeps no copy.  ``from_cells`` takes the obstacles as
    row-major cell bytes instead, and both pad them into ``flags`` in
    ``_build``.  Solvers walk padded integer cell ids:
    ``index(c)`` is ``(y + 1) * (width + 2) + x + 1``, ``flags[index(c)]``
    is FREE or BLOCKED and the border reads OUTSIDE.  ``flags`` is the
    grid's only copy of its obstacles.  ``Coord`` appears only at the API
    boundary (start, goal, paths in and out, ``blocked``).  ``blocked`` (a
    frozenset of ``Coord``), ``masks`` (its ``arc_masks``) and ``solvable``
    (whether the goal is reachable) are derived from ``flags`` on first
    read and kept, outside equality and hashing.
    """

    width: int
    height: int
    flags: bytes = field(repr=False)
    start: Coord
    goal: Coord
    allow_corner_cutting: bool
    steps: tuple = field(repr=False, compare=False)

    def __init__(self, width, height, blocked, start, goal, allow_corner_cutting=False):
        # a degenerate size leaves no cell in bounds; _build reports it
        cells = bytearray(max(width, 0) * max(height, 0))
        for x, y in blocked:
            if not (0 <= x < width and 0 <= y < height):
                raise InvalidCellError(f"blocked cell {(x, y)} out of bounds")
            cells[y * width + x] = BLOCKED
        self._build(width, height, cells, start, goal, allow_corner_cutting)

    @classmethod
    def from_cells(cls, width, height, cells, start, goal, allow_corner_cutting=False):
        """A grid from ``width * height`` row-major cell bytes, FREE or BLOCKED.

        Byte ``y * width + x`` is the flag of cell (x, y).  The bytes are
        padded into ``flags`` and not kept.  Raises InvalidCellError for a
        wrong length, any other byte, or a blocked or out-of-bounds start
        or goal.
        """
        grid = cls.__new__(cls)
        grid._build(width, height, cells, start, goal, allow_corner_cutting)
        return grid

    def _build(self, width, height, cells, start, goal, allow_corner_cutting):
        """Check the row-major cell bytes and pad them with OUTSIDE into ``flags``."""
        if width < 1 or height < 1:
            raise InvalidCellError(f"degenerate grid {width}x{height}")
        if len(cells) != width * height:
            raise InvalidCellError(f"{len(cells)} cell bytes for a {width}x{height} grid")
        if cells.translate(None, _CELL_BYTES):
            raise InvalidCellError("cell bytes must be FREE or BLOCKED")
        stride = width + 2
        # the top border and the left of row 0, the rows joined by a right and
        # a left border, then the right of the last row and the bottom border
        edge = _OUTSIDE * (stride + 1)
        rows = (cells[i:i + width] for i in range(0, width * height, width))
        flags = edge + (_OUTSIDE * 2).join(rows) + edge
        # the fields are frozen, so they are written to the instance dict
        vars(self).update(width=width, height=height, flags=flags,
                          allow_corner_cutting=allow_corner_cutting,
                          steps=neighbor_steps(width, allow_corner_cutting))
        for name, c in (("start", start), ("goal", goal)):
            if not self.in_bounds(c):
                raise InvalidCellError(f"{name} {tuple(c)} out of bounds")
            if flags[self.index(c)]:
                raise InvalidCellError(f"{name} {tuple(c)} is blocked")
            vars(self)[name] = Coord(c[0], c[1])

    @cached_property
    def blocked(self) -> frozenset:
        """The blocked cells as ``Coord``, read from ``flags`` a row at a time.

        Built on first read.  Only the benchmark harness and the tests read
        it; program code reads ``flags`` (``flags.count(BLOCKED)`` counts
        the obstacles).
        """
        width, stride = self.width, self.width + 2
        rows = (zip(compress(range(width), self.flags[i:i + width]), repeat(y))
                for y, i in enumerate(range(stride + 1, stride * (self.height + 1), stride)))
        # tuple.__new__ makes a Coord without NamedTuple's argument handling
        return frozenset(map(tuple.__new__, repeat(Coord), chain.from_iterable(rows)))

    @cached_property
    def masks(self) -> bytes:
        """``arc_masks(flags, steps)`` of this grid, built once on first read."""
        return bytes(arc_masks(self.flags, self.steps))

    @cached_property
    def solvable(self) -> bool:
        """``generators.is_solvable(self)``, decided on first read; generated grids carry it."""
        from . import generators  # it imports this module
        return generators.is_solvable(self)

    def in_bounds(self, c) -> bool:
        return 0 <= c[0] < self.width and 0 <= c[1] < self.height

    def is_traversable(self, c) -> bool:
        return self.in_bounds(c) and not self.flags[self.index(c)]

    def index(self, c) -> int:
        """Padded id of an in-bounds cell."""
        return (c[1] + 1) * (self.width + 2) + c[0] + 1

    def coord(self, i: int) -> Coord:
        """The cell of padded id ``i``."""
        y, x = divmod(i, self.width + 2)
        return Coord(x - 1, y - 1)

    def coords(self, ids) -> list[Coord]:
        """The cells of the padded ids ``ids``, in order."""
        stride = self.width + 2
        new = tuple.__new__
        return [new(Coord, (i % stride - 1, i // stride - 1)) for i in ids]

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

_TEXT = bytes.maketrans(bytes([FREE, BLOCKED]), b".#")  # flags.translate() table


def format_grid(grid: Grid) -> str:
    if grid.start == grid.goal:
        raise GridFormatError("text format cannot express start == goal")
    cells = bytearray(grid.flags.translate(_TEXT))
    cells[grid.index(grid.start)], cells[grid.index(grid.goal)] = b"SG"
    width, stride = grid.width, grid.width + 2
    rows = [cells[i:i + width].decode() for i in range(stride + 1, stride * (grid.height + 1), stride)]
    return f"{width} {grid.height}\n" + "\n".join(rows) + "\n"


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
    blocked = []
    start = goal = None
    for y in range(height):
        row = body[y]
        if len(row) != width:
            raise GridFormatError(f"line {y + 2}: expected {width} chars, got {len(row)}")
        for x, ch in enumerate(row):
            if ch == "#":
                blocked.append((x, y))
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
    return Grid(width, height, blocked, start, goal, allow_corner_cutting)


def save_grid(grid: Grid, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_grid(grid))


def load_grid(path, allow_corner_cutting: bool = False) -> Grid:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grid(fh.read(), allow_corner_cutting)
