"""Shared solver contract: algorithm ids, parameters, and outcomes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from ..errors import InvalidCellError, InvalidSpecError, NoPathError
from ..grid import BLOCKED, FREE, OUTSIDE, Coord, step_cost

INF = math.inf


class AlgorithmId(Enum):
    LRTA_STAR = "LRTA_STAR"
    RTAA_STAR = "RTAA_STAR"
    ARA_STAR = "ARA_STAR"
    LPA_STAR = "LPA_STAR"
    D_STAR = "D_STAR"
    D_STAR_LITE = "D_STAR_LITE"
    ASTAR_ORACLE = "ASTAR_ORACLE"

    @property
    def label(self) -> str:
        return _LABELS[self]

    @classmethod
    def parse(cls, text: str) -> "AlgorithmId":
        norm = text.strip().upper().replace("-", "_").replace(" ", "_")
        if norm in cls.__members__:
            return cls[norm]
        alias = _ALIASES.get(norm.replace("_", ""))
        if alias is not None:
            return alias
        raise InvalidSpecError(f"unknown algorithm {text!r}")


_LABELS = {
    AlgorithmId.LRTA_STAR: "LRTA*",
    AlgorithmId.RTAA_STAR: "RTAA*",
    AlgorithmId.ARA_STAR: "ARA*",
    AlgorithmId.LPA_STAR: "LPA*",
    AlgorithmId.D_STAR: "D*",
    AlgorithmId.D_STAR_LITE: "D* Lite",
    AlgorithmId.ASTAR_ORACLE: "A*",
}

# squashed spellings: each value without underscores, each label upper-cased
# without spaces, and two extra names for the oracle
_ALIASES = {
    **{a.value.replace("_", ""): a for a in AlgorithmId},
    **{label.upper().replace(" ", ""): a for a, label in _LABELS.items()},
    "ASTAR": AlgorithmId.ASTAR_ORACLE,
    "ORACLE": AlgorithmId.ASTAR_ORACLE,
}


@dataclass(frozen=True)
class SolverParams:
    lookahead: int = 250
    ara_initial_weight: float = 2.5
    ara_weight_decrement: float = 0.5

    def __post_init__(self):
        if self.lookahead < 1:
            raise InvalidSpecError(f"lookahead must be >= 1, got {self.lookahead}")
        if self.ara_initial_weight < 1:
            raise InvalidSpecError(f"initial weight must be >= 1, got {self.ara_initial_weight}")
        if self.ara_weight_decrement <= 0:
            raise InvalidSpecError(f"weight decrement must be > 0, got {self.ara_weight_decrement}")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one solve: the path plus its instrumentation readings."""

    path: Tuple[Coord, ...]
    path_cost: float
    expanded: int
    peak_memory_bytes: int
    solve_time_ms: float


def path_cost_of(path) -> float:
    """Sum of step costs along a chain of 8-neighbor moves, added left to right.

    An explicit loop, because ``sum()`` of floats is compensated from Python
    3.12 on and would change the last digit of pinned costs."""
    cost = 0.0
    for i in range(len(path) - 1):
        cost += step_cost(path[i], path[i + 1])
    return cost


def cell_id(grid, cell) -> int:
    """``grid.index(cell)``; raises InvalidCellError for a cell outside the grid."""
    if not grid.in_bounds(cell):
        raise InvalidCellError(f"{tuple(cell)} is out of bounds")
    return grid.index(cell)


def check_solvable(grid, flags) -> None:
    """Raise NoPathError if ``flags`` equal the grid's own and ``Grid.solvable`` is False."""
    if flags == grid.flags and not grid.solvable:
        raise NoPathError(f"goal {tuple(grid.goal)} unreachable from {tuple(grid.start)}")


def toggle_cell(grid, flags, cell, blocked: bool, fixed, why: str) -> int:
    """Apply an obstacle toggle to a planner's flag copy; returns the cell's id.

    ``fixed`` are the cells that must stay traversable, ``why`` says why.
    """
    cell = (cell[0], cell[1])
    if cell in fixed:
        raise InvalidCellError(f"cannot toggle {cell}: {why}")
    i = cell_id(grid, cell)
    flags[i] = BLOCKED if blocked else FREE
    return i


def cells_around(i: int, flags, stride: int) -> list:
    """Ids of the in-grid cells around padded id ``i``, column by column from the top left."""
    return [j for j in (i - stride - 1, i - 1, i + stride - 1, i - stride, i + stride,
                        i - stride + 1, i + 1, i + stride + 1)
            if flags[j] != OUTSIDE]
