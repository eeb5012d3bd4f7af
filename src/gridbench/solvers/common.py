"""Shared solver contract: algorithm ids, parameters, and outcomes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from ..errors import InvalidCellError, InvalidSpecError
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

_ALIASES = {
    "LRTA*": AlgorithmId.LRTA_STAR,
    "RTAA*": AlgorithmId.RTAA_STAR,
    "ARA*": AlgorithmId.ARA_STAR,
    "LPA*": AlgorithmId.LPA_STAR,
    "D*": AlgorithmId.D_STAR,
    "D*LITE": AlgorithmId.D_STAR_LITE,
    "DSTARLITE": AlgorithmId.D_STAR_LITE,
    "DSTAR": AlgorithmId.D_STAR,
    "LRTASTAR": AlgorithmId.LRTA_STAR,
    "RTAASTAR": AlgorithmId.RTAA_STAR,
    "ARASTAR": AlgorithmId.ARA_STAR,
    "LPASTAR": AlgorithmId.LPA_STAR,
    "A*": AlgorithmId.ASTAR_ORACLE,
    "ASTAR": AlgorithmId.ASTAR_ORACLE,
    "ORACLE": AlgorithmId.ASTAR_ORACLE,
    "ASTARORACLE": AlgorithmId.ASTAR_ORACLE,
}


class TieBreak(Enum):
    """Ordering of equal-f open-list entries: prefer larger or smaller g."""

    HIGH_G = "HIGH_G"
    LOW_G = "LOW_G"


@dataclass(frozen=True)
class SolverParams:
    lookahead: int = 250
    ara_initial_weight: float = 2.5
    ara_weight_decrement: float = 0.5
    tie_break: TieBreak = TieBreak.HIGH_G

    def __post_init__(self):
        if self.lookahead < 1:
            raise InvalidSpecError(f"lookahead must be >= 1, got {self.lookahead}")
        if self.ara_initial_weight < 1:
            raise InvalidSpecError(f"initial weight must be >= 1, got {self.ara_initial_weight}")
        if self.ara_weight_decrement <= 0:
            raise InvalidSpecError(f"weight decrement must be > 0, got {self.ara_weight_decrement}")


# planners whose queue keys fix the order of equal entries
FIXED_KEY_ORDER = frozenset({AlgorithmId.LPA_STAR, AlgorithmId.D_STAR, AlgorithmId.D_STAR_LITE})


def require_default_tie_break(params: SolverParams, algorithms) -> None:
    """Reject a non-default tie_break that a planner in ``algorithms`` would ignore."""
    if params.tie_break is not TieBreak.HIGH_G:
        fixed = [a.label for a in algorithms if a in FIXED_KEY_ORDER]
        if fixed:
            raise InvalidSpecError(
                f"tie_break={params.tie_break.name} is not supported by "
                f"{', '.join(fixed)}, whose queue keys fix the order of ties"
            )


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one solve: the path plus its instrumentation readings."""

    path: Tuple[Coord, ...]
    path_cost: float
    expanded: int
    peak_memory_bytes: int
    solve_time_ms: float


def path_cost_of(path) -> float:
    """Sum of step costs along a chain of 8-neighbor moves."""
    return sum((step_cost(path[i], path[i + 1]) for i in range(len(path) - 1)), 0.0)


def toggle_cell(grid, flags, cell, blocked: bool, fixed, why: str) -> int:
    """Apply an obstacle toggle to a planner's flag copy; returns the cell's id.

    ``fixed`` are the cells that must stay traversable, ``why`` says why.
    """
    cell = (cell[0], cell[1])
    if cell in fixed:
        raise InvalidCellError(f"cannot toggle {cell}: {why}")
    if not grid.in_bounds(cell):
        raise InvalidCellError(f"cannot toggle {cell}: out of bounds")
    i = grid.index(cell)
    flags[i] = BLOCKED if blocked else FREE
    return i


def cells_around(i: int, flags, stride: int) -> list:
    """Ids of the in-grid cells around padded id ``i``, column by column from the top left."""
    return [j for j in (i - stride - 1, i - 1, i + stride - 1, i - stride, i + stride,
                        i - stride + 1, i + 1, i + stride + 1)
            if flags[j] != OUTSIDE]
