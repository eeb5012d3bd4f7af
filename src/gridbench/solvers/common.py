"""Shared solver contract: algorithm ids, parameters, outcomes; the incremental planners' base."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from ..errors import InvalidCellError, InvalidSpecError, NoPathError
from ..grid import BLOCKED, FREE, OUTSIDE, Coord, arc_table, refresh_arc_masks, step_cost
from ..instrumentation import AllocationProbe

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


def cells_around(i: int, flags, stride: int) -> list:
    """Ids of the in-grid cells around padded id ``i``, column by column from the top left."""
    return [j for j in (i - stride - 1, i - 1, i + stride - 1, i - stride, i + stride,
                        i - stride + 1, i + 1, i + stride + 1)
            if flags[j] != OUTSIDE]


class IncrementalPlanner:
    """What LPA*, D* and D* Lite share: the substrate, the toggle and the first-plan rule.

    A planner searches between a root cell and a target cell, the two ends
    of its path: LPA* from the start to the goal, D* and D* Lite from the
    goal to the agent's cell.  It toggles obstacles in its own copies of
    ``Grid.flags`` and ``Grid.masks``, which are not charged to the probe:
    like the grid's flags they are substrate, not search state.
    """

    def __init__(self, grid, root, target, probe: AllocationProbe | None = None):
        self.grid = grid
        self.probe = probe or AllocationProbe()
        # padded flags and arc masks of the planner's own (mutable) copy of the grid
        self._flags = bytearray(grid.flags)
        self._mask = bytearray(grid.masks)
        self._steps = grid.steps
        self._table = arc_table(self._steps)
        self._stride = grid.width + 2
        self._root, self._target = grid.index(root), grid.index(target)
        self.expanded = 0

    def set_blocked(self, cell, blocked: bool = True) -> None:
        """Toggle an obstacle, refresh the masks of the cells around it and re-queue them.

        The path's ends, the root and the target, must stay traversable.
        Each planner re-queues in its own order (``_requeue``), because the
        order fixes the seqs that break its key ties.
        """
        i = cell_id(self.grid, cell)
        if i == self._root or i == self._target:
            raise InvalidCellError(f"cannot toggle {(cell[0], cell[1])}: "
                                   "path ends must stay traversable")
        self._flags[i] = BLOCKED if blocked else FREE
        around = cells_around(i, self._flags, self._stride)
        refresh_arc_masks(self._mask, around, self._flags, self._steps)
        self._requeue(i, around)

    def _first_plan(self, i: int) -> bool:
        """Whether no search has run yet; if so and id ``i`` is the start, checks ``Grid.solvable``.

        The bit speaks only for the start, and only on the grid's own flags:
        ``check_solvable`` raises NoPathError.
        """
        if self.expanded:
            return False
        if i == self.grid.index(self.grid.start):
            check_solvable(self.grid, self._flags)
        return True
