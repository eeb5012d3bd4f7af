"""Goal-rooted incremental planner for a moving agent (D* Lite).

The g/rhs core of ``lpa`` rooted at the goal, keys aimed at the agent.
Each obstacle change first adds the straight-line distance the agent
covered since the last one to k_m, which keeps every stale key a lower
bound, so moving forces no re-sort; stale keys are refreshed on pop.
"""

from __future__ import annotations

from ..errors import InvalidSpecError, NoPathError
from ..grid import neighbor_cells  # noqa: F401  (perfbench's tracer patches this name)
from ..instrumentation import AllocationProbe
from .common import INF, SolverParams
from .lpa import GRhsPlanner


class DStarLitePlanner(GRhsPlanner):
    """D* Lite: backward from the goal, keys aimed at the agent."""

    def __init__(self, grid, probe=None):
        super().__init__(grid, grid.goal, grid.start, probe)

    @property
    def position(self):
        """The agent's cell."""
        return self.grid.coord(self._target)

    def advance(self, steps: int = 1) -> None:
        """Move the agent ``steps`` cells along the current optimal path (0: stay).

        Stops early at the goal; raises InvalidSpecError for a negative
        ``steps``.
        """
        if steps < 0:
            raise InvalidSpecError(f"steps must be >= 0, got {steps}")
        for _ in range(steps):
            if self._target == self._root:
                return
            nxt, val = self._best_step(self._target)
            if nxt is None or val == INF:
                raise NoPathError(f"agent stranded at {tuple(self.position)}")
            self._aim(nxt)


def run(grid, params: SolverParams, probe: AllocationProbe):
    return DStarLitePlanner(grid, probe).solve()
