"""The solver suite behind one uniform contract.

``solve`` dispatches on AlgorithmId, wires in an allocation probe, and
wraps the result into a SearchOutcome.  Every euclidean-guided solver in
the suite raises NoPathError on exactly the unsolvable grids.
"""

from __future__ import annotations

import time

from ..instrumentation import AllocationProbe
from .common import (
    INF,
    AlgorithmId,
    SearchOutcome,
    SolverParams,
    TieBreak,
    path_cost_of,
)
from . import ara, astar, dstar, dstar_lite, lpa, realtime
from .ara import run_detailed as _ara_detailed
from .dstar import DStarPlanner
from .dstar_lite import DStarLitePlanner
from .lpa import LpaStarPlanner
from .realtime import RealTimeAgent

_RUNNERS = {
    AlgorithmId.ASTAR_ORACLE: astar.run,
    AlgorithmId.LRTA_STAR: realtime.run_lrta,
    AlgorithmId.RTAA_STAR: realtime.run_rtaa,
    AlgorithmId.ARA_STAR: ara.run,
    AlgorithmId.LPA_STAR: lpa.run,
    AlgorithmId.D_STAR: dstar.run,
    AlgorithmId.D_STAR_LITE: dstar_lite.run,
}


def solve(grid, algo: AlgorithmId, params: SolverParams | None = None,
          probe: AllocationProbe | None = None) -> SearchOutcome:
    """Run one solver on one grid; raises NoPathError on unsolvable grids."""
    params = params or SolverParams()
    probe = probe or AllocationProbe()
    runner = _RUNNERS[AlgorithmId(algo)]
    t0 = time.perf_counter()
    path, cost, expanded = runner(grid, params, probe)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return SearchOutcome(
        path=tuple(path),
        path_cost=cost,
        expanded=expanded,
        peak_memory_bytes=probe.peak_bytes,
        solve_time_ms=elapsed_ms,
    )


def astar_oracle(grid, params=None, probe=None) -> SearchOutcome:
    return solve(grid, AlgorithmId.ASTAR_ORACLE, params, probe)


def ara_star_iterates(grid, params=None, probe=None) -> list:
    """(weight, published cost) per improvement round, in execution order."""
    params = params or SolverParams()
    probe = probe or AllocationProbe()
    _, _, _, iterates = _ara_detailed(grid, params, probe)
    return iterates


__all__ = [
    "INF",
    "AlgorithmId",
    "SearchOutcome",
    "SolverParams",
    "TieBreak",
    "path_cost_of",
    "solve",
    "astar_oracle",
    "ara_star_iterates",
    "DStarPlanner",
    "DStarLitePlanner",
    "LpaStarPlanner",
    "RealTimeAgent",
]
