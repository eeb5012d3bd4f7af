"""Priority-driven solver selection.

The decision reads only the requested priority and the start-goal
Euclidean distance: memory or path-cost priorities always pick D* Lite;
solving-time priority picks RTAA* at or beyond the distance threshold
(default 140) and ARA* below it.  ``evaluate_selection`` benchmarks a
candidate set on the grid so the choice can be audited against measured
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidPriorityError, InvalidSpecError
from .grid import euclidean_heuristic
from .metrics import run_repetitions
from .solvers import AlgorithmId, SolverParams

DEFAULT_DISTANCE_THRESHOLD = 140.0

DEFAULT_CANDIDATES = (
    AlgorithmId.RTAA_STAR,
    AlgorithmId.ARA_STAR,
    AlgorithmId.D_STAR_LITE,
)


class Priority(Enum):
    MEMORY = "memory"
    PATH_COST = "pathcost"
    SOLVING_TIME = "solvingtime"


PRIORITY_METRIC = {
    Priority.MEMORY: "memory_kb",
    Priority.PATH_COST: "path_cost",
    Priority.SOLVING_TIME: "solve_time_ms",
}


def parse_priority(text: str) -> Priority:
    norm = text.strip().lower().replace("_", "").replace("-", "").replace(" ", "")
    for p in Priority:
        if p.value == norm:
            return p
    raise InvalidPriorityError(
        f"unknown priority {text!r}; expected one of memory, pathcost, solvingtime"
    )


@dataclass(frozen=True)
class SelectionRequest:
    grid: object
    priority: Priority
    distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD

    def __post_init__(self):
        if not isinstance(self.priority, Priority):
            raise InvalidPriorityError(f"priority must be a Priority, got {self.priority!r}")
        if not self.distance_threshold > 0:
            raise InvalidSpecError(
                f"distance threshold must be positive, got {self.distance_threshold}"
            )


def select_algorithm(req: SelectionRequest) -> AlgorithmId:
    """Pure decision function; only start/goal of the grid are consulted."""
    if req.priority in (Priority.MEMORY, Priority.PATH_COST):
        return AlgorithmId.D_STAR_LITE
    if req.priority is Priority.SOLVING_TIME:
        d = euclidean_heuristic(req.grid.start, req.grid.goal)
        if d >= req.distance_threshold:
            return AlgorithmId.RTAA_STAR
        return AlgorithmId.ARA_STAR
    raise InvalidPriorityError(f"unknown priority {req.priority!r}")


@dataclass(frozen=True)
class CandidateResult:
    algorithm: AlgorithmId
    stats: dict  # metric name -> AggregateStats


@dataclass(frozen=True)
class SelectionEvaluation:
    selected: AlgorithmId
    priority: Priority
    candidates: tuple  # CandidateResult, in benchmark order
    best: AlgorithmId
    selected_is_best: bool


def evaluate_selection(grid, req: SelectionRequest, candidates=None,
                       params: SolverParams | None = None, reps: int = 100) -> SelectionEvaluation:
    """Benchmark the candidates and flag whether the selection wins its metric.

    Ties count as a win.  The selected algorithm joins the candidate set if
    it is not already in it.
    """
    candidates = list(candidates) if candidates else list(DEFAULT_CANDIDATES)
    if not candidates:
        raise InvalidSpecError("candidate list must not be empty")
    selected = select_algorithm(req)
    if selected not in candidates:
        candidates.append(selected)
    results = tuple(
        CandidateResult(algorithm=algo, stats=run_repetitions(grid, algo, params, reps=reps))
        for algo in candidates
    )
    metric = PRIORITY_METRIC[req.priority]
    means = {r.algorithm: r.stats[metric].mean for r in results}
    best = min(results, key=lambda r: means[r.algorithm]).algorithm
    selected_is_best = means[selected] <= means[best] + 1e-9
    return SelectionEvaluation(
        selected=selected,
        priority=req.priority,
        candidates=results,
        best=best,
        selected_is_best=selected_is_best,
    )
