"""Measurement harness: one timed run, repeated runs, and aggregation.

Solve time is the one reading ``solve`` takes on a monotonic clock around
the solver run alone; grid construction, probe setup and outcome
construction stay outside.  Reported memory is the probe's high-water
mark (see instrumentation), so for deterministic solvers only
solve_time_ms varies between repetitions.  A discarded warm-up run
precedes the timed repetitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MeasurementError
from .solvers import AlgorithmId, SolverParams, solve

METRIC_NAMES = ("path_cost", "memory_kb", "solve_time_ms")


@dataclass(frozen=True)
class RunMetrics:
    path_cost: float
    memory_kb: float
    solve_time_ms: float


@dataclass(frozen=True)
class AggregateStats:
    n: int
    mean: float
    stddev: float
    min: float
    max: float


def aggregate(samples) -> AggregateStats:
    """Mean and sample (n-1) standard deviation of a nonempty list."""
    samples = list(samples)
    n = len(samples)
    if n == 0:
        raise MeasurementError("cannot aggregate an empty sample list")
    lo, hi = min(samples), max(samples)
    # clamp away the one-ULP drift fsum division can introduce
    mean = min(max(math.fsum(samples) / n, lo), hi)
    if n > 1:
        var = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
        stddev = math.sqrt(var)
    else:
        stddev = 0.0
    return AggregateStats(n=n, mean=mean, stddev=stddev, min=lo, max=hi)


def measure_run(grid, algo: AlgorithmId, params: SolverParams | None = None) -> RunMetrics:
    """One instrumented solve; propagates NoPathError on unsolvable grids."""
    outcome = solve(grid, algo, params)
    if outcome.peak_memory_bytes <= 0:
        raise MeasurementError(f"probe recorded no allocations for {algo}")
    return RunMetrics(
        path_cost=outcome.path_cost,
        memory_kb=outcome.peak_memory_bytes / 1024.0,
        solve_time_ms=outcome.solve_time_ms,
    )


def run_repetitions(grid, algo: AlgorithmId, params: SolverParams | None = None,
                    reps: int = 100) -> dict:
    """A discarded warm-up run, then ``reps`` measure_run calls aggregated per metric."""
    if reps < 1:
        raise MeasurementError(f"reps must be >= 1, got {reps}")
    measure_run(grid, algo, params)
    runs = [measure_run(grid, algo, params) for _ in range(reps)]
    return {
        "path_cost": aggregate([r.path_cost for r in runs]),
        "memory_kb": aggregate([r.memory_kb for r in runs]),
        "solve_time_ms": aggregate([r.solve_time_ms for r in runs]),
    }
