"""The five benchmark sweeps as configurable experiment plans.

Each sweep varies one environment parameter while holding the others at
fixed defaults (density 0.25, size 300x300, start-goal distance 140),
generates a set of instances per parameter value, measures every
algorithm once on every distinct instance grid, and aggregates
per-instance means into one report row per (algorithm, value).  A wall
point lists its one deterministic grid once per instance, so that grid
is measured once and each instance takes the same measurement.  All
measurements run in the calling process, one after another.

The held-constant start-goal distance is capped at n - 1 on grids too
small to realize it, so the size sweep stays well defined at its lower
end; swept distance values are never adjusted.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum

from ._version import __version__
from .errors import ConfigError, GenerationError, InvalidSpecError
from .generators import (
    RandomGridSpec,
    WallGridSpec,
    generate_instance_set,
    generate_wall_grid,
    sg_distance,
    wall_length_sequence,
)
from .metrics import METRIC_NAMES, aggregate, run_repetitions
from .solvers import AlgorithmId, SolverParams

WALL_SIZE_LABEL = "31x71"


class SweepKind(Enum):
    GRID_SIZE = "grid_size"
    SG_DISTANCE = "sg_distance"
    DENSITY = "density"
    WALL_COUNT = "wall_count"
    WALL_LENGTH = "wall_length"


DEFAULT_ALGORITHMS = (
    AlgorithmId.LRTA_STAR,
    AlgorithmId.RTAA_STAR,
    AlgorithmId.ARA_STAR,
    AlgorithmId.LPA_STAR,
    AlgorithmId.D_STAR,
    AlgorithmId.D_STAR_LITE,
)

DEFAULT_SWEEP_VALUES = {
    SweepKind.GRID_SIZE: (50, 100, 150, 200, 250, 300),
    SweepKind.SG_DISTANCE: (20, 60, 100, 140, 180, 220, 260),
    SweepKind.DENSITY: (0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40),
    SweepKind.WALL_COUNT: (0, 1, 2, 3, 4, 5, 6, 7),
    SweepKind.WALL_LENGTH: tuple(wall_length_sequence()),
}

# wall-count sweeps hold the wall length at the sequence start (half width)
WALL_GRID_DEFAULT_LENGTH = wall_length_sequence()[0]


@dataclass(frozen=True)
class FixedParams:
    density: float = 0.25
    size: int = 300
    sg_distance: float = 140.0

    def __post_init__(self):
        if self.size < 3:
            raise ConfigError(f"size must be >= 3, got {self.size}")
        if not 0.0 <= self.density < 1.0:
            raise ConfigError(f"density must be in [0, 1), got {self.density}")
        if self.sg_distance < 0:
            raise ConfigError(f"sg_distance must be nonnegative, got {self.sg_distance}")


@dataclass(frozen=True)
class SweepConfig:
    kind: SweepKind
    values: tuple = ()
    fixed: FixedParams = FixedParams()
    algorithms: tuple = DEFAULT_ALGORITHMS
    instances_per_point: int = 10
    reps: int = 100
    seed: int = 0
    solver_params: SolverParams = field(default_factory=SolverParams)
    allow_corner_cutting: bool = False

    def __post_init__(self):
        values = tuple(self.values) or DEFAULT_SWEEP_VALUES[self.kind]
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "algorithms", tuple(AlgorithmId(a) for a in self.algorithms))
        if not self.algorithms:
            raise ConfigError("algorithm list must not be empty")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"sweep values must be strictly increasing, got {values}")
        if self.instances_per_point < 1:
            raise ConfigError(f"instances_per_point must be >= 1, got {self.instances_per_point}")
        if self.reps < 1:
            raise ConfigError(f"reps must be >= 1, got {self.reps}")


@dataclass(frozen=True)
class SweepRow:
    algorithm: AlgorithmId
    value: float
    num_walls: int | None
    wall_length: int | None
    density: float | None
    grid_size: str
    sg_distance: float
    stats: dict  # metric name -> AggregateStats across instances


@dataclass(frozen=True)
class ExperimentReport:
    kind: SweepKind
    rows: tuple
    provenance: dict


def _point(cfg: SweepConfig, index: int, value) -> tuple:
    """One parameter point's instance grids (shared by all algorithms) and
    its row labels (num_walls, wall_length, density, grid_size).

    A wall point's list holds its one grid ``instances_per_point`` times
    (the same object), which ``run_sweep`` measures once per algorithm;
    a random point's list holds distinct grids."""
    fixed = cfg.fixed
    if cfg.kind in (SweepKind.WALL_COUNT, SweepKind.WALL_LENGTH):
        if cfg.kind is SweepKind.WALL_COUNT:
            spec = WallGridSpec(num_walls=int(value), wall_length=WALL_GRID_DEFAULT_LENGTH)
        else:
            spec = WallGridSpec(num_walls=7, wall_length=int(value))
        grid = generate_wall_grid(spec, cfg.allow_corner_cutting)
        labels = (spec.num_walls, spec.wall_length, None, WALL_SIZE_LABEL)
        return [grid] * cfg.instances_per_point, labels
    # the held-constant distance adapts to grids too small to realize it;
    # swept distance values are taken literally and fail loudly instead
    if cfg.kind is SweepKind.GRID_SIZE:
        n, density = int(value), fixed.density
        sg = min(fixed.sg_distance, float(n - 1))
    elif cfg.kind is SweepKind.DENSITY:
        n, density = fixed.size, float(value)
        sg = min(fixed.sg_distance, float(n - 1))
    else:  # SG_DISTANCE
        n, density, sg = fixed.size, fixed.density, float(value)
    spec = RandomGridSpec(
        n=n, density=density, sg_distance=sg,
        seed=cfg.seed + index * cfg.instances_per_point,
    )
    grids = generate_instance_set(spec, cfg.instances_per_point, cfg.allow_corner_cutting)
    return grids, (None, None, density, str(n))


def run_sweep(cfg: SweepConfig) -> ExperimentReport:
    """Execute one sweep; deterministic given the seed except solve times."""
    points = []
    for index, value in enumerate(cfg.values):
        try:
            points.append(_point(cfg, index, value))
        except (GenerationError, InvalidSpecError) as exc:
            raise type(exc)(f"sweep {cfg.kind.value}, value {value}: {exc}") from exc

    # One measurement per distinct (grid, algorithm) pair, in order of first
    # occurrence, keyed by grid identity: a wall point lists its one grid
    # instances_per_point times, while equal random instances stay separate.
    results = {}
    for grids, _ in points:
        for algo in cfg.algorithms:
            for grid in grids:
                if (id(grid), algo) not in results:
                    results[id(grid), algo] = run_repetitions(
                        grid, algo, cfg.solver_params, reps=cfg.reps)

    rows = []
    for value, (grids, labels) in zip(cfg.values, points):
        # added left to right, as in ``path_cost_of``: ``sum()`` of floats is
        # compensated from Python 3.12 on and would change the last digit
        total_sg = 0.0
        for g in grids:
            total_sg += sg_distance(g)
        mean_sg = total_sg / len(grids)
        for algo in cfg.algorithms:
            # every instance slot naming a grid takes its one result, so n is kept
            per_grid = [results[id(g), algo] for g in grids]
            stats = {m: aggregate([stats[m].mean for stats in per_grid]) for m in METRIC_NAMES}
            rows.append(SweepRow(algo, value, *labels, sg_distance=mean_sg, stats=stats))
    provenance = dict(
        asdict(cfg),
        kind=cfg.kind.value,
        values=list(cfg.values),
        algorithms=[a.value for a in cfg.algorithms],
        version=__version__,
    )
    return ExperimentReport(kind=cfg.kind, rows=tuple(rows), provenance=provenance)
