"""Grid pathfinding solver suite with a reproducible benchmarking harness.

Seven solvers (an exact reference plus LRTA*, RTAA*, ARA*, LPA*, D*, and
D* Lite) share one movement model and one instrumentation contract;
deterministic generators, a metrics harness, five parameter sweeps, and a
priority-based selection rule sit on top.
"""

from ._version import __version__
from .errors import (
    AdjacencyError,
    ConfigError,
    GenerationError,
    GridBenchError,
    GridFormatError,
    InvalidCellError,
    InvalidPriorityError,
    InvalidSpecError,
    MeasurementError,
    NoPathError,
)
from .grid import (
    Coord,
    Grid,
    euclidean_heuristic,
    format_grid,
    load_grid,
    parse_grid,
    save_grid,
    step_cost,
)
from .generators import (
    RandomGridSpec,
    WallGridSpec,
    generate_instance_set,
    generate_random_grid,
    generate_wall_grid,
    is_solvable,
    obstacle_count,
    wall_length_sequence,
)
from .instrumentation import AllocationProbe
from .solvers import (
    AlgorithmId,
    DStarLitePlanner,
    DStarPlanner,
    LpaStarPlanner,
    RealTimeAgent,
    SearchOutcome,
    SolverParams,
    ara_star_iterates,
    astar_oracle,
    path_cost_of,
    solve,
)
from .metrics import AggregateStats, RunMetrics, aggregate, measure_run, run_repetitions
from .experiments import (
    DEFAULT_SWEEP_VALUES,
    ExperimentReport,
    FixedParams,
    SweepConfig,
    SweepKind,
    run_sweep,
)
from .selector import (
    DEFAULT_DISTANCE_THRESHOLD,
    Priority,
    SelectionRequest,
    evaluate_selection,
    parse_priority,
    select_algorithm,
)
from .reporting import RunPlan, parse_config, render_plots, write_csv
