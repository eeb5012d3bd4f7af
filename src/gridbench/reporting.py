"""Run-plan config parsing, CSV emission, and chart output.

Config files are flat ``key=value`` lines with ``#`` comments.  The keys
are the field names of ``FixedParams`` and ``SolverParams``, those of
``SweepConfig`` except ``kind``, ``values``, ``fixed`` and
``solver_params``, and ``RunPlan.output_dir``.  Each line is read by the
type of its field's default and passed to the constructor that owns the
field, so a key the file leaves out takes its dataclass's default.  Two
more keys shape the plan: ``sweeps`` (a subset of the five kinds, all by
default) and ``<kind>.values`` (e.g. ``density.values``, one sweep's
value list).  Unknown keys are rejected with their line number, so an
empty file yields the five default sweeps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import ConfigError, InvalidSpecError
from .experiments import ExperimentReport, FixedParams, SweepConfig, SweepKind
from .metrics import METRIC_NAMES
from .solvers import AlgorithmId, SolverParams
from .svgchart import Series, render_line_chart

CSV_COLUMNS = (
    "algorithm",
    "number_of_walls",
    "wall_length",
    "obstacle_density",
    "grid_size",
    "sg_distance",
    "path_cost",
    "memory_allocation_kb",
    "solving_time_ms",
)

_METRIC_LABELS = {
    "path_cost": "path cost",
    "memory_kb": "memory allocation (KB)",
    "solve_time_ms": "solving time (ms)",
}

_AXIS_LABELS = {
    SweepKind.GRID_SIZE: "grid size",
    SweepKind.SG_DISTANCE: "start-goal distance",
    SweepKind.DENSITY: "obstacle density",
    SweepKind.WALL_COUNT: "number of walls",
    SweepKind.WALL_LENGTH: "wall length",
}


@dataclass(frozen=True)
class RunPlan:
    sweeps: tuple
    output_dir: str = "results"


def fmt3(v: float) -> str:
    return f"{v:.3f}"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _read_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _number_reader(kind):
    def read(raw: str):
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"expected a number, got {raw!r}") from None
    return read


def _read_algorithms(raw: str) -> tuple:
    return tuple(AlgorithmId.parse(part) for part in raw.split(",") if part.strip())


def _reader(default):
    """The reader of a field, chosen by its default (annotations are strings here)."""
    if isinstance(default, bool):
        return _read_bool
    if isinstance(default, (int, float)):
        return _number_reader(type(default))
    if isinstance(default, tuple):
        return _read_algorithms
    return str


def _read_kinds(raw: str) -> tuple:
    kinds = []
    for part in raw.split(","):
        part = part.strip().lower()
        if not part:
            continue
        try:
            kinds.append(SweepKind(part))
        except ValueError:
            raise ConfigError(f"unknown sweep kind {part!r}") from None
    if not kinds:
        raise ConfigError("empty sweep list")
    return tuple(kinds)


def _values_reader(kind):
    read = _number_reader(kind)

    def read_values(raw: str) -> tuple:
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ConfigError("empty value list")
        return tuple(read(p) for p in parts)
    return read_values


_OWNERS = (FixedParams, SolverParams, SweepConfig, RunPlan)
# key -> (the dataclass that owns it, or None for the plan-shaping keys; its reader)
_KEYS = {
    f.name: (cls, _reader(f.default))
    for cls in _OWNERS
    for f in fields(cls)
    if f.name not in ("kind", "values", "fixed", "solver_params", "sweeps")
}
_KEYS["sweeps"] = (None, _read_kinds)
_KEYS.update({
    f"{kind.value}.values":
        (None, _values_reader(float if kind in (SweepKind.DENSITY, SweepKind.SG_DISTANCE) else int))
    for kind in SweepKind
})


def parse_config(path) -> RunPlan:
    """Parse a flat key=value config into a run plan."""
    given = {owner: {} for owner in (None,) + _OWNERS}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line.rstrip()!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            owner, read = _KEYS[key]
            if key in given[owner]:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                given[owner][key] = read(raw)
            except (ConfigError, InvalidSpecError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None

    # range rules live in the constructors; SweepConfig fills empty values
    shape = given[None]
    try:
        fixed = FixedParams(**given[FixedParams])
        solver_params = SolverParams(**given[SolverParams])
        sweeps = tuple(
            SweepConfig(kind, shape.get(f"{kind.value}.values", ()), fixed,
                        solver_params=solver_params, **given[SweepConfig])
            for kind in shape.get("sweeps", tuple(SweepKind))
        )
    except (ConfigError, InvalidSpecError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return RunPlan(sweeps, **given[RunPlan])


# ---------------------------------------------------------------------------
# CSV and SVG emission
# ---------------------------------------------------------------------------

def _dash_or(value, fmt) -> str:
    return "-" if value is None else fmt(value)


def csv_fields(algorithm, num_walls, wall_length, density, grid_size, sg_distance,
               stats) -> tuple:
    """One row's fields in CSV_COLUMNS order; None labels print as '-'."""
    return (
        algorithm.label,
        _dash_or(num_walls, str),
        _dash_or(wall_length, str),
        _dash_or(density, fmt3),
        grid_size,
        fmt3(sg_distance),
        fmt3(stats["path_cost"].mean),
        fmt3(stats["memory_kb"].mean),
        fmt3(stats["solve_time_ms"].mean),
    )


def csv_rows(report: ExperimentReport) -> list[str]:
    lines = [",".join(CSV_COLUMNS)]
    for row in report.rows:
        lines.append(",".join(csv_fields(
            row.algorithm, row.num_walls, row.wall_length, row.density,
            row.grid_size, row.sg_distance, row.stats,
        )))
    return lines


def write_csv(report: ExperimentReport, path) -> int:
    """Write a report as CSV; returns the number of data rows."""
    if not report.rows:
        raise ConfigError("refusing to write an empty report")
    lines = csv_rows(report)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines) - 1


def render_plots(report: ExperimentReport, out_dir) -> list[str]:
    """One SVG per metric: x = sweep value, one mean +/- stddev series per algorithm."""
    if not report.rows:
        raise ConfigError("refusing to plot an empty report")
    os.makedirs(out_dir, exist_ok=True)
    algorithms = []
    for row in report.rows:
        if row.algorithm not in algorithms:
            algorithms.append(row.algorithm)
    x_label = _AXIS_LABELS[report.kind]
    paths = []
    for metric in METRIC_NAMES:
        series = []
        for algo in algorithms:
            rows = [r for r in report.rows if r.algorithm == algo]
            series.append(Series(
                label=algo.label,
                xs=tuple(float(r.value) for r in rows),
                ys=tuple(r.stats[metric].mean for r in rows),
                band=tuple(r.stats[metric].stddev for r in rows),
            ))
        svg = render_line_chart(
            series,
            title=f"{_METRIC_LABELS[metric]} vs. {x_label}",
            x_label=x_label,
            y_label=_METRIC_LABELS[metric],
        )
        filename = os.path.join(out_dir, f"{report.kind.value}_{metric}.svg")
        with open(filename, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg)
        paths.append(filename)
    return paths
