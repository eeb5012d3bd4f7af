"""Run-plan config parsing, CSV emission, and chart output.

Config files are flat ``key=value`` lines with ``#`` comments.  Unknown
keys are rejected with their line number; missing keys take the
documented defaults, so an empty file yields the five default sweeps.

Recognized keys:
    seed, reps, instances_per_point, output_dir, parallel_pairs,
    allow_corner_cutting, algorithms, sweeps, size, density, sg_distance,
    lookahead, ara_initial_weight, ara_weight_decrement, tie_break,
    and per-sweep value overrides grid_size.values, sg_distance.values,
    density.values, wall_count.values, wall_length.values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ConfigError, InvalidSpecError
from .experiments import (
    DEFAULT_ALGORITHMS,
    DEFAULT_SWEEP_VALUES,
    ExperimentReport,
    FixedParams,
    SweepConfig,
    SweepKind,
)
from .metrics import METRIC_NAMES
from .solvers import AlgorithmId, SolverParams, TieBreak
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

_VALUE_KEYS = {f"{kind.value}.values": kind for kind in SweepKind}

_SCALAR_KEYS = (
    "seed", "reps", "instances_per_point", "output_dir", "parallel_pairs",
    "allow_corner_cutting", "algorithms", "sweeps", "size", "density",
    "sg_distance", "lookahead", "ara_initial_weight", "ara_weight_decrement",
    "tie_break",
)


def _parse_bool(raw: str, where: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {raw!r}")


def _parse_number(raw: str, where: str, kind=float):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None


def parse_config(path) -> RunPlan:
    """Parse a flat key=value config into a run plan."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line.rstrip()!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in _SCALAR_KEYS and key not in _VALUE_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = (raw, f"{path}:{lineno}")

    def take(key, default, convert):
        if key not in entries:
            return default
        raw, where = entries.pop(key)
        return convert(raw, where)

    seed = take("seed", 0, lambda r, w: _parse_number(r, w, int))
    reps = take("reps", 100, lambda r, w: _parse_number(r, w, int))
    instances = take("instances_per_point", 10, lambda r, w: _parse_number(r, w, int))
    output_dir = take("output_dir", "results", lambda r, w: r)
    parallel = take("parallel_pairs", False, _parse_bool)
    corner = take("allow_corner_cutting", False, _parse_bool)
    size = take("size", 300, lambda r, w: _parse_number(r, w, int))
    density = take("density", 0.25, lambda r, w: _parse_number(r, w, float))
    sg = take("sg_distance", 140.0, lambda r, w: _parse_number(r, w, float))
    lookahead = take("lookahead", 250, lambda r, w: _parse_number(r, w, int))
    ara_w = take("ara_initial_weight", 2.5, lambda r, w: _parse_number(r, w, float))
    ara_dec = take("ara_weight_decrement", 0.5, lambda r, w: _parse_number(r, w, float))

    def conv_tie(raw, where):
        try:
            return TieBreak[raw.strip().upper()]
        except KeyError:
            raise ConfigError(f"{where}: unknown tie_break {raw!r}") from None

    tie = take("tie_break", TieBreak.HIGH_G, conv_tie)

    def conv_algos(raw, where):
        try:
            return tuple(AlgorithmId.parse(part) for part in raw.split(",") if part.strip())
        except InvalidSpecError as exc:
            raise ConfigError(f"{where}: {exc}") from None

    algorithms = take("algorithms", DEFAULT_ALGORITHMS, conv_algos)

    def conv_kinds(raw, where):
        kinds = []
        for part in raw.split(","):
            part = part.strip().lower()
            if not part:
                continue
            try:
                kinds.append(SweepKind(part))
            except ValueError:
                raise ConfigError(f"{where}: unknown sweep kind {part!r}") from None
        if not kinds:
            raise ConfigError(f"{where}: empty sweep list")
        return tuple(kinds)

    kinds = take("sweeps", tuple(SweepKind), conv_kinds)

    overrides = {}
    for key, kind in _VALUE_KEYS.items():
        if key in entries:
            raw, where = entries.pop(key)
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            if not parts:
                raise ConfigError(f"{where}: empty value list")
            num = float if kind in (SweepKind.DENSITY, SweepKind.SG_DISTANCE) else int
            overrides[kind] = tuple(_parse_number(p, where, num) for p in parts)

    # range rules live in the constructors
    try:
        fixed = FixedParams(density=density, size=size, sg_distance=sg)
        solver_params = SolverParams(
            lookahead=lookahead, ara_initial_weight=ara_w,
            ara_weight_decrement=ara_dec, tie_break=tie,
        )
        sweeps = tuple(
            SweepConfig(
                kind=kind,
                values=overrides.get(kind, DEFAULT_SWEEP_VALUES[kind]),
                fixed=fixed,
                algorithms=algorithms,
                instances_per_point=instances,
                reps=reps,
                seed=seed,
                solver_params=solver_params,
                allow_corner_cutting=corner,
                parallel_pairs=parallel,
            )
            for kind in kinds
        )
    except (ConfigError, InvalidSpecError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return RunPlan(sweeps=sweeps, output_dir=output_dir)


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
