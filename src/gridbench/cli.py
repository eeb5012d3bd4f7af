"""Command-line front end.

Subcommands: ``sweep`` (run configured sweeps to CSV + SVG), ``solve``
(one solver on one grid file), ``select`` (priority-based choice),
``evaluate`` (benchmark the candidates behind a choice), ``gen`` (emit a
grid file).  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .errors import GridBenchError, NoPathError
from .experiments import run_sweep
from .generators import (
    RandomGridSpec,
    WallGridSpec,
    generate_random_grid,
    generate_wall_grid,
    sg_distance,
)
from .grid import BLOCKED, load_grid, save_grid
from .reporting import CSV_COLUMNS, csv_fields, fmt3, parse_config, render_plots, write_csv
from .selector import (
    DEFAULT_DISTANCE_THRESHOLD,
    SelectionRequest,
    evaluate_selection,
    parse_priority,
    select_algorithm,
)
from .solvers import AlgorithmId, SolverParams, solve


def _solver_params(args) -> SolverParams:
    return SolverParams(**{f.name: getattr(args, f.name) for f in fields(SolverParams)})


def _add_param_flags(parser) -> None:
    """Solver flags shared by ``solve`` and ``evaluate``: one per ``SolverParams``
    field, typed by its default."""
    for f in fields(SolverParams):
        parser.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                            default=f.default)


def _add_grid_args(parser) -> None:
    parser.add_argument("gridfile")
    parser.add_argument("--allow-corner-cutting", action="store_true")


def _load_grid(args):
    return load_grid(args.gridfile, args.allow_corner_cutting)


def _cmd_sweep(args) -> int:
    plan = parse_config(args.config)
    out_dir = args.output_dir or plan.output_dir
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for cfg in plan.sweeps:
        report = run_sweep(cfg)
        csv_path = os.path.join(out_dir, f"{cfg.kind.value}.csv")
        rows = write_csv(report, csv_path)
        written.append(csv_path)
        written.extend(render_plots(report, out_dir))
        print(f"{cfg.kind.value}: {rows} rows -> {csv_path}")
    print(f"wrote {len(written)} files to {out_dir}")
    return 0


def _cmd_solve(args) -> int:
    grid = _load_grid(args)
    algo = AlgorithmId.parse(args.algo)
    try:
        outcome = solve(grid, algo, _solver_params(args))
    except NoPathError:
        print("no path")
        return 1
    print(f"algorithm: {algo.label}")
    print(f"path_cost: {fmt3(outcome.path_cost)}")
    print(f"path_moves: {len(outcome.path) - 1}")
    print(f"expanded: {outcome.expanded}")
    print(f"memory_kb: {fmt3(outcome.peak_memory_bytes / 1024.0)}")
    print(f"solve_time_ms: {fmt3(outcome.solve_time_ms)}")
    return 0


def _selection_request(args) -> SelectionRequest:
    return SelectionRequest(
        grid=_load_grid(args),
        priority=parse_priority(args.priority),
        distance_threshold=args.threshold,
    )


def _cmd_select(args) -> int:
    print(select_algorithm(_selection_request(args)).value)
    return 0


def _cmd_evaluate(args) -> int:
    req = _selection_request(args)
    grid = req.grid
    evaluation = evaluate_selection(req, params=_solver_params(args), reps=args.reps)
    print(",".join(CSV_COLUMNS + ("best_for_priority",)))
    size = f"{grid.width}x{grid.height}"
    sg = sg_distance(grid)
    for cand in evaluation.candidates:
        marker = "*" if cand.algorithm == evaluation.best else ""
        fields = csv_fields(cand.algorithm, None, None, None, size, sg, cand.stats)
        print(",".join(fields + (marker,)))
    print(f"selected: {evaluation.selected.value}")
    print(f"selected_is_best: {str(evaluation.selected_is_best).lower()}")
    return 0


def _cmd_gen(args) -> int:
    if args.family == "random":
        spec = RandomGridSpec(
            n=args.n, density=args.density, sg_distance=args.sg_distance, seed=args.seed,
        )
        grid = generate_random_grid(spec)
    else:
        spec = WallGridSpec(num_walls=args.num_walls, wall_length=args.wall_length)
        grid = generate_wall_grid(spec)
    save_grid(grid, args.out)
    print(f"wrote {grid.width}x{grid.height} grid with {grid.flags.count(BLOCKED)} blocked cells to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridbench",
        description="Grid pathfinding benchmarks, solver selection, and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run sweeps from a config file")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--output-dir", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_solve = sub.add_parser("solve", help="run one solver on a grid file")
    _add_grid_args(p_solve)
    p_solve.add_argument("--algo", required=True)
    _add_param_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_select = sub.add_parser("select", help="priority-based algorithm selection")
    _add_grid_args(p_select)
    p_select.add_argument("--priority", required=True)
    p_select.add_argument("--threshold", type=float, default=DEFAULT_DISTANCE_THRESHOLD)
    p_select.set_defaults(func=_cmd_select)

    p_eval = sub.add_parser("evaluate", help="benchmark the selection candidates")
    _add_grid_args(p_eval)
    p_eval.add_argument("--priority", required=True)
    p_eval.add_argument("--threshold", type=float, default=DEFAULT_DISTANCE_THRESHOLD)
    p_eval.add_argument("--reps", type=int, default=10)
    _add_param_flags(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_gen = sub.add_parser("gen", help="generate a grid file")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_rand = gen_sub.add_parser("random")
    g_rand.add_argument("out")
    g_rand.add_argument("--n", type=int, required=True)
    g_rand.add_argument("--density", type=float, default=0.25)
    g_rand.add_argument("--sg-distance", type=float, required=True)
    g_rand.add_argument("--seed", type=int, default=0)
    g_rand.set_defaults(func=_cmd_gen)
    g_wall = gen_sub.add_parser("walls")
    g_wall.add_argument("out")
    g_wall.add_argument("--num-walls", type=int, required=True)
    g_wall.add_argument("--wall-length", type=int, default=15)
    g_wall.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except GridBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
