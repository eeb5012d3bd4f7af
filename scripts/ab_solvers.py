#!/usr/bin/env python3
"""Compare the solvers of two source trees, solve by solve, in one process.

Loads the ``gridbench`` package of each tree (``TREE/src/gridbench``)
under its own module name, builds the two reference instances of aim 1
in ROADMAP.md with each tree's own generators (the 300x300 random grid:
density 0.25, start-goal distance 140, seed 0; the 7-wall, length-21 wall
grid), then, round by round, solves each instance with every
``AlgorithmId`` on both trees, alternating which tree goes first.  Each
solve follows a ``gc.collect()`` and is timed by its own
``solve_time_ms``.

Prints, per instance and solver, the expansions, each tree's median ms
and us per expansion, the ratio of the medians and the median of the
per-round ratios (B over A); the last row per instance sums the solvers.

Then it replays the repair path, which the benchmark's ``replan_ref300``
pools into one median over all events: LPA*, D* and D* Lite each search
the reference grid, then repair it after each of ``REPAIR_EVENTS``
toggles near the middle of the current path (see ``replay``), the two
trees alternating round by round.  Per planner it prints the first
search ("initial") and the summed repairs ("repair") in the same columns.

Exits 1 when ``expanded``, ``path_cost`` or ``peak_memory_bytes`` differ
between the trees (or between rounds) on any solver and instance, or any
replay event's expansions or path cost differ: timing solvers that do
different work compares nothing.

Usage:
    python scripts/ab_solvers.py TREE_A TREE_B [--rounds N]
"""

import argparse
import gc
import importlib.util
import os
import statistics
import sys
import time

INSTANCES = (
    ("random 300x300", lambda gb: gb.generate_random_grid(
        gb.RandomGridSpec(n=300, density=0.25, sg_distance=140.0, seed=0))),
    ("7-wall, length 21", lambda gb: gb.generate_wall_grid(gb.WallGridSpec(7, 21))),
)


def load_tree(root: str, name: str):
    """Import ``root/src/gridbench`` as the package ``name``."""
    pkg = os.path.join(os.path.abspath(root), "src", "gridbench")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def compare(trees, build, rounds: int):
    """Per solver: its (expanded, path_cost, peak) readings and both trees' times in ms."""
    grids = [build(gb) for gb in trees]
    names = [a.name for a in trees[0].AlgorithmId]
    readings = {name: set() for name in names}
    times = {name: ([], []) for name in names}
    for r in range(rounds):
        for i, name in enumerate(names):
            for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                gb = trees[side]
                gc.collect()
                out = gb.solve(grids[side], gb.AlgorithmId[name])
                readings[name].add((out.expanded, out.path_cost, out.peak_memory_bytes))
                times[name][side].append(out.solve_time_ms)
    return readings, times


REPAIR_EVENTS = 12
PLANNERS = {"LPA_STAR": "LpaStarPlanner", "D_STAR": "DStarPlanner",
            "D_STAR_LITE": "DStarLitePlanner"}


def replay(gb, grid, name):
    """One run of the repair script: per search, its (expanded, path cost) and ms.

    The first search, then one toggle and repair per event.  Events 3, 7
    and 11 unblock the oldest cell still blocked; the others block the
    middle cell of the current path.  D* and D* Lite first move the agent
    two steps along that path before events 1, 4, 7 and 10.  A search's
    time covers the planner's construction (the first), or the toggle
    (a repair), up to the extracted path.
    """
    dstar = name == "D_STAR"
    pos, blocked, readings, ms = grid.start, [], [], []
    t0 = time.perf_counter()
    planner = getattr(gb, PLANNERS[name])(grid)
    for event in range(REPAIR_EVENTS + 1):
        before = planner.expanded
        if event:
            if name != "LPA_STAR" and event % 3 == 1:
                if dstar:
                    pos = path[2]
                else:
                    planner.advance(2)
                path = path[2:]
            if event % 4 == 3:
                cell, flag = blocked.pop(0), False
            else:
                cell, flag = path[len(path) // 2], True
                blocked.append(cell)
            t0 = time.perf_counter()
            planner.set_blocked(cell, flag)
        if not dstar:
            planner.compute()
        elif event:
            planner.replan(pos)
        else:
            planner.initial_run()
        path = planner.extract_path(pos) if dstar else planner.extract_path()
        ms.append(1000 * (time.perf_counter() - t0))
        readings.append((planner.expanded - before, gb.path_cost_of(path)))
    return readings, ms


def compare_repairs(trees, rounds: int):
    """Per planner: its replay readings and both trees' (initial, summed repair) ms per round."""
    grids = [INSTANCES[0][1](gb) for gb in trees]
    readings = {name: set() for name in PLANNERS}
    times = {name: ([], []) for name in PLANNERS}
    for r in range(rounds):
        for i, name in enumerate(PLANNERS):
            for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                gc.collect()
                events, ms = replay(trees[side], grids[side], name)
                readings[name].add(tuple(events))
                times[name][side].append((ms[0], sum(ms[1:])))
    return readings, times


def _row(label, expanded, a, b) -> str:
    ma, mb = statistics.median(a), statistics.median(b)
    per_round = statistics.median(y / x for x, y in zip(a, b))
    us = (f"{1000 * ma / expanded:8.2f} {1000 * mb / expanded:8.2f}" if expanded
          else f"{'':8} {'':8}")
    return (f"  {label:16} {expanded or '':>9} {ma:9.2f} {mb:9.2f} {us} "
            f"{mb / ma:7.3f} {per_round:9.3f}")


HEADER = (f"  {'solver':16} {'expanded':>9} {'A ms':>9} {'B ms':>9} "
          f"{'A us/exp':>8} {'B us/exp':>8} {'medians':>7} {'per-round':>9}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a", help="root of the first source tree (the base of the ratios)")
    ap.add_argument("tree_b", help="root of the second source tree")
    ap.add_argument("--rounds", type=int, default=15,
                    help="solves per tree, solver and instance; replays per tree and planner")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error(f"--rounds must be >= 1, got {args.rounds}")
    trees = [load_tree(args.tree_a, "gridbench_a"), load_tree(args.tree_b, "gridbench_b")]
    labels = {a.name: a.label for a in trees[0].AlgorithmId}
    differ = []
    print(f"A: {os.path.abspath(args.tree_a)}\nB: {os.path.abspath(args.tree_b)}\n"
          f"{args.rounds} round(s); medians in ms; ratios are B/A")
    for title, build in INSTANCES:
        readings, times = compare(trees, build, args.rounds)
        print(f"\n{title}\n{HEADER}")
        for name, (a, b) in times.items():
            if len(readings[name]) > 1:
                differ.append(f"{title}, {labels[name]}: (expanded, path_cost, peak) "
                              f"{sorted(readings[name])}")
            (expanded, _, _), *_ = readings[name]
            print(_row(labels[name], expanded, a, b))
        sums = [[sum(t[side][r] for t in times.values()) for r in range(args.rounds)]
                for side in (0, 1)]
        print(_row("summed", None, *sums))
    readings, times = compare_repairs(trees, args.rounds)
    print(f"\nrepair path, {INSTANCES[0][0]}, {REPAIR_EVENTS} events\n{HEADER}")
    for name, (a, b) in times.items():
        runs = sorted(readings[name])
        if len(runs) > 1:
            event = next(e for e, reads in enumerate(zip(*runs)) if len(set(reads)) > 1)
            differ.append(f"repair path, {labels[name]}: search {event} (expanded, path_cost) "
                          f"{sorted({run[event] for run in runs})}")
        (first, _), *repairs = runs[0]
        for phase, col, expanded in (("initial", 0, first),
                                     ("repair", 1, sum(e for e, _ in repairs))):
            print(_row(f"{labels[name]} {phase}", expanded,
                       [t[col] for t in a], [t[col] for t in b]))
    for line in differ:
        print(f"DIFFER: {line}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
