#!/usr/bin/env python3
"""Compare the solvers of two source trees, solve by solve, in one process.

Loads the ``gridbench`` package of each tree (``TREE/src/gridbench``)
under its own module name and builds the two reference instances of aim 1
in ROADMAP.md with each tree's own generators (the 300x300 random grid:
density 0.25, start-goal distance 140, seed 0; the 7-wall, length-21 wall
grid).  Then, round by round, it runs every job on both trees,
alternating which tree goes first; each run follows a ``gc.collect()``.
The jobs:

- each instance solved with every ``AlgorithmId``, timed by its own
  ``solve_time_ms``;
- the repair path, which the benchmark's ``replan_ref300`` pools into one
  median over all events: LPA*, D* and D* Lite each search the reference
  grid, then repair it after each of ``REPAIR_EVENTS`` toggles near the
  middle of the current path (see ``replay``);
- a draw of the reference grid by ``generate_random_grid``.

Prints, per instance and solver, the expansions, each tree's median ms
and us per expansion, the ratio of the medians and the median of the
per-round ratios (B over A); the last row per instance sums the solvers.
Per planner it prints the first search ("initial") and the summed
repairs ("repair"), and last the draw ("generate"), in the same columns.

Exits 1 when ``expanded``, ``path_cost`` or ``peak_memory_bytes`` differ
between the trees (or between rounds) on any solver and instance, when any
replay search's expansions or path cost differ, or when the generated
reference grids' flags, start or goal differ: timing solvers that do
different work compares nothing.  Exits 2, before any run, when a tree's
incremental planners have no ``plan(position)``.

Usage:
    python scripts/ab_solvers.py TREE_A TREE_B [--rounds N]
"""

import argparse
import gc
import hashlib
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
REPAIR_EVENTS = 12
PLANNERS = {"LPA_STAR": "LpaStarPlanner", "D_STAR": "DStarPlanner",
            "D_STAR_LITE": "DStarLitePlanner"}
REPAIRS = f"repair path, {INSTANCES[0][0]}, {REPAIR_EVENTS} events"
GENERATOR = f"generator, {INSTANCES[0][0]}"


def load_tree(root: str, name: str):
    """Import ``root/src/gridbench`` as the package ``name``."""
    pkg = os.path.join(os.path.abspath(root), "src", "gridbench")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def solve(gb, grid, name):
    """One solve: its (expanded, path_cost, peak) and ms."""
    out = gb.solve(grid, gb.AlgorithmId[name])
    return (out.expanded, out.path_cost, out.peak_memory_bytes), out.solve_time_ms


def replay(gb, grid, name):
    """One run of the repair script: per search, its (expanded, path cost); the ms summed.

    The first search, then one toggle and repair per event, all through
    ``set_blocked`` and ``plan``.  Events 3, 7 and 11 unblock the oldest
    cell still blocked; the others block the middle cell of the current
    path.  D* and D* Lite first move the agent two steps along that path,
    by ``plan(path[2])``, before events 1, 4, 7 and 10; the move is not
    timed, and its expansions count in the event's.  A search's time
    covers the planner's construction (the first), or the toggle (a
    repair), up to the returned path.  Returns the readings and the
    (first, summed repair) ms.
    """
    pos, blocked, readings, ms = grid.start, [], [], []
    t0 = time.perf_counter()
    planner = getattr(gb, PLANNERS[name])(grid)
    for event in range(REPAIR_EVENTS + 1):
        before = planner.expanded
        if event:
            if name != "LPA_STAR" and event % 3 == 1:
                pos = path[2]
                path = planner.plan(pos)
            if event % 4 == 3:
                cell, flag = blocked.pop(0), False
            else:
                cell, flag = path[len(path) // 2], True
                blocked.append(cell)
            t0 = time.perf_counter()
            planner.set_blocked(cell, flag)
        path = planner.plan(pos)
        ms.append(1000 * (time.perf_counter() - t0))
        readings.append((planner.expanded - before, gb.path_cost_of(path)))
    return tuple(readings), (ms[0], sum(ms[1:]))


def generate(gb):
    """One draw of the reference grid: its (flags sha256, start, goal) and ms."""
    t0 = time.perf_counter()
    grid = INSTANCES[0][1](gb)
    ms = 1000 * (time.perf_counter() - t0)
    return (hashlib.sha256(grid.flags).hexdigest()[:12], tuple(grid.start), tuple(grid.goal)), ms


def alternate(jobs, rounds: int):
    """Run each job on both trees, round by round, alternating which tree goes first.

    ``jobs`` maps a key to ``job(side) -> (reading, time)``.  Returns, per
    key, the set of its readings and both trees' lists of times.
    """
    readings = {key: set() for key in jobs}
    times = {key: ([], []) for key in jobs}
    for r in range(rounds):
        for i, (key, job) in enumerate(jobs.items()):
            for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                gc.collect()
                reading, t = job(side)
                readings[key].add(reading)
                times[key][side].append(t)
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
                    help="solves per tree, solver and instance; replays per tree and planner; "
                         "reference-grid draws per tree")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error(f"--rounds must be >= 1, got {args.rounds}")
    roots = [os.path.abspath(args.tree_a), os.path.abspath(args.tree_b)]
    trees = [load_tree(roots[0], "gridbench_a"), load_tree(roots[1], "gridbench_b")]
    for root, gb in zip(roots, trees):
        if not all(hasattr(getattr(gb, cls), "plan") for cls in PLANNERS.values()):
            print(f"{root}: its incremental planners have no plan(position)", file=sys.stderr)
            return 2
    labels = {a.name: a.label for a in trees[0].AlgorithmId}
    grids = {title: [build(gb) for gb in trees] for title, build in INSTANCES}
    jobs = {(title, name): lambda side, pair=pair, name=name: solve(trees[side], pair[side], name)
            for title, pair in grids.items() for name in labels}
    reference = grids[INSTANCES[0][0]]
    jobs.update({(REPAIRS, name): lambda side, name=name: replay(trees[side], reference[side], name)
                 for name in PLANNERS})
    jobs[GENERATOR, "generate"] = lambda side: generate(trees[side])
    readings, times = alternate(jobs, args.rounds)
    differ = []
    print(f"A: {roots[0]}\nB: {roots[1]}\n"
          f"{args.rounds} round(s); medians in ms; ratios are B/A")
    for title, _ in INSTANCES:
        print(f"\n{title}\n{HEADER}")
        for name in labels:
            runs, (a, b) = readings[title, name], times[title, name]
            if len(runs) > 1:
                differ.append(f"{title}, {labels[name]}: (expanded, path_cost, peak) "
                              f"{sorted(runs)}")
            (expanded, _, _), *_ = runs
            print(_row(labels[name], expanded, a, b))
        sums = [[sum(times[title, name][side][r] for name in labels) for r in range(args.rounds)]
                for side in (0, 1)]
        print(_row("summed", None, *sums))
    print(f"\n{REPAIRS}\n{HEADER}")
    for name in PLANNERS:
        runs, (a, b) = sorted(readings[REPAIRS, name]), times[REPAIRS, name]
        if len(runs) > 1:
            event = next(e for e, reads in enumerate(zip(*runs)) if len(set(reads)) > 1)
            differ.append(f"repair path, {labels[name]}: search {event} (expanded, path_cost) "
                          f"{sorted({run[event] for run in runs})}")
        (first, _), *repairs = runs[0]
        for phase, col, expanded in (("initial", 0, first),
                                     ("repair", 1, sum(e for e, _ in repairs))):
            print(_row(f"{labels[name]} {phase}", expanded,
                       [t[col] for t in a], [t[col] for t in b]))
    runs, (a, b) = readings[GENERATOR, "generate"], times[GENERATOR, "generate"]
    print(f"\n{GENERATOR}\n{HEADER}\n{_row('generate', None, a, b)}")
    if len(runs) > 1:
        differ.append(f"{GENERATOR}: (flags sha256, start, goal) {sorted(runs)}")
    for line in differ:
        print(f"DIFFER: {line}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
