#!/usr/bin/env python3
"""Audit the selection rule against measured metrics.

Generates a handful of random and wall environments, benchmarks the
candidate trio (RTAA*, ARA*, D* Lite) on each, and prints one block per
grid showing the per-priority winner, what the rule would have picked
instead, and every candidate's measurements from the solving-time
evaluation (the one whose times decided that verdict).  The solving-time
line also names the runner-up and how far its mean lies above the
winner's, and says "within noise" when that gap is below the larger of
the two candidates' standard deviations: one rerun may then reverse it.

Usage:
    python scripts/selection_table.py [--reps N] [--seed N]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gridbench import (  # noqa: E402
    Priority,
    RandomGridSpec,
    SelectionRequest,
    WallGridSpec,
    evaluate_selection,
    generate_random_grid,
    generate_wall_grid,
)
from gridbench.grid import BLOCKED  # noqa: E402
from gridbench.reporting import fmt3  # noqa: E402


def time_margin(ev):
    """The runner-up, the winner's relative lead and whether it is within noise."""
    stats = {c.algorithm: c.stats["solve_time_ms"] for c in ev.candidates}
    best = stats[ev.best]
    runner_up = min((a for a in stats if a is not ev.best), key=lambda a: stats[a].mean)
    second = stats[runner_up]
    gap = second.mean - best.mean
    noise = " within noise" if gap < max(best.stddev, second.stddev) else ""
    return f" runner-up {runner_up.label} +{100 * gap / best.mean:.1f}%{noise}"


def describe(name, grid, reps):
    print(f"== {name}: {grid.width}x{grid.height}, "
          f"{grid.flags.count(BLOCKED)} blocked, start {tuple(grid.start)} goal {tuple(grid.goal)}")
    header = f"{'priority':<12} {'suggested':<12} {'winner':<12} {'correct':<8} margin"
    print(header)
    evaluations = {}
    for priority in Priority:
        req = SelectionRequest(grid=grid, priority=priority)
        # memory and path cost repeat exactly, so one run decides them
        ev = evaluations[priority] = evaluate_selection(
            req, reps=reps if priority is Priority.SOLVING_TIME else 1)
        print(f"{priority.name:<12} {ev.selected.label:<12} {ev.best.label:<12} "
              f"{str(ev.selected_is_best).lower():<8}"
              f"{time_margin(ev) if priority is Priority.SOLVING_TIME else ''}")
    print(f"{'candidate':<12} {'path_cost':>10} {'memory_kb':>10} {'time_ms':>10}")
    for cand in evaluations[Priority.SOLVING_TIME].candidates:
        print(f"{cand.algorithm.label:<12} "
              f"{fmt3(cand.stats['path_cost'].mean):>10} "
              f"{fmt3(cand.stats['memory_kb'].mean):>10} "
              f"{fmt3(cand.stats['solve_time_ms'].mean):>10}")
    print()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    base = args.seed
    cases = [
        ("random d=0.35 n=100", generate_random_grid(
            RandomGridSpec(n=100, density=0.35, sg_distance=43, seed=base))),
        ("random d=0.25 n=100", generate_random_grid(
            RandomGridSpec(n=100, density=0.25, sg_distance=38, seed=base + 1))),
        ("random d=0.35 n=100 short", generate_random_grid(
            RandomGridSpec(n=100, density=0.35, sg_distance=36, seed=base + 2))),
        ("walls 6x25", generate_wall_grid(WallGridSpec(num_walls=6, wall_length=25))),
        ("walls 6x16", generate_wall_grid(WallGridSpec(num_walls=6, wall_length=16))),
    ]
    for name, grid in cases:
        describe(name, grid, args.reps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
