#!/usr/bin/env python3
"""Run the five benchmark sweeps and write CSV + SVG reports.

Full scale (paper protocol: sizes up to 300x300, 10 instances, 100 reps)
takes hours; --quick runs a scaled-down version of the same plan in a
couple of minutes.

Usage:
    python scripts/run_sweeps.py --out results [--quick] [--seed N]
    python scripts/run_sweeps.py --config my_plan.cfg
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gridbench.experiments import (  # noqa: E402
    FixedParams,
    SweepConfig,
    SweepKind,
    default_sweeps,
    run_sweep,
)
from gridbench.reporting import parse_config, render_plots, write_csv  # noqa: E402

QUICK_VALUES = {
    SweepKind.GRID_SIZE: (20, 30, 40),
    SweepKind.SG_DISTANCE: (8, 16, 24),
    SweepKind.DENSITY: (0.1, 0.2, 0.3),
    SweepKind.WALL_COUNT: (0, 2, 4),
    SweepKind.WALL_LENGTH: (15, 19, 23),
}


def quick_sweeps(seed: int):
    fixed = FixedParams(density=0.25, size=40, sg_distance=25.0)
    return [
        SweepConfig(kind=kind, values=QUICK_VALUES[kind], fixed=fixed,
                    instances_per_point=3, reps=5, seed=seed)
        for kind in SweepKind
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None,
                    help="output directory (default: the plan's output_dir, else results)")
    ap.add_argument("--config", default=None, help="run plan file (overrides --quick/--seed)")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    if args.config:
        plan = parse_config(args.config)
        sweeps, out_dir = plan.sweeps, plan.output_dir
    elif args.quick:
        sweeps, out_dir = quick_sweeps(args.seed), "results"
    else:
        sweeps, out_dir = default_sweeps(seed=args.seed), "results"
    out_dir = args.out or out_dir

    os.makedirs(out_dir, exist_ok=True)
    for cfg in sweeps:
        t0 = time.perf_counter()
        report = run_sweep(cfg)
        csv_path = os.path.join(out_dir, f"{cfg.kind.value}.csv")
        rows = write_csv(report, csv_path)
        plots = render_plots(report, out_dir)
        dt = time.perf_counter() - t0
        print(f"{cfg.kind.value}: {rows} rows, {len(plots)} plots ({dt:.1f}s)")
    print(f"reports in {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
