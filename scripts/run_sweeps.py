#!/usr/bin/env python3
"""Run the five benchmark sweeps and write CSV + SVG reports.

A front end to ``gridbench sweep``.  With no plan it runs the paper
protocol (sizes up to 300x300, 10 instances, 100 reps), which takes hours;
--quick runs scripts/quick.cfg, a scaled-down version of the same plan, in
1.0-1.5 s on a 2-vCPU VM.  A plan sets its seed with ``seed=``.

Usage:
    python scripts/run_sweeps.py --out results [--quick]
    python scripts/run_sweeps.py --config my_plan.cfg
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from gridbench.cli import main as gridbench_main  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default=None,
                    help="output directory (default: the plan's output_dir, else results)")
    ap.add_argument("--config", default=None, help="run plan file (overrides --quick)")
    ap.add_argument("--quick", action="store_true", help="run scripts/quick.cfg")
    args = ap.parse_args()

    # an empty plan is the paper protocol
    plan = args.config or (os.path.join(HERE, "quick.cfg") if args.quick else os.devnull)
    argv = ["sweep", plan]
    if args.out:
        argv += ["--output-dir", args.out]
    return gridbench_main(argv)


if __name__ == "__main__":
    sys.exit(main())
