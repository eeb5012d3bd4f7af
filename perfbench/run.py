#!/usr/bin/env python3
"""gridbench's performance benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; gridbench is imported from ``src/``.
Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
workloads themselves are in ``workloads.py``.

``--trace 0`` sets up the workload (inputs from the seed) and repeats passes
of its fixed work for about ``--seconds``, setting up again between passes.
``setup_s`` is the median time of gridbench's set-up calls (grid generation,
plan parsing), each set-up divided by the speed reference (speedref.py)
sampled around it and scaled back to seconds at the reference's nominal
time.  ``work_rel`` is one pass's time in units of the
speed reference: each timed operation divided by the reference samples taken
just before and after it, its median over the passes, summed.  The garbage collector
runs before every set-up and pass, outside the timed regions.

``--trace 1`` runs untraced passes, then traced passes that count calls at
the hot module boundaries, then the module microbenchmarks and a per-solver
profile on the workload's reference instance, and reports every per-layer
metric.

Outputs are checked outside the timed regions: every path must be a legal
chain to the goal and optimal-family costs must equal ``astar_oracle``.
Each line of stdout names a metric with its value and unit; the last line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A result file with provenance, detail timings and the
deterministic counters goes to ``.perfbench/`` (or ``--out``); compare two
of them with ``perfbench/compare.py``.  The exit code is non-zero when any
operation failed or a check did not hold.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_GAPS = 5         # set-up gaps per untraced run
SETUP_GAP_S = 0.3      # a gap repeats a short set-up for about this long,
SETUP_BATCH_S = 0.005  # sampling the speed reference after each batch this long
UNTRACED_SHARE = 0.4   # of --seconds, in a traced run
TRACED_SHARE = 0.3


def _load_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gridbench", "__init__.py")):
        raise SystemExit(f"gridbench sources not found under {src}")
    sys.path[:0] = [src, HERE]
    import gridbench
    if not os.path.abspath(gridbench.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported gridbench from {gridbench.__file__}, not from {src}")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _git_revision():
    # the ceiling keeps git from reading, or reporting, a repository above ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    base = os.path.join(ROOT, "src", "gridbench")
    for dirpath, dirnames, filenames in sorted(os.walk(base)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance(args, loadavg):
    return {
        "git_revision": _git_revision(),
        "src_sha256": _source_digest(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_start": list(loadavg),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def timed_passes(wl, budget_s: float, speed, between=None) -> list:
    """Passes of ``wl`` for about ``budget_s``: at least one, and another only
    when it should end within the budget.  ``between`` runs between passes.
    Each pass carries the speed-reference samples taken while it ran."""
    passes = []
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        gc.collect()
        speed.begin()
        passes.append(wl.run_pass(speed.tick))
        passes[-1].ref_s = speed.end()
        passes[-1].ref_samples = speed.samples
        if time.perf_counter() - t_start + (time.perf_counter() - t0) > budget_s:
            return passes
        if between is not None:
            between()


def _verify(wl, passes):
    from workloads import compare_outputs
    failures = [f for p in passes for f in p.failures]
    failures += wl.check(passes[0])
    for p in passes[1:]:
        failures += compare_outputs(p, passes[0])
    return failures


def _detail(passes):
    """Median (and p90 with at least ten samples beyond it) of each timed operation."""
    merged = {}
    for p in passes:
        for name, values in p.op_ms.items():
            merged.setdefault(name, []).extend(values)
    out = {}
    for name, values in sorted(merged.items()):
        entry = {"n": len(values), "median_ms": statistics.median(values)}
        if len(values) >= 100:
            entry["p90_ms"] = statistics.quantiles(values, n=10)[-1]
        out[name] = entry
    return out


def run_untraced(wl, args, speed):
    from speedref import NOMINAL_S
    from workloads import work_estimate

    setup, setup_rel, gaps = [], [], []

    def timed_setup():
        # repeated between passes, so the median samples the whole run; a
        # set-up far shorter than the reference is timed in batches, each
        # divided by the samples on either side, to follow the machine closely
        if len(gaps) >= SETUP_GAPS:
            return
        gc.collect()
        t_gap = time.perf_counter()
        ref0 = speed.sample()
        gaps.append(0)
        while not gaps[-1] or time.perf_counter() - t_gap < SETUP_GAP_S:
            batch = []
            while not batch or sum(batch) < SETUP_BATCH_S:
                wl.cleanup()
                batch.append(wl.setup(args.seed))
            ref1 = speed.sample()
            setup.extend(batch)
            setup_rel.extend(dt * 2 / (ref0 + ref1) for dt in batch)
            gaps[-1] += len(batch)
            ref0 = ref1

    timed_setup()
    passes = timed_passes(wl, args.seconds, speed, between=timed_setup)
    metrics = {
        "setup_s": NOMINAL_S * statistics.median(setup_rel),
        "work_rel": work_estimate(passes, relative=True),
    }
    info = {"setup_repeats": gaps, "setup_raw_s": statistics.median(setup),
            "passes": len(passes)}
    return metrics, passes, info, {}


def run_traced(wl, args, speed):
    import tracing
    from checks import outcome_error
    from gridbench.solvers import AlgorithmId
    from workloads import OPTIMAL, work_estimate

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl.setup(args.seed)
    finally:
        tracer.uninstall()
    setup_solvable = list(tracer.solvable)
    untraced = timed_passes(wl, args.seconds * UNTRACED_SHARE, speed)

    tracer.reset_counts()
    tracer.install()
    try:
        t_start = time.perf_counter()
        traced = timed_passes(wl, 0.0, speed)
        totals = tracer.totals()
        solvable = [a + b for a, b in zip(setup_solvable, tracer.solvable)]
        jobs, duplicates = tracer.jobs, tracer.duplicate_jobs
        spans = [list(s) for s in tracer.spans]
        first = time.perf_counter() - t_start
        if args.seconds * TRACED_SHARE - first > first:  # room for another traced pass
            traced += timed_passes(wl, args.seconds * TRACED_SHARE - first, speed)
    finally:
        tracer.uninstall()

    grid = wl.reference_grid
    micro = tracing.microbenchmarks(grid, args.seed, _scratch_dir())
    profile, outcomes = tracing.solver_profile(grid, tracing.Tracer(), micro)
    blocked = {(c[0], c[1]) for c in grid.blocked}
    best = outcomes[AlgorithmId.ASTAR_ORACLE].path_cost
    profile_failures = [
        f"profile {algo.value}: {err}" for algo, out in outcomes.items()
        if (err := outcome_error(grid, blocked, out.path, out.path_cost, best, algo in OPTIMAL))]

    est = tracing.estimated_layer_ms(totals, micro)
    counters = wl.counters(untraced[0])
    repair = {a: sum(v for k, v in counters.items()
                     if f".{a}.event" in k and k.endswith(".expanded"))
              for a in ("LPA_STAR", "D_STAR", "D_STAR_LITE")}
    metrics = {
        "grid.neighbor_calls": totals["neighbor_calls"],
        "grid.busy_ms": est["grid"],
        "pqueue.push": totals["push"],
        "pqueue.pop": totals["pop"],
        "pqueue.remove": totals["remove"],
        "pqueue.stale_pops": totals["stale_pops"],
        "pqueue.useful_pop_ratio": totals["pop"] / max(1, totals["pop"] + totals["stale_pops"]),
        "pqueue.busy_ms": est["pqueue"],
        "instrumentation.alloc_calls": totals["alloc_calls"],
        "instrumentation.free_calls": totals["free_calls"],
        "instrumentation.trackedmap_ops": totals["trackedmap_ops"],
        "instrumentation.busy_ms": est["instrumentation"],
        "solvers.expansions": totals["expansions"],
        "generators.is_solvable_calls": sum(solvable),
        "generators.solvable_ratio": solvable[0] / max(1, sum(solvable)),
        "metrics.measure_run_calls": len([s for s in spans if s[0] == "measure_run"]),
        "experiments.jobs": jobs,
        "experiments.duplicate_grid_jobs": duplicates,
        "tracing.overhead_frac": (work_estimate(traced, relative=True)
                                  / work_estimate(untraced, relative=True) - 1.0),
    }
    metrics.update({f"solvers.repair_expanded.{a}": n for a, n in repair.items()})
    counts = {f"trace.{k}": v for k, v in metrics.items() if isinstance(v, int)}
    metrics.update(micro)
    metrics.update(profile)
    counts.update({f"trace.{k}": v for k, v in profile.items() if isinstance(v, int)})
    passes = untraced + traced
    info = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
    return metrics, passes, info, {"spans": spans, "profile_failures": profile_failures,
                                   "profile_attempted": len(outcomes), "counters": counts}


def _scratch_dir():
    path = os.path.join(ROOT, ".perfbench", f"tmp-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="result file (default: .perfbench/...)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    spec = _spec()
    _load_program()
    loadavg = os.getloadavg()
    from speedref import SpeedReference
    from workloads import make_workloads, work_estimate

    scratch = _scratch_dir()
    workloads = make_workloads(scratch)
    if args.workload not in workloads:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    wl = workloads[args.workload]
    try:
        speed = SpeedReference()
        if args.trace:
            metrics, passes, info, extra = run_traced(wl, args, speed)
        else:
            metrics, passes, info, extra = run_untraced(wl, args, speed)
        info["work_s"] = work_estimate(passes[:info.get("untraced_passes", len(passes))])
        info["pass_work_s"] = [p.work_s for p in passes]
        info["pass_reference_ms"] = [p.ref_s * 1000.0 for p in passes]
        failures = _verify(wl, passes) + extra.get("profile_failures", [])
    finally:
        wl.cleanup()
        shutil.rmtree(scratch, ignore_errors=True)
    attempted = sum(p.attempted for p in passes) + extra.get("profile_attempted", 0)
    failed = min(len(failures), attempted)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    shown = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    detail = _detail(passes)

    result = {
        "provenance": dict(provenance(args, loadavg), **info),
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures[:50],
        "metrics": shown,
        "detail_ms": detail,
        "counters": dict(wl.counters(passes[0]), **extra.get("counters", {})),
    }
    if args.trace:
        result["spans"] = extra["spans"]
    out_path = args.out or os.path.join(
        ROOT, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)

    for name, m in shown.items():
        print(f"{name:<44} {m['value']:>16.6f} {m['unit']}")
    print(f"{'work_s (untraced, not normalised)':<44} {info['work_s']:>16.6f} s")
    print(f"{'failed_frac':<44} {failed / attempted:>16.6f} 1  ({failed} of {attempted})")
    for name, d in detail.items():
        p90 = f"  p90 {d['p90_ms']:.3f}" if "p90_ms" in d else ""
        print(f"detail {name:<37} {d['median_ms']:>16.3f} ms  n={d['n']}{p90}")
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
