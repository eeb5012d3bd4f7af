"""The benchmark's three workloads.

Each workload drives gridbench's public API in one process, with no worker
pool.  ``setup`` builds the inputs from the benchmark seed and returns the
time spent in gridbench's set-up calls, ``run_pass`` performs one pass of
fixed work and times only the calls into gridbench,
``check`` verifies a pass's outputs outside any timed region, and
``counters`` lists the deterministic counts a pass produced.  ``run_pass``
calls ``tick`` after each timed operation (the runner samples its speed
reference there).  Every pass of one run repeats the same work, so later
passes are compared for equality with the first, fully checked one.

Program calls go through module attributes (``gsolvers.solve``,
``gexperiments.run_sweep``, ...) so that the traced run can wrap them.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field

import gridbench.experiments as gexperiments
import gridbench.generators as ggenerators
import gridbench.reporting as greporting
import gridbench.solvers as gsolvers
from gridbench.grid import Grid
from gridbench.solvers import AlgorithmId

from checks import chain_cost, legal_steps, outcome_error, path_error, same_cost

# The ROADMAP reference instance: 300x300, density 0.25, start-goal 140, seed 0.
REF_SPEC = ggenerators.RandomGridSpec(n=300, density=0.25, sg_distance=140.0, seed=0)

OPTIMAL = (AlgorithmId.ASTAR_ORACLE, AlgorithmId.ARA_STAR, AlgorithmId.LPA_STAR,
           AlgorithmId.D_STAR, AlgorithmId.D_STAR_LITE)
PLANNERS = (AlgorithmId.LPA_STAR, AlgorithmId.D_STAR, AlgorithmId.D_STAR_LITE)
INSTANCE_LABELS = ("ref300", "seeded")


@dataclass
class PassResult:
    ops: dict = field(default_factory=dict)       # operation key -> seconds in gridbench
    attempted: int = 0
    failures: list = field(default_factory=list)  # one message per failed operation
    outputs: list = field(default_factory=list)   # deterministic outputs, compared across passes
    op_ms: dict = field(default_factory=dict)     # detail timings: name -> [ms, ...]
    raw: list = field(default_factory=list)       # what the check needs beyond the outputs
    tick: object = None                           # called after every timed operation
    ref_s: float = 1.0                            # speed-reference time during the pass
    ref_samples: list = field(default_factory=list)  # the pass's speed-reference samples
    op_sample: dict = field(default_factory=dict)    # operation key -> last sample before it

    def time_op(self, key: str, name: str, seconds: float) -> None:
        self.ops[key] = seconds
        self.op_ms.setdefault(name, []).append(seconds * 1000.0)
        if self.tick is not None:
            self.op_sample[key] = self.tick()

    def op_ref(self, key: str) -> float:
        """Speed-reference time around one operation: the samples on either side."""
        i = self.op_sample.get(key)
        if i is None or i + 1 >= len(self.ref_samples):
            return self.ref_s
        return (self.ref_samples[i] + self.ref_samples[i + 1]) / 2

    @property
    def work_s(self) -> float:
        return sum(self.ops.values())


def work_estimate(passes, relative: bool = False) -> float:
    """Time of one pass: each operation's median over the passes, summed.

    Robust to a burst of machine noise that slows part of one pass.  With
    ``relative`` each operation is first divided by the speed-reference
    samples taken just before and after it (see speedref.py).
    """
    keys = {k for p in passes for k in p.ops}
    return sum(statistics.median(p.ops[k] / (p.op_ref(k) if relative else 1.0)
                                 for p in passes if k in p.ops) for k in keys)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def symmetric_image(grid, k: int):
    """One of the eight rotations/reflections of a square grid (k = 0 is itself).

    An image poses the same search problem in other coordinates, so the
    amount of search barely depends on k, while the cells, the neighbour
    order around obstacles and the start/goal placement all change.
    """
    n = grid.width

    def tf(c):
        x, y = c[0], c[1]
        if k & 4:
            x, y = y, x
        if k & 1:
            x = n - 1 - x
        if k & 2:
            y = n - 1 - y
        return (x, y)

    return Grid(n, grid.height, frozenset(tf(c) for c in grid.blocked), tf(grid.start),
                tf(grid.goal), grid.allow_corner_cutting)


def _blocked_set(grid) -> set:
    return {(c[0], c[1]) for c in grid.blocked}


def compare_outputs(result: PassResult, ref: PassResult) -> list:
    """Failures for the outputs of a later pass that differ from the first pass."""
    if len(result.outputs) != len(ref.outputs):
        return [f"pass produced {len(result.outputs)} outputs, first pass {len(ref.outputs)}"]
    return [f"output {i} differs from the first pass: {a[0]}"
            for i, (a, b) in enumerate(zip(result.outputs, ref.outputs)) if a != b]


class _ReferenceInstances:
    """The ROADMAP reference grid and one seeded image of it."""

    def setup(self, seed: int) -> float:
        ref, dt = _timed(ggenerators.generate_random_grid, REF_SPEC)
        # the seeded instance is one of the seven other images of the reference
        # grid: a fresh random draw changes the number of expansions by up to a
        # quarter, which no bound on a single run could absorb
        self.grids = [ref, symmetric_image(ref, 1 + seed % 7)]
        self._blocked = None
        return dt

    @property
    def blocked(self) -> list:
        """The grids' blocked cells as plain tuples, built once, outside set-up."""
        if self._blocked is None:
            self._blocked = [_blocked_set(g) for g in self.grids]
        return self._blocked

    @property
    def reference_grid(self):
        return self.grids[0]

    def cleanup(self) -> None:
        pass


# ---------------------------------------------------------------------------
# static_ref300: one-shot search on large maps
# ---------------------------------------------------------------------------

class StaticRef300(_ReferenceInstances):
    name = "static_ref300"

    def run_pass(self, tick=None) -> PassResult:
        res = PassResult(tick=tick)
        for gi, grid in enumerate(self.grids):
            for algo in AlgorithmId:
                res.attempted += 1
                label = f"{INSTANCE_LABELS[gi]}.{algo.value}"
                try:
                    out, dt = _timed(gsolvers.solve, grid, algo)
                except Exception as exc:  # a failed solve is counted, not fatal
                    res.failures.append(f"{label}: {exc!r}")
                    continue
                res.time_op(label, f"solve_ms.{label}", dt)
                res.outputs.append((label, gi, algo, out.path, out.path_cost,
                                    out.expanded, out.peak_memory_bytes))
        return res

    def check(self, res: PassResult) -> list:
        failures = []
        oracle = {gi: cost for _, gi, algo, _, cost, _, _ in res.outputs
                  if algo is AlgorithmId.ASTAR_ORACLE}
        for label, gi, algo, path, cost, expanded, peak in res.outputs:
            if gi not in oracle:
                err = "no astar_oracle result for this instance"
            else:
                err = outcome_error(self.grids[gi], self.blocked[gi], path, cost, oracle[gi],
                                    algo in OPTIMAL)
            if err is None and (expanded < 1 or peak < 1):
                err = f"expanded={expanded} peak_memory_bytes={peak}"
            if err:
                failures.append(f"{label}: {err}")
        return failures

    def counters(self, res: PassResult) -> dict:
        return {f"{label}.{key}": value
                for label, _, _, _, cost, expanded, peak in res.outputs
                for key, value in (("path_cost", cost), ("expanded", expanded),
                                   ("peak_memory_bytes", peak))}


# ---------------------------------------------------------------------------
# sweep_quick: the sweep traffic users run, scaled down
# ---------------------------------------------------------------------------

# Every sweep kind, the six default algorithms, small random grids and the
# 31x71 wall grids.  Two instances per point keep the wall sweeps' repeated
# grid on the path.  Real-time episodes on wall grids dominate (the stock
# quick plan spends 137 of its 143 s there on a 2-vCPU x86-64 VM), so each
# wall sweep has one point and one repetition (plus the harness's warm-up):
# a pass takes 6-8 s on that machine.
QUICK_PLAN = """\
seed = {seed}
reps = 1
instances_per_point = 2
output_dir = {out}
size = 30
sg_distance = 20
grid_size.values = 20, 30
sg_distance.values = 8, 16
density.values = 0.1, 0.3
wall_count.values = 3
wall_length.values = 15
"""


class SweepQuick:
    name = "sweep_quick"

    def __init__(self, scratch_dir: str):
        self.scratch_dir = scratch_dir
        self._optima = {}

    def setup(self, seed: int) -> float:
        """Write the plan and parse it; run_sweep builds the grids itself."""
        self.cleanup()
        self.dir = os.path.join(self.scratch_dir, f"sweep-{os.getpid()}")
        os.makedirs(self.dir)
        self.out_dir = os.path.join(self.dir, "out")
        self.plan_path = os.path.join(self.dir, "plan.cfg")
        with open(self.plan_path, "w", encoding="utf-8") as fh:
            fh.write(QUICK_PLAN.format(seed=seed, out=self.out_dir))
        return _timed(greporting.parse_config, self.plan_path)[1]

    @property
    def reference_grid(self):
        # the ROADMAP's second reference instance: 7 walls of length 21
        return ggenerators.generate_wall_grid(ggenerators.WallGridSpec(7, 21))

    def _optimum(self, cfg, index: int, value) -> float:
        """Mean astar_oracle cost over one point's instances.

        The instances are rebuilt from the sweep's documented recipe: wall
        grids from their spec, random ones as ``generate_instance_set`` from
        seed ``cfg.seed + index * instances_per_point``, with the fixed
        start-goal distance capped at n - 1.
        """
        key = (cfg, index)
        if key in self._optima:
            return self._optima[key]
        kind, fixed = gexperiments.SweepKind, cfg.fixed
        if cfg.kind in (kind.WALL_COUNT, kind.WALL_LENGTH):
            if cfg.kind is kind.WALL_COUNT:
                spec = ggenerators.WallGridSpec(int(value), gexperiments.WALL_GRID_DEFAULT_LENGTH)
            else:
                spec = ggenerators.WallGridSpec(7, int(value))
            grids = [ggenerators.generate_wall_grid(spec, cfg.allow_corner_cutting)]
        else:
            if cfg.kind is kind.GRID_SIZE:
                n, density, sg = int(value), fixed.density, min(fixed.sg_distance, value - 1.0)
            elif cfg.kind is kind.DENSITY:
                n, density = fixed.size, float(value)
                sg = min(fixed.sg_distance, fixed.size - 1.0)
            else:
                n, density, sg = fixed.size, fixed.density, float(value)
            spec = ggenerators.RandomGridSpec(n=n, density=density, sg_distance=sg,
                                              seed=cfg.seed + index * cfg.instances_per_point)
            grids = ggenerators.generate_instance_set(spec, cfg.instances_per_point,
                                                      cfg.allow_corner_cutting)
        costs = [gsolvers.astar_oracle(g).path_cost for g in grids]
        self._optima[key] = sum(costs) / len(costs)
        return self._optima[key]

    def run_pass(self, tick=None) -> PassResult:
        res = PassResult(tick=tick)
        try:
            plan, dt = _timed(greporting.parse_config, self.plan_path)
        except Exception as exc:
            res.attempted += 1
            res.failures.append(f"parse_config: {exc!r}")
            return res
        res.time_op("parse_config", "parse_config_ms", dt)
        os.makedirs(plan.output_dir, exist_ok=True)
        for cfg in plan.sweeps:
            expected = len(cfg.values) * len(cfg.algorithms)
            res.attempted += expected
            kind = cfg.kind.value
            try:
                report, dt_run = _timed(gexperiments.run_sweep, cfg)
                csv_path = os.path.join(plan.output_dir, f"{kind}.csv")
                rows, dt_csv = _timed(greporting.write_csv, report, csv_path)
                plots, dt_plot = _timed(greporting.render_plots, report, plan.output_dir)
            except Exception as exc:
                res.failures.extend(f"{kind}: {exc!r}" for _ in range(expected))
                continue
            res.time_op(f"run_sweep.{kind}", f"run_sweep_ms.{kind}", dt_run)
            res.time_op(f"write_csv.{kind}", "write_csv_ms", dt_csv)
            res.time_op(f"render_plots.{kind}", "render_plots_ms", dt_plot)
            with open(csv_path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            plot_sizes = tuple(os.path.getsize(p) if os.path.exists(p) else 0 for p in plots)
            # the solving-time column is the only one allowed to vary between passes
            stable = tuple(line.rsplit(",", 1)[0] for line in lines)
            res.outputs.append((kind, stable, rows, expected, len(plot_sizes)))
            res.raw.append((cfg, report, rows, lines, plot_sizes))
        return res

    def check(self, res: PassResult) -> list:
        failures = []
        header = ",".join(greporting.CSV_COLUMNS)
        for cfg, report, rows, lines, plot_sizes in res.raw:
            kind = cfg.kind.value
            expected = len(cfg.values) * len(cfg.algorithms)
            if rows != expected or len(lines) != expected + 1 or lines[0] != header:
                failures.extend(f"{kind}: csv has {len(lines) - 1} rows (write_csv said {rows}), "
                                f"expected {expected}" for _ in range(expected))
                continue
            if len(plot_sizes) != 3 or min(plot_sizes) == 0:
                failures.append(f"{kind}: plots {plot_sizes}")
            for index, value in enumerate(cfg.values):
                point = [r for r in report.rows if r.value == value]
                costs = {r.algorithm: r.stats["path_cost"].mean for r in point}
                best = self._optimum(cfg, index, value)
                for r in point:
                    err = None
                    if any(s.n != cfg.instances_per_point for s in r.stats.values()):
                        err = "aggregate over the wrong instance count"
                    elif r.stats["memory_kb"].mean <= 0 or r.stats["solve_time_ms"].mean <= 0:
                        err = "non-positive memory or time"
                    elif r.algorithm in OPTIMAL and not same_cost(costs[r.algorithm], best):
                        err = f"mean cost {costs[r.algorithm]!r} != optimum {best!r}"
                    elif costs[r.algorithm] < best - 1e-9:
                        err = f"mean cost {costs[r.algorithm]!r} below optimum {best!r}"
                    if err:
                        failures.append(f"{kind}={value} {r.algorithm.value}: {err}")
            if len(report.rows) != expected:
                failures.append(f"{kind}: report has {len(report.rows)} rows, expected {expected}")
        return failures

    def counters(self, res: PassResult) -> dict:
        out = {}
        for cfg, report, rows, _, _ in res.raw:
            out[f"{cfg.kind.value}.csv_rows"] = rows
            for r in report.rows:
                key = f"{cfg.kind.value}={r.value}.{r.algorithm.value}"
                out[f"{key}.path_cost"] = r.stats["path_cost"].mean
                out[f"{key}.memory_kb"] = r.stats["memory_kb"].mean
        return out

    def cleanup(self) -> None:
        if getattr(self, "dir", None) and os.path.isdir(self.dir):
            shutil.rmtree(self.dir)


# ---------------------------------------------------------------------------
# replan_ref300: incremental repair on the reference grid
# ---------------------------------------------------------------------------

REPLAN_EVENTS = 18     # obstacle events per planner, instance and pass
MOVE_EVERY = 4         # the agent moves before every 4th event (D*, D* Lite)
MOVE_STEPS = 4
UNBLOCK_SHARE = 0.25   # share of events that reopen a cell the script blocked
DETOUR_RADIUS = 3


def _detour_keeps_path(path, i, blocked, width, height) -> bool:
    """True when path[i] (already in ``blocked``) can be bypassed locally.

    Guarantees the goal stays reachable without a full search: the current
    path with path[i] replaced by a short detour is still a legal chain.
    """
    a, b, c = path[i - 1], path[i + 1], path[i]
    parents = {a: None}
    frontier = [a]
    while frontier and b not in parents:
        nxt = []
        for cell in frontier:
            for n, _ in legal_steps(cell, width, height, blocked):
                if n not in parents and abs(n[0] - c[0]) <= DETOUR_RADIUS \
                        and abs(n[1] - c[1]) <= DETOUR_RADIUS:
                    parents[n] = cell
                    nxt.append(n)
        frontier = nxt
    if b not in parents:
        return False
    detour = []
    cur = parents[b]
    while cur != a:
        detour.append(cur)
        cur = parents[cur]
    chain = list(path[:i]) + detour[::-1] + list(path[i + 1:])
    return path_error(chain, width, height, blocked, path[0], path[-1]) is None


class ReplanRef300(_ReferenceInstances):
    # the scripts' random streams are fixed, not drawn from the seed, because
    # repair cost is chaotic in the script (scripts drawn from the seed
    # changed LPA*'s repair expansions by up to a factor of two)
    name = "replan_ref300"

    def _pick_event(self, rng, grid, path, blocked, added):
        if added and rng.random() < UNBLOCK_SHARE:
            return added.pop(min(int(rng.random() * len(added)), len(added) - 1)), False
        # cells in the middle half of the path: repairs next to either end
        # are the heavy tail of the repair cost
        inner = list(range(max(1, len(path) // 4), max(2, 3 * len(path) // 4)))
        while inner:
            i = inner.pop(min(int(rng.random() * len(inner)), len(inner) - 1))
            cell = (path[i][0], path[i][1])
            blocked.add(cell)
            ok = _detour_keeps_path(path, i, blocked, grid.width, grid.height)
            blocked.discard(cell)
            if ok:
                added.append(cell)
                return cell, True
        if added:
            return added.pop(), False
        raise RuntimeError("no cell on the path can be blocked safely")

    def _script(self, gi, algo, res: PassResult) -> None:
        grid = self.grids[gi]
        prefix = f"{INSTANCE_LABELS[gi]}.{algo.value}"
        rng = random.Random(f"replan:{prefix}")
        blocked = set(self.blocked[gi])
        added = []
        res.attempted += 1 + REPLAN_EVENTS
        cls = {AlgorithmId.LPA_STAR: gsolvers.LpaStarPlanner,
               AlgorithmId.D_STAR: gsolvers.DStarPlanner,
               AlgorithmId.D_STAR_LITE: gsolvers.DStarLitePlanner}[algo]
        done = 0
        pos = (grid.start[0], grid.start[1])
        try:
            t0 = time.perf_counter()
            planner = cls(grid)
            if algo is AlgorithmId.D_STAR:
                planner.initial_run()
                path = planner.extract_path(pos)
            else:
                planner.compute()
                path = planner.extract_path()
            res.time_op(f"{prefix}.initial", f"initial_ms.{algo.value}", time.perf_counter() - t0)
            res.outputs.append((f"{prefix}.initial", gi, algo, None, True, pos,
                                tuple(map(tuple, path)), planner.expanded))
            done += 1
            for e in range(REPLAN_EVENTS):
                if (algo is not AlgorithmId.LPA_STAR and e % MOVE_EVERY == MOVE_EVERY - 1
                        and len(path) > MOVE_STEPS + 2):
                    if algo is AlgorithmId.D_STAR_LITE:
                        _, dt = _timed(planner.advance, MOVE_STEPS)
                        res.time_op(f"{prefix}.move{e}", f"move_ms.{algo.value}", dt)
                        if tuple(planner.position) != tuple(path[MOVE_STEPS]):
                            raise RuntimeError(f"advance reached {tuple(planner.position)}, "
                                               f"path says {tuple(path[MOVE_STEPS])}")
                    pos = (path[MOVE_STEPS][0], path[MOVE_STEPS][1])
                    path = path[MOVE_STEPS:]
                cell, flag = self._pick_event(rng, grid, path, blocked, added)
                (blocked.add if flag else blocked.discard)(cell)
                before = planner.expanded
                t0 = time.perf_counter()
                planner.set_blocked(cell, flag)
                if algo is AlgorithmId.D_STAR:
                    planner.replan(pos)
                    path = planner.extract_path(pos)
                else:
                    planner.compute()
                    path = planner.extract_path()
                res.time_op(f"{prefix}.event{e}", f"repair_ms.{algo.value}",
                            time.perf_counter() - t0)
                res.outputs.append((f"{prefix}.event{e}", gi, algo, cell, flag, pos,
                                    tuple(map(tuple, path)), planner.expanded - before))
                done += 1
        except Exception as exc:  # the planner's state is unknown: fail the rest
            res.failures.extend(f"{prefix} event {i}: {exc!r}"
                                for i in range(done, 1 + REPLAN_EVENTS))

    def run_pass(self, tick=None) -> PassResult:
        res = PassResult(tick=tick)
        for gi in range(len(self.grids)):
            for algo in PLANNERS:
                self._script(gi, algo, res)
        return res

    def check(self, res: PassResult) -> list:
        """Each result against astar_oracle on the modified grid from the agent's cell."""
        failures = []
        blocked = {}
        oracle = {}
        for label, gi, algo, cell, flag, pos, path, _ in res.outputs:
            grid = self.grids[gi]
            cells = blocked.setdefault((gi, algo), set(self.blocked[gi]))
            if cell is not None:
                (cells.add if flag else cells.discard)(cell)
            origin = grid.start if algo is AlgorithmId.LPA_STAR else pos
            err = path_error(path, grid.width, grid.height, cells, origin, grid.goal)
            if err is None:
                key = (gi, frozenset(cells), tuple(origin))
                if key not in oracle:
                    modified = Grid(grid.width, grid.height, key[1], origin, grid.goal)
                    oracle[key] = gsolvers.astar_oracle(modified).path_cost
                if not same_cost(chain_cost(path), oracle[key]):
                    err = f"cost {chain_cost(path)!r} != astar_oracle {oracle[key]!r}"
            if err:
                failures.append(f"{label}: {err}")
        return failures

    def counters(self, res: PassResult) -> dict:
        out = {}
        for label, _, _, _, _, _, path, expanded in res.outputs:
            out[f"{label}.expanded"] = expanded
            out[f"{label}.path_cost"] = chain_cost(path)
        return out


def make_workloads(scratch_dir: str) -> dict:
    return {w.name: w for w in (StaticRef300(), SweepQuick(scratch_dir), ReplanRef300())}
