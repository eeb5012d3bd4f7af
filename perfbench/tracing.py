"""Tracing, module microbenchmarks and the per-solver profile.

The tracer patches gridbench's module attributes and class methods from
outside, so nothing under ``src/`` changes and an untraced run executes the
program exactly as shipped.  Coarse boundaries (solve, planner operations,
generators, the sweep harness, reporting) record spans: name, algorithm,
start, end and parent span.  Hot boundaries (neighbour generation, the open
list, memory accounting) only count calls, per algorithm.  Counts repeat
exactly for a given seed; the microbenchmarks turn them into time.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

import gridbench.experiments as gexperiments
import gridbench.generators as ggenerators
import gridbench.grid as ggrid
import gridbench.instrumentation as ginstr
import gridbench.metrics as gmetrics
import gridbench.pqueue as gpqueue
import gridbench.reporting as greporting
import gridbench.solvers as gsolvers
import gridbench.solvers.dstar_lite as gdstar_lite
import gridbench.solvers.lpa as glpa
from gridbench.solvers import AlgorithmId

# hot-boundary counters, one list of these per algorithm context
COUNTERS = ("neighbor_calls", "push", "pop", "remove", "stale_pops",
            "alloc_calls", "free_calls", "trackedmap_ops", "expansions")
_NEIGHBOR, _PUSH, _POP, _REMOVE, _STALE, _ALLOC, _FREE, _TMAP, _EXPAND = range(len(COUNTERS))

_PLANNER_METHODS = (
    (gsolvers.LpaStarPlanner, AlgorithmId.LPA_STAR, ("compute", "set_blocked", "extract_path")),
    (gsolvers.DStarPlanner, AlgorithmId.D_STAR,
     ("initial_run", "set_blocked", "replan", "extract_path")),
    (gsolvers.DStarLitePlanner, AlgorithmId.D_STAR_LITE,
     ("compute", "set_blocked", "extract_path", "advance")),
)


class Tracer:
    """Spans and per-algorithm call counts, collected while installed."""

    def __init__(self):
        self.counts = {}                 # algorithm value or None -> [int] * len(COUNTERS)
        self.cur = self._ctx(None)
        self.spans = []                  # [name, algo, start, end, parent index]
        self._stack = []
        self._patches = []
        self.solvable = [0, 0]           # is_solvable results: [true, false]
        self.jobs = 0
        self.duplicate_jobs = 0
        self._seen_jobs = []             # (grid, algo) measured in the current sweep
        self.t0 = time.perf_counter()

    def _ctx(self, algo):
        key = algo.value if algo is not None else None
        return self.counts.setdefault(key, [0] * len(COUNTERS))

    def totals(self) -> dict:
        return {name: sum(c[i] for c in self.counts.values()) for i, name in enumerate(COUNTERS)}

    def per_algo(self, algo) -> dict:
        c = self.counts.get(algo.value, [0] * len(COUNTERS))
        return dict(zip(COUNTERS, c))

    def reset_counts(self) -> None:
        self.counts = {}
        self.cur = self._ctx(None)
        self.spans.clear()
        self.solvable = [0, 0]
        self.jobs = self.duplicate_jobs = 0

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, name, wrapper_factory):
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(wrapper_factory(original)))

    def _counter(self, idx):
        def factory(fn):
            def wrapper(*args, **kwargs):
                self.cur[idx] += 1
                return fn(*args, **kwargs)
            return wrapper
        return factory

    def _span(self, name, algo_of=None, on_result=None, on_enter=None):
        def factory(fn):
            def wrapper(*args, **kwargs):
                algo = algo_of(args, kwargs) if algo_of else None
                prev = self.cur
                if algo is not None:
                    self.cur = self._ctx(algo)
                if on_enter:
                    on_enter(args, kwargs)
                idx = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                span = [name, algo.value if algo is not None else None, 0.0, 0.0, parent]
                self.spans.append(span)
                self._stack.append(idx)
                span[2] = time.perf_counter() - self.t0
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span[3] = time.perf_counter() - self.t0
                    self._stack.pop()
                    self.cur = prev
                if on_result:
                    on_result(out)
                return out
            return wrapper
        return factory

    def install(self) -> None:
        count = self._counter
        for owner in (ggrid, glpa, gdstar_lite):
            self._patch(owner, "neighbor_cells", count(_NEIGHBOR))
        heap = gpqueue.LazyHeap
        self._patch(heap, "push", count(_PUSH))
        self._patch(heap, "remove", count(_REMOVE))
        self._patch(heap, "pop", self._pop_factory)
        self._patch(heap, "peek", self._peek_factory)
        self._patch(ginstr.AllocationProbe, "alloc", count(_ALLOC))
        self._patch(ginstr.AllocationProbe, "free", count(_FREE))
        self._patch(ginstr.AllocationProbe, "expand", count(_EXPAND))
        for name in ("get", "__setitem__", "__contains__", "pop"):
            self._patch(ginstr.TrackedMap, name, count(_TMAP))

        def solve_algo(args, kwargs):
            return AlgorithmId(kwargs.get("algo", args[1] if len(args) > 1 else None))

        self._patch(gsolvers, "solve", self._span("solve", solve_algo))
        self._patch(gmetrics, "solve", self._span("solve", solve_algo))
        for cls, algo, methods in _PLANNER_METHODS:
            for m in methods:
                self._patch(cls, m, self._span(f"{cls.__name__}.{m}", lambda a, k, x=algo: x))
        self._patch(ggenerators, "generate_random_grid", self._span("generate_random_grid"))
        self._patch(ggenerators, "generate_wall_grid", self._span("generate_wall_grid"))
        self._patch(gexperiments, "generate_wall_grid", self._span("generate_wall_grid"))
        self._patch(gexperiments, "generate_instance_set", self._span("generate_instance_set"))
        self._patch(ggenerators, "is_solvable", self._span("is_solvable", on_result=self._solvable))
        self._patch(gmetrics, "measure_run", self._span("measure_run"))
        self._patch(gexperiments, "run_repetitions", self._span("run_repetitions",
                                                                on_enter=self._job))
        self._patch(gexperiments, "run_sweep", self._span("run_sweep", on_enter=self._sweep))
        for name in ("parse_config", "write_csv", "render_plots"):
            self._patch(greporting, name, self._span(name))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- hooks ----------------------------------------------------------------

    def _pop_factory(self, fn):
        def wrapper(heap):
            before = len(heap._heap)
            try:
                return fn(heap)
            finally:
                self.cur[_POP] += 1
                self.cur[_STALE] += before - len(heap._heap) - 1
        return wrapper

    def _peek_factory(self, fn):
        def wrapper(heap):
            before = len(heap._heap)
            try:
                return fn(heap)
            finally:
                self.cur[_STALE] += before - len(heap._heap)
        return wrapper

    def _solvable(self, result) -> None:
        self.solvable[0 if result else 1] += 1

    def _sweep(self, args, kwargs) -> None:
        self._seen_jobs = []

    def _job(self, args, kwargs) -> None:
        grid, algo = args[0], args[1]
        self.jobs += 1
        if any(g is grid and a == algo for g, a in self._seen_jobs):
            self.duplicate_jobs += 1
        self._seen_jobs.append((grid, algo))


class NoOpProbe(ginstr.AllocationProbe):
    """The probe interface with no accounting: a solve's time without it."""

    __slots__ = ()

    def alloc(self, nbytes: int) -> None:
        pass

    def free(self, nbytes: int) -> None:
        pass

    def expand(self, cell=None) -> None:
        pass


# ---------------------------------------------------------------------------
# module microbenchmarks: the per-call costs that turn traced counts into time
# ---------------------------------------------------------------------------

def _per_call(fn, calls: int, rounds: int = 5) -> float:
    """Median over rounds of seconds per call of fn(), which makes ``calls`` calls."""
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


def microbenchmarks(grid, seed: int, scratch_dir: str) -> dict:
    free = [(x, y) for y in range(grid.height) for x in range(grid.width)
            if (x, y) not in grid.blocked][:4000]

    def neighbors():
        n8 = grid.neighbors8
        for c in free:
            n8(c)

    keys = [((i * 7919) % 4001 * 0.5, -(i % 97) * 1.0) for i in range(4000)]

    def heap_push_pop():
        h = gpqueue.LazyHeap(ginstr.AllocationProbe())
        for i, k in enumerate(keys):
            h.push(i, k)
        while h:
            h.pop()

    probe = ginstr.AllocationProbe()

    def alloc():
        a = probe.alloc
        for _ in range(20000):
            a(72)

    def tracked_map():
        m = ginstr.TrackedMap(ginstr.AllocationProbe(), default=float("inf"))
        for c in free:
            m[c] = 1.0
        for c in free:
            m.get(c)

    out = {
        "grid.neighbor_us": _per_call(neighbors, len(free)) * 1e6,
        "pqueue.push_pop_us": _per_call(heap_push_pop, len(keys)) * 1e6,
        "instrumentation.alloc_us": _per_call(alloc, 20000) * 1e6,
        "instrumentation.trackedmap_us": _per_call(tracked_map, 2 * len(free)) * 1e6,
    }

    # one 300x300 generation and one solvability search, three times each
    gen, bfs = [], []
    for i in range(3):
        spec = ggenerators.RandomGridSpec(n=300, density=0.25, sg_distance=140.0,
                                          seed=seed + 1000 + i)
        t0 = time.perf_counter()
        g = ggenerators.generate_random_grid(spec)
        gen.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        ggenerators.is_solvable(g)
        bfs.append(time.perf_counter() - t0)
    out["generators.random_grid_s"] = statistics.median(gen)
    out["generators.is_solvable_s"] = statistics.median(bfs)

    # harness overhead per measure_run, on a two-cell grid where the solve is trivial
    tiny = ggrid.Grid(2, 1, frozenset(), (0, 0), (1, 0))

    def measured():
        for _ in range(2000):
            gmetrics.measure_run(tiny, AlgorithmId.ASTAR_ORACLE)

    def bare():
        for _ in range(2000):
            gsolvers.solve(tiny, AlgorithmId.ASTAR_ORACLE)

    out["metrics.harness_overhead_us"] = (_per_call(measured, 2000)
                                          - _per_call(bare, 2000)) * 1e6

    # reporting on a small real report: six default algorithms at two points
    cfg = gexperiments.SweepConfig(
        kind=gexperiments.SweepKind.GRID_SIZE, values=(8, 10),
        fixed=gexperiments.FixedParams(size=10, sg_distance=5.0),
        instances_per_point=1, reps=1, seed=seed)
    report = gexperiments.run_sweep(cfg)
    csv_path = os.path.join(scratch_dir, "micro.csv")
    out["reporting.write_csv_s"] = _per_call(lambda: greporting.write_csv(report, csv_path), 1, 9)
    out["reporting.render_plots_s"] = _per_call(
        lambda: greporting.render_plots(report, scratch_dir), 1, 9)
    return out


# ---------------------------------------------------------------------------
# per-solver profile on the workload's reference instance
# ---------------------------------------------------------------------------

def solver_profile(grid, tracer: Tracer, costs: dict, rounds: int = 2) -> tuple:
    """Per-algorithm metrics and the outcomes produced, for checking.

    Default-probe and no-op-probe solves are interleaved; the difference of
    their medians is the memory-accounting overhead.  One traced
    solve per algorithm gives the counts behind the self-time estimate.
    """
    times = {a: [] for a in AlgorithmId}
    bare = {a: [] for a in AlgorithmId}
    outcomes = {}
    for _ in range(rounds):
        for algo in AlgorithmId:
            out = gsolvers.solve(grid, algo)
            times[algo].append(out.solve_time_ms)
            outcomes[algo] = out
            bare[algo].append(gsolvers.solve(grid, algo, probe=NoOpProbe()).solve_time_ms)
    tracer.reset_counts()
    tracer.install()
    try:
        for algo in AlgorithmId:
            gsolvers.solve(grid, algo)
    finally:
        tracer.uninstall()
    metrics = {}
    for algo in AlgorithmId:
        a = algo.value
        solve_ms = statistics.median(times[algo])
        out = outcomes[algo]
        est_ms = estimated_layer_ms(tracer.per_algo(algo), costs)
        metrics[f"solvers.solve_ms.{a}"] = solve_ms
        metrics[f"solvers.expanded.{a}"] = out.expanded
        metrics[f"solvers.peak_memory_bytes.{a}"] = out.peak_memory_bytes
        metrics[f"solvers.us_per_expansion.{a}"] = solve_ms * 1000.0 / out.expanded
        metrics[f"solvers.self_ms.{a}"] = solve_ms - sum(est_ms.values())
        metrics[f"instrumentation.overhead_ms.{a}"] = solve_ms - statistics.median(bare[algo])
    return metrics, outcomes


def estimated_layer_ms(counts: dict, costs: dict) -> dict:
    """Time in the grid, pqueue and instrumentation layers, as counts x per-call cost."""
    return {
        "grid": counts["neighbor_calls"] * costs["grid.neighbor_us"] / 1000.0,
        "pqueue": (counts["push"] + counts["pop"]) * costs["pqueue.push_pop_us"] / 2000.0,
        "instrumentation": ((counts["alloc_calls"] + counts["free_calls"])
                            * costs["instrumentation.alloc_us"]
                            + counts["trackedmap_ops"] * costs["instrumentation.trackedmap_us"])
                           / 1000.0,
    }
