import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gridbench import (
    AlgorithmId,
    AllocationProbe,
    Grid,
    MeasurementError,
    RandomGridSpec,
    aggregate,
    generate_random_grid,
    measure_run,
    run_repetitions,
)
from gridbench.instrumentation import TrackedMap, TrackedSet
from gridbench.pqueue import LazyHeap
from helpers import two_pass_stats


class TestAggregate:
    def test_constant_samples(self):
        s = aggregate([1, 1, 1])
        assert (s.n, s.mean, s.stddev) == (3, 1.0, 0.0)

    def test_two_point_sample(self):
        s = aggregate([2, 4])
        assert s.mean == 3.0
        assert s.stddev == pytest.approx(math.sqrt(2))
        assert (s.min, s.max) == (2, 4)

    def test_single_sample(self):
        s = aggregate([7.5])
        assert (s.n, s.mean, s.stddev) == (1, 7.5, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(MeasurementError):
            aggregate([])

    def test_matches_two_pass_oracle_bulk(self):
        rng = random.Random(123)
        for _ in range(200):
            samples = [rng.uniform(-100, 100) for _ in range(rng.randint(1, 50))]
            s = aggregate(samples)
            mean, std = two_pass_stats(samples)
            assert s.mean == pytest.approx(mean, abs=1e-9)
            assert s.stddev == pytest.approx(std, abs=1e-9)

    @settings(max_examples=100)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_matches_two_pass_oracle_property(self, samples):
        s = aggregate(samples)
        mean, std = two_pass_stats(samples)
        assert s.mean == pytest.approx(mean, abs=1e-6)
        assert s.stddev == pytest.approx(std, abs=1e-6)
        assert s.min <= s.mean <= s.max


class TestProbe:
    def test_high_water_mark(self):
        p = AllocationProbe()
        p.alloc(100)
        p.alloc(50)
        p.free(120)
        p.alloc(10)
        assert p.peak_bytes == 150
        assert p.live_bytes == 40

    def test_expansion_events(self):
        p = AllocationProbe()
        p.expand((0, 0))
        p.expand((1, 1))
        assert p.expansions == 2

    def test_tracked_map_accounting(self):
        p = AllocationProbe()
        m = TrackedMap(p, entry_bytes=10, default=math.inf)
        m[(0, 0)] = 1.0
        m[(0, 0)] = 2.0  # overwrite: no new allocation
        m[(1, 1)] = 3.0
        assert p.live_bytes == 20
        assert m.get((9, 9)) == math.inf
        m.release()
        assert p.live_bytes == 0
        assert p.peak_bytes == 20

    def test_tracked_set_accounting(self):
        p = AllocationProbe()
        s = TrackedSet(p, entry_bytes=8)
        s.add("a")
        s.add("a")
        s.add("b")
        s.discard("a")
        assert p.live_bytes == 8
        assert "b" in s and "a" not in s

    def test_lazy_heap_supersede_and_bytes(self):
        p = AllocationProbe()
        h = LazyHeap(p)
        h.push("x", (5.0,))
        h.push("y", (3.0,))
        h.push("x", (1.0,))  # supersedes the first entry
        assert len(h) == 2
        key, item = h.pop()
        assert item == "x" and key == (1.0,)
        key, item = h.pop()
        assert item == "y"
        assert not h
        # the stale "x" entry still occupies bytes until surfaced
        assert p.live_bytes == 88

    def test_lazy_heap_remove(self):
        p = AllocationProbe()
        h = LazyHeap(p)
        h.push("a", (1.0,))
        h.push("b", (2.0,))
        h.remove("a")
        assert h.pop()[1] == "b"
        with pytest.raises(KeyError):
            h.pop()

    def test_lazy_heap_deterministic_tie_order(self):
        p = AllocationProbe()
        h = LazyHeap(p)
        for item in ("first", "second", "third"):
            h.push(item, (1.0,))
        assert [h.pop()[1] for _ in range(3)] == ["first", "second", "third"]


class TestMeasureRun:
    def test_trivial_grid(self):
        g = Grid(4, 4, frozenset(), (1, 1), (1, 1))
        for algo in AlgorithmId:
            m = measure_run(g, algo)
            assert m.path_cost == 0.0
            assert m.memory_kb > 0
            assert m.solve_time_ms >= 0

    def test_deterministic_metrics_repeat(self):
        g = generate_random_grid(RandomGridSpec(n=15, density=0.25, sg_distance=9, seed=0))
        for algo in (AlgorithmId.ASTAR_ORACLE, AlgorithmId.RTAA_STAR, AlgorithmId.D_STAR_LITE):
            a = measure_run(g, algo)
            b = measure_run(g, algo)
            assert a.path_cost == b.path_cost
            assert a.memory_kb == b.memory_kb

    def test_memory_ordering_example(self):
        g = generate_random_grid(RandomGridSpec(n=100, density=0.35, sg_distance=43, seed=6))
        d_lite = measure_run(g, AlgorithmId.D_STAR_LITE)
        rtaa = measure_run(g, AlgorithmId.RTAA_STAR)
        assert d_lite.memory_kb < rtaa.memory_kb

    def test_probe_sees_expansions_and_peak(self):
        from gridbench import solve

        g = generate_random_grid(RandomGridSpec(n=15, density=0.25, sg_distance=9, seed=5))
        for algo in AlgorithmId:
            probe = AllocationProbe()
            out = solve(g, algo, probe=probe)
            assert probe.expansions == out.expanded
            assert probe.peak_bytes == out.peak_memory_bytes
            assert probe.peak_bytes > 0


class TestRunRepetitions:
    def test_single_rep_zero_stddev(self):
        g = generate_random_grid(RandomGridSpec(n=10, density=0.1, sg_distance=6, seed=1))
        stats = run_repetitions(g, AlgorithmId.ASTAR_ORACLE, reps=1)
        assert all(s.stddev == 0.0 for s in stats.values())
        assert all(s.n == 1 for s in stats.values())

    def test_deterministic_metrics_have_zero_spread(self):
        g = generate_random_grid(RandomGridSpec(n=12, density=0.2, sg_distance=7, seed=2))
        for algo in (AlgorithmId.LPA_STAR, AlgorithmId.LRTA_STAR):
            stats = run_repetitions(g, algo, reps=10)
            assert stats["path_cost"].stddev == 0.0
            assert stats["memory_kb"].stddev == 0.0

    def test_rep_count_recorded(self):
        g = generate_random_grid(RandomGridSpec(n=10, density=0.1, sg_distance=6, seed=3))
        stats = run_repetitions(g, AlgorithmId.ASTAR_ORACLE, reps=20)
        assert all(s.n == 20 for s in stats.values())

    def test_bad_reps(self):
        g = generate_random_grid(RandomGridSpec(n=10, density=0.1, sg_distance=6, seed=4))
        with pytest.raises(MeasurementError):
            run_repetitions(g, AlgorithmId.ASTAR_ORACLE, reps=0)
