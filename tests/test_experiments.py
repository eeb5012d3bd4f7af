import pytest

from gridbench import (
    AlgorithmId,
    ConfigError,
    DEFAULT_SWEEP_VALUES,
    FixedParams,
    SweepConfig,
    SweepKind,
    run_sweep,
    wall_length_sequence,
)
from gridbench import experiments
from gridbench.experiments import WALL_GRID_DEFAULT_LENGTH
from gridbench.generators import WallGridSpec, generate_wall_grid
from gridbench.metrics import aggregate, run_repetitions

FAST_PAIR = (AlgorithmId.ASTAR_ORACLE, AlgorithmId.D_STAR_LITE)


def tiny_cfg(**overrides):
    base = dict(
        kind=SweepKind.GRID_SIZE,
        values=(8, 12),
        fixed=FixedParams(density=0.15, size=10, sg_distance=6.0),
        algorithms=FAST_PAIR,
        instances_per_point=2,
        reps=2,
        seed=0,
    )
    base.update(overrides)
    return SweepConfig(**base)


class TestDefaults:
    def test_density_values_cover_quoted_points(self):
        values = DEFAULT_SWEEP_VALUES[SweepKind.DENSITY]
        for v in (0.20, 0.25, 0.35):
            assert v in values

    def test_wall_length_values(self):
        assert list(DEFAULT_SWEEP_VALUES[SweepKind.WALL_LENGTH]) == wall_length_sequence()

    def test_grid_size_values(self):
        assert DEFAULT_SWEEP_VALUES[SweepKind.GRID_SIZE] == (50, 100, 150, 200, 250, 300)

    def test_fixed_defaults(self):
        f = FixedParams()
        assert (f.density, f.size, f.sg_distance) == (0.25, 300, 140.0)


class TestConfigValidation:
    def test_empty_algorithms_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(algorithms=())

    def test_non_increasing_values_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(values=(10, 10))
        with pytest.raises(ConfigError):
            tiny_cfg(values=(12, 8))

    def test_bad_instances(self):
        with pytest.raises(ConfigError):
            tiny_cfg(instances_per_point=0)

    @pytest.mark.parametrize("field", [
        {"size": 2}, {"density": 1.0}, {"density": -0.1}, {"sg_distance": -1.0},
    ])
    def test_bad_fixed_params(self, field):
        with pytest.raises(ConfigError):
            FixedParams(**field)
        FixedParams(size=3, density=0.0, sg_distance=0.0)  # the boundaries are legal


class TestRunSweep:
    def test_row_count(self):
        report = run_sweep(tiny_cfg())
        assert len(report.rows) == 4  # 2 values x 2 algorithms

    def test_row_completeness(self):
        report = run_sweep(tiny_cfg())
        seen = {(r.algorithm, r.value) for r in report.rows}
        assert seen == {(a, v) for a in FAST_PAIR for v in (8, 12)}

    def test_reproducible_deterministic_metrics(self):
        a = run_sweep(tiny_cfg())
        b = run_sweep(tiny_cfg())
        for r1, r2 in zip(a.rows, b.rows):
            assert r1.stats["path_cost"].mean == r2.stats["path_cost"].mean
            assert r1.stats["memory_kb"].mean == r2.stats["memory_kb"].mean

    def test_provenance(self):
        report = run_sweep(tiny_cfg(seed=99))
        assert report.provenance["seed"] == 99
        assert report.provenance["kind"] == "grid_size"
        assert "version" in report.provenance
        # every SweepConfig field is recorded, the solver settings included
        assert report.provenance["solver_params"] == {
            "lookahead": 250, "ara_initial_weight": 2.5, "ara_weight_decrement": 0.5}
        assert report.provenance["allow_corner_cutting"] is False
        assert report.provenance["algorithms"] == [a.value for a in FAST_PAIR]
        assert report.provenance["fixed"] == {"density": 0.15, "size": 10, "sg_distance": 6.0}

    def test_sg_cap_on_small_sizes(self):
        # fixed distance 140 is not realizable at size 8; the sweep caps it
        cfg = tiny_cfg(values=(8,), fixed=FixedParams(density=0.1, size=8, sg_distance=140.0))
        report = run_sweep(cfg)
        assert all(r.sg_distance <= 7.5 for r in report.rows)

    def test_oracle_cost_increases_with_distance(self):
        cfg = SweepConfig(
            kind=SweepKind.SG_DISTANCE,
            values=(4, 8, 12),
            fixed=FixedParams(density=0.15, size=20, sg_distance=10.0),
            algorithms=(AlgorithmId.ASTAR_ORACLE,),
            instances_per_point=3,
            reps=1,
            seed=1,
        )
        report = run_sweep(cfg)
        means = [r.stats["path_cost"].mean for r in report.rows]
        assert means == sorted(means)
        assert len(set(means)) == len(means)

    def test_wall_count_sweep_labels(self):
        cfg = SweepConfig(
            kind=SweepKind.WALL_COUNT,
            values=(0, 2),
            algorithms=(AlgorithmId.ASTAR_ORACLE,),
            instances_per_point=1,
            reps=1,
        )
        report = run_sweep(cfg)
        for row in report.rows:
            assert row.grid_size == "31x71"
            assert row.wall_length == 15
            assert row.density is None
            assert row.sg_distance == pytest.approx(73.539, abs=1e-3)

    def test_wall_length_sweep_uses_seven_walls(self):
        cfg = SweepConfig(
            kind=SweepKind.WALL_LENGTH,
            values=(15, 17),
            algorithms=(AlgorithmId.ASTAR_ORACLE,),
            instances_per_point=1,
            reps=1,
        )
        report = run_sweep(cfg)
        assert all(r.num_walls == 7 for r in report.rows)

class TestDistinctJobs:
    """run_sweep measures each distinct (grid, algorithm) pair once, in the
    calling process, in order of first occurrence: points, then algorithms,
    then grids."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = experiments.run_repetitions

        def counting(grid, algo, params=None, reps=100):
            calls.append((grid, algo))
            return real(grid, algo, params, reps=reps)

        monkeypatch.setattr(experiments, "run_repetitions", counting)
        return calls

    def test_wall_point_measures_its_grid_once(self, calls):
        cfg = tiny_cfg(kind=SweepKind.WALL_COUNT, values=(1, 2), instances_per_point=3, reps=1)
        report = run_sweep(cfg)
        walls = [generate_wall_grid(WallGridSpec(num_walls=k, wall_length=WALL_GRID_DEFAULT_LENGTH))
                 for k in cfg.values]
        assert calls == [(g, a) for g in walls for a in FAST_PAIR]  # 2 values x 2 algorithms
        assert len({(id(g), a) for g, a in calls}) == 4
        for row in report.rows:
            assert all(s.n == 3 for s in row.stats.values())
            spec = WallGridSpec(num_walls=row.num_walls, wall_length=row.wall_length)
            direct = run_repetitions(generate_wall_grid(spec), row.algorithm, reps=1)
            for m in ("path_cost", "memory_kb"):
                assert row.stats[m].mean == direct[m].mean
            assert row.stats["solve_time_ms"].stddev == 0.0

    def test_random_point_measures_every_instance(self, calls):
        cfg = tiny_cfg(instances_per_point=3)
        report = run_sweep(cfg)
        points = [experiments._point(cfg, i, value)[0] for i, value in enumerate(cfg.values)]
        assert len(calls) == 2 * 2 * 3  # values x algorithms x instances
        assert calls == [(g, a) for grids in points for a in FAST_PAIR for g in grids]
        for value, grids in zip(cfg.values, points):
            for row in (r for r in report.rows if r.value == value):
                assert all(s.n == 3 for s in row.stats.values())
                direct = [run_repetitions(g, row.algorithm, reps=1) for g in grids]
                for m in ("path_cost", "memory_kb"):
                    assert row.stats[m].mean == aggregate([d[m].mean for d in direct]).mean
