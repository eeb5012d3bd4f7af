import os
import re
from pathlib import Path

import pytest

from gridbench import (
    AlgorithmId,
    ConfigError,
    FixedParams,
    SweepConfig,
    SweepKind,
    parse_config,
    render_plots,
    run_sweep,
    write_csv,
)
from gridbench.experiments import DEFAULT_ALGORITHMS
from gridbench.reporting import _KEYS, CSV_COLUMNS, csv_rows


@pytest.fixture(scope="module")
def small_report():
    cfg = SweepConfig(
        kind=SweepKind.GRID_SIZE,
        values=(8, 12),
        fixed=FixedParams(density=0.15, size=10, sg_distance=6.0),
        algorithms=(AlgorithmId.ASTAR_ORACLE, AlgorithmId.D_STAR_LITE),
        instances_per_point=2,
        reps=2,
        seed=0,
    )
    return run_sweep(cfg)


class TestConfigParsing:
    def test_empty_file_gives_default_plan(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        plan = parse_config(cfg)
        assert len(plan.sweeps) == 5
        assert [c.kind for c in plan.sweeps] == list(SweepKind)
        assert plan.sweeps[0].seed == 0
        assert plan.sweeps[0].reps == 100
        assert plan.sweeps[0].instances_per_point == 10

    def test_reps_override(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("reps=100\n")
        plan = parse_config(cfg)
        assert all(c.reps == 100 for c in plan.sweeps)

    @pytest.mark.parametrize("line", [
        "density=1.5", "density=-0.1", "size=2", "sg_distance=-1", "reps=0",
        "instances_per_point=0", "lookahead=0", "ara_initial_weight=0.5",
        "ara_weight_decrement=0", "sweeps=",
    ])
    def test_domain_error(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(ConfigError, match="bad.cfg"):
            parse_config(cfg)

    def test_quick_plan_file(self):
        plan = parse_config(Path(__file__).resolve().parent.parent / "scripts" / "quick.cfg")
        assert plan.output_dir == "results"
        assert [(c.kind, c.values) for c in plan.sweeps] == [
            (SweepKind.GRID_SIZE, (20, 30, 40)),
            (SweepKind.SG_DISTANCE, (8, 16, 24)),
            (SweepKind.DENSITY, (0.1, 0.2, 0.3)),
            (SweepKind.WALL_COUNT, (0, 2, 4)),
            (SweepKind.WALL_LENGTH, (15, 19, 23)),
        ]
        for c in plan.sweeps:
            assert c.fixed == FixedParams(density=0.25, size=40, sg_distance=25.0)
            assert (c.instances_per_point, c.reps, c.seed) == (3, 5, 0)
            assert c.algorithms == DEFAULT_ALGORITHMS

    def test_unknown_key_with_line_number(self, tmp_path):
        cfg = tmp_path / "unk.cfg"
        for key in ("bogus=1", "tie_break=high_g", "parallel_pairs=true"):
            cfg.write_text(f"reps=5\n{key}\n")
            with pytest.raises(ConfigError, match=":2: unknown key"):
                parse_config(cfg)

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a comment\n\nreps=7  # trailing\n")
        plan = parse_config(cfg)
        assert plan.sweeps[0].reps == 7

    def test_value_overrides_and_subset(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(
            "sweeps=grid_size,density\n"
            "grid_size.values=10,20\n"
            "density.values=0.1,0.2\n"
            "size=20\nsg_distance=8\ninstances_per_point=2\nreps=2\n"
        )
        plan = parse_config(cfg)
        assert [c.kind for c in plan.sweeps] == [SweepKind.GRID_SIZE, SweepKind.DENSITY]
        assert plan.sweeps[0].values == (10, 20)
        assert plan.sweeps[1].values == (0.1, 0.2)
        assert plan.sweeps[0].fixed.size == 20

    def test_solver_param_keys(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("lookahead=100\nara_initial_weight=3.0\n")
        plan = parse_config(cfg)
        sp = plan.sweeps[0].solver_params
        assert sp.lookahead == 100
        assert sp.ara_initial_weight == 3.0

    def test_first_bad_line_named(self, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("seed=1\nlookahead=y\nreps=x\n")
        with pytest.raises(ConfigError, match=r"b.cfg:2: expected a number, got 'y'"):
            parse_config(cfg)

    def test_readme_plan_block(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"### Run-plan config.*?```ini\n(.*?)```", readme, re.S).group(1)
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(block)
        parse_config(cfg)
        named = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
        scalar_keys = {key for key in _KEYS if not key.endswith(".values")}
        assert scalar_keys - named == set()

    def test_duplicate_key_rejected(self, tmp_path):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("reps=5\nreps=6\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(cfg)

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "m.cfg"
        cfg.write_text("reps 5\n")
        with pytest.raises(ConfigError, match=":1"):
            parse_config(cfg)

    def test_algorithms_override(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("algorithms=ARA_STAR,D_STAR_LITE\n")
        plan = parse_config(cfg)
        assert plan.sweeps[0].algorithms == (AlgorithmId.ARA_STAR, AlgorithmId.D_STAR_LITE)


class TestCsv:
    def test_header_exact(self, small_report):
        assert csv_rows(small_report)[0] == (
            "algorithm,number_of_walls,wall_length,obstacle_density,"
            "grid_size,sg_distance,path_cost,memory_allocation_kb,solving_time_ms"
        )

    def test_line_count(self, small_report, tmp_path):
        path = tmp_path / "out.csv"
        rows = write_csv(small_report, path)
        lines = path.read_text().splitlines()
        assert rows == 4
        assert len(lines) == 5

    def test_three_decimal_floats(self, small_report, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(small_report, path)
        for line in path.read_text().splitlines()[1:]:
            cells = line.split(",")
            for cell in cells[5:]:
                whole, frac = cell.split(".")
                assert len(frac) == 3

    def test_round_trip_values(self, small_report, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(small_report, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert tuple(header) == CSV_COLUMNS
        for line, row in zip(lines[1:], small_report.rows):
            cells = dict(zip(header, line.split(",")))
            assert float(cells["path_cost"]) == pytest.approx(
                row.stats["path_cost"].mean, abs=5e-4)
            assert float(cells["memory_allocation_kb"]) == pytest.approx(
                row.stats["memory_kb"].mean, abs=5e-4)

    def test_dash_for_inapplicable(self, small_report, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(small_report, path)
        for line in path.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[1] == "-" and cells[2] == "-"  # no walls in a size sweep


class TestPlots:
    def test_three_files_per_report(self, small_report, tmp_path):
        paths = render_plots(small_report, tmp_path)
        assert len(paths) == 3
        assert all(os.path.exists(p) for p in paths)
        names = sorted(os.path.basename(p) for p in paths)
        assert names == [
            "grid_size_memory_kb.svg",
            "grid_size_path_cost.svg",
            "grid_size_solve_time_ms.svg",
        ]

    def test_deterministic_bytes(self, small_report, tmp_path):
        a = render_plots(small_report, tmp_path / "a")
        b = render_plots(small_report, tmp_path / "b")
        for pa, pb in zip(a, b):
            assert open(pa, "rb").read() == open(pb, "rb").read()

    def test_svg_structure(self, small_report, tmp_path):
        paths = render_plots(small_report, tmp_path)
        content = open(paths[0]).read()
        assert content.startswith("<?xml")
        assert "<svg" in content and "</svg>" in content
        assert content.count("<polyline") == 2  # one line per algorithm
        assert "A*" in content and "D* Lite" in content

    def test_single_algorithm_single_series(self, tmp_path):
        cfg = SweepConfig(
            kind=SweepKind.WALL_COUNT,
            values=(0, 1),
            algorithms=(AlgorithmId.ASTAR_ORACLE,),
            instances_per_point=1,
            reps=2,
        )
        report = run_sweep(cfg)
        paths = render_plots(report, tmp_path)
        content = open(paths[0]).read()
        assert content.count("<polyline") == 1
