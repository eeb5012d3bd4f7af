import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridbench import Coord, Grid, format_grid, load_grid, save_grid
from gridbench.cli import main


@pytest.fixture()
def grid_file(tmp_path):
    g = Grid(12, 12, frozenset({Coord(5, 5), Coord(6, 5)}), (1, 1), (10, 10))
    path = tmp_path / "grid.txt"
    save_grid(g, path)
    return str(path)


@pytest.fixture()
def unsolvable_file(tmp_path):
    blocked = frozenset(Coord(x, 3) for x in range(6))
    g = Grid(6, 6, blocked, (0, 0), (5, 5))
    path = tmp_path / "sealed.txt"
    save_grid(g, path)
    return str(path)


@pytest.fixture()
def corner_sealed_file(tmp_path):
    # two diagonally touching obstacles: passable only by cutting the corner
    g = Grid(3, 3, frozenset({Coord(1, 0), Coord(0, 1)}), (0, 0), (2, 2))
    path = tmp_path / "corner.txt"
    save_grid(g, path)
    return str(path)


@pytest.fixture()
def wall_file(tmp_path):
    # one wall across the grid with a gap at its right end
    g = Grid(8, 8, frozenset(Coord(x, 3) for x in range(7)), (0, 0), (0, 7))
    path = tmp_path / "wall.txt"
    save_grid(g, path)
    return str(path)


class TestSelect:
    def test_memory_prints_dstar_lite(self, grid_file, capsys):
        assert main(["select", grid_file, "--priority", "memory"]) == 0
        assert capsys.readouterr().out.strip() == "D_STAR_LITE"

    def test_solving_time_near(self, grid_file, capsys):
        assert main(["select", grid_file, "--priority", "solvingtime"]) == 0
        assert capsys.readouterr().out.strip() == "ARA_STAR"

    def test_solving_time_with_low_threshold(self, grid_file, capsys):
        assert main(["select", grid_file, "--priority", "solvingtime", "--threshold", "5"]) == 0
        assert capsys.readouterr().out.strip() == "RTAA_STAR"

    def test_bad_priority_domain_error(self, grid_file, capsys):
        assert main(["select", grid_file, "--priority", "speed"]) == 1

    def test_accepts_corner_cutting(self, corner_sealed_file, capsys):
        assert main(["select", corner_sealed_file, "--priority", "memory",
                     "--allow-corner-cutting"]) == 0
        assert capsys.readouterr().out.strip() == "D_STAR_LITE"


class TestSolve:
    def test_oracle_summary(self, grid_file, capsys):
        assert main(["solve", grid_file, "--algo", "ASTAR_ORACLE"]) == 0
        out = capsys.readouterr().out
        assert "path_cost:" in out and "memory_kb:" in out

    def test_algo_alias(self, grid_file):
        assert main(["solve", grid_file, "--algo", "d*lite"]) == 0

    def test_no_path_exit_one(self, unsolvable_file, capsys):
        assert main(["solve", unsolvable_file, "--algo", "ASTAR_ORACLE"]) == 1
        assert "no path" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["lrta*", "rtaa*"], ids=("lrta", "rtaa"))
    def test_agent_no_path_on_sealed_goal(self, tmp_path, capsys, algo):
        # the goal ringed by its 8 neighbours: the agents stop before their first episode
        ring = frozenset(Coord(55 + dx, 55 + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                         if dx or dy)
        path = tmp_path / "sealed60.txt"
        save_grid(Grid(60, 60, ring, (0, 0), (55, 55)), path)
        assert main(["solve", str(path), "--algo", algo]) == 1
        assert "no path" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["solve", "does-not-exist.txt", "--algo", "ASTAR_ORACLE"]) == 1

    @pytest.mark.parametrize("algo, flag, value", [
        ("RTAA*", "--lookahead", "1"),
        ("LRTA*", "--lookahead", "1"),
        ("ARA*", "--ara-initial-weight", "1"),
    ])
    def test_solver_flag_is_honoured(self, grid_file, capsys, algo, flag, value):
        def expanded(*flags):
            assert main(["solve", grid_file, "--algo", algo, *flags]) == 0
            out = capsys.readouterr().out
            return int(out.split("expanded: ", 1)[1].split()[0])

        assert expanded(flag, value) != expanded()


class TestEvaluate:
    def test_three_rows_plus_choice(self, grid_file, capsys):
        assert main(["evaluate", grid_file, "--priority", "memory", "--reps", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("algorithm,")
        assert lines[0].endswith("best_for_priority")
        assert len(lines) == 6  # header + 3 candidates + selected + flag
        assert lines[4] == "selected: D_STAR_LITE"
        assert lines[5] in ("selected_is_best: true", "selected_is_best: false")

    def test_candidate_rows_pinned(self, grid_file, capsys):
        assert main(["evaluate", grid_file, "--priority", "memory", "--reps", "2"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:4]
        # every column but solving_time_ms and the timing-free best marker
        assert [r.split(",")[:8] for r in rows] == [
            ["RTAA*", "-", "-", "-", "12x12", "12.728", "13.899", "11.500"],
            ["ARA*", "-", "-", "-", "12x12", "12.728", "13.899", "21.688"],
            ["D* Lite", "-", "-", "-", "12x12", "12.728", "13.899", "14.406"],
        ]

    def test_corner_cutting_flag_changes_reachability(self, corner_sealed_file, capsys):
        assert main(["evaluate", corner_sealed_file, "--priority", "memory", "--reps", "1"]) == 1
        assert "unreachable" in capsys.readouterr().err
        assert main(["evaluate", corner_sealed_file, "--priority", "memory", "--reps", "1",
                     "--allow-corner-cutting"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:4]
        assert [r.split(",")[6] for r in rows] == ["2.828"] * 3

    def test_default_on_wall_grid(self, wall_file, capsys):
        assert main(["evaluate", wall_file, "--priority", "memory", "--reps", "1"]) == 0
        assert "selected: D_STAR_LITE" in capsys.readouterr().out

    def test_tie_break_is_usage_error(self, wall_file):
        # each solver's tie order is part of its algorithm, so no command takes one
        for command, *flags in (["evaluate", "--priority", "memory", "--reps", "1"],
                                ["solve", "--algo", "astar"]):
            assert main([command, wall_file, *flags, "--tie-break", "low_g"]) == 2


class TestGen:
    def test_random_grid_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "g.txt")
        assert main(["gen", "random", out, "--n", "15", "--density", "0.2",
                     "--sg-distance", "9", "--seed", "4"]) == 0
        assert capsys.readouterr().out == f"wrote 15x15 grid with 45 blocked cells to {out}\n"
        g = load_grid(out)
        assert g.width == g.height == 15
        assert len(g.blocked) == 45  # floor(0.2 * 223 + 0.5)

    def test_wall_grid(self, tmp_path, capsys):
        out = str(tmp_path / "w.txt")
        assert main(["gen", "walls", out, "--num-walls", "3", "--wall-length", "17"]) == 0
        assert capsys.readouterr().out == f"wrote 31x71 grid with 51 blocked cells to {out}\n"
        g = load_grid(out)
        assert (g.width, g.height) == (31, 71)
        assert len(g.blocked) == 51

    def test_impossible_spec_domain_error(self, tmp_path):
        out = str(tmp_path / "x.txt")
        assert main(["gen", "random", out, "--n", "10", "--density", "0.99",
                     "--sg-distance", "5", "--seed", "1"]) == 1


class TestSweep:
    def test_tiny_config_end_to_end(self, tmp_path, capsys):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text(
            "sweeps=grid_size\n"
            "grid_size.values=8,12\n"
            "size=10\nsg_distance=6\ndensity=0.15\n"
            "algorithms=ASTAR_ORACLE,D_STAR_LITE\n"
            "instances_per_point=2\nreps=2\n"
            f"output_dir={tmp_path / 'out'}\n"
        )
        assert main(["sweep", str(cfg)]) == 0
        out_dir = tmp_path / "out"
        files = sorted(os.listdir(out_dir))
        assert "grid_size.csv" in files
        assert sum(1 for f in files if f.endswith(".svg")) == 3
        csv_lines = (out_dir / "grid_size.csv").read_text().splitlines()
        assert len(csv_lines) == 5  # header + 2 values x 2 algorithms

    def test_run_sweeps_script_writes_to_plan_dir(self, tmp_path):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text(
            "sweeps=grid_size\n"
            "grid_size.values=8\n"
            "size=10\nsg_distance=6\ndensity=0.15\n"
            "algorithms=ASTAR_ORACLE\n"
            "instances_per_point=1\nreps=1\n"
            f"output_dir={tmp_path / 'plan_out'}\n"
        )
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_sweeps.py"
        # an empty working directory: a stray default "results" would land here
        run_dir = tmp_path / "cwd"
        run_dir.mkdir()
        proc = subprocess.run([sys.executable, str(script), "--config", str(cfg)],
                              cwd=run_dir, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "plan_out" / "grid_size.csv").exists()
        assert os.listdir(run_dir) == []

    def test_bad_config_exit_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("density=1.5\n")
        assert main(["sweep", str(cfg)]) == 1


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, grid_file, capsys):
        assert main(["solve", grid_file]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


def test_grid_file_round_trip_identity(tmp_path):
    g = Grid(9, 7, frozenset({Coord(2, 3), Coord(4, 4), Coord(8, 0)}), (0, 6), (8, 1))
    p = tmp_path / "rt.txt"
    save_grid(g, p)
    assert load_grid(p) == g
    assert format_grid(load_grid(p)) == format_grid(g)
