"""Whole-suite properties cutting across every solver."""

import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gridbench
import gridbench.grid as grid_module
from gridbench import (
    AlgorithmId,
    DStarLitePlanner,
    DStarPlanner,
    Grid,
    LpaStarPlanner,
    NoPathError,
    RandomGridSpec,
    WallGridSpec,
    astar_oracle,
    generate_random_grid,
    generate_wall_grid,
    solve,
)
from helpers import assert_valid_path

OPTIMAL = (AlgorithmId.ASTAR_ORACLE, AlgorithmId.LPA_STAR, AlgorithmId.D_STAR,
           AlgorithmId.D_STAR_LITE, AlgorithmId.ARA_STAR)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(6, 14),
    st.sampled_from([0.0, 0.15, 0.3]),
    st.integers(0, 10 ** 6),
    st.booleans(),
)
def test_suite_agreement_on_random_grids(n, density, seed, corner_cutting):
    sg = min(8, n - 1)
    grid = generate_random_grid(
        RandomGridSpec(n=n, density=density, sg_distance=sg, seed=seed),
        allow_corner_cutting=corner_cutting,
    )
    ref = astar_oracle(grid).path_cost
    for algo in AlgorithmId:
        out = solve(grid, algo)
        assert_valid_path(grid, out.path, out.path_cost)
        if algo in OPTIMAL:
            assert out.path_cost == pytest.approx(ref, abs=1e-9), algo
        else:
            assert out.path_cost >= ref - 1e-9, algo


def test_corner_cutting_changes_reachability():
    # two diagonally-touching obstacles seal the default movement model
    # but not the permissive one
    blocked = frozenset({(1, 0), (0, 1)})
    sealed = Grid(3, 3, blocked, (0, 0), (2, 2))
    open_ = Grid(3, 3, blocked, (0, 0), (2, 2), allow_corner_cutting=True)
    for algo in AlgorithmId:
        with pytest.raises(NoPathError):
            solve(sealed, algo)
        out = solve(open_, algo)
        assert out.path_cost == pytest.approx(2 * (2 ** 0.5))


@pytest.mark.parametrize("algo", list(AlgorithmId), ids=lambda a: a.value)
def test_serpentine_wall_grid(algo):
    grid = generate_wall_grid(WallGridSpec(num_walls=7, wall_length=27))
    ref = astar_oracle(grid).path_cost
    out = solve(grid, algo)
    assert_valid_path(grid, out.path, out.path_cost)
    assert out.path_cost >= ref - 1e-9
    if algo in OPTIMAL:
        assert out.path_cost == pytest.approx(ref, abs=1e-9)


def test_determinism_across_processes():
    # identical outcomes under different hash seeds: nothing leaks
    # iteration-order nondeterminism into paths, counts, or bytes.
    # PYTHONHASHSEED only changes str/bytes hashing, so this catches order
    # taken from sets or dicts keyed by strings (e.g. AlgorithmId names);
    # integer Coord tuples hash the same under every seed.  The wall grid is
    # there because a neighbour order taken from str hashes leaves every
    # reading on the small random grid unchanged but moves RTAA*'s
    # expansion count on the wall grid.
    snippet = (
        "import gridbench as gb\n"
        "print(gb.__file__)\n"
        "g = gb.generate_random_grid(gb.RandomGridSpec(n=18, density=0.3, sg_distance=12, seed=4))\n"
        "w = gb.generate_wall_grid(gb.WallGridSpec(num_walls=7, wall_length=21))\n"
        "outs = [gb.solve(x, a) for x in (g, w) for a in gb.AlgorithmId]\n"
        "print([ (o.path_cost, o.expanded, o.peak_memory_bytes, len(o.path)) for o in outs])\n"
    )
    # The child finds the package where this process imported it, whether
    # installed or on PYTHONPATH; no other PYTHON* variable is passed on.
    package_file = Path(gridbench.__file__).resolve()
    results = set()
    for hash_seed in ("0", "1", "31337"):
        proc = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True,
            env={"PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin:/usr/local/bin",
                 "PYTHONPATH": str(package_file.parent.parent)},
        )
        assert proc.returncode == 0, proc.stderr
        child_file, _, outcome = proc.stdout.partition("\n")
        assert Path(child_file).resolve() == package_file
        results.add(outcome)
    assert len(results) == 1


def test_every_solver_shares_one_mask_build(monkeypatch):
    # the masks are the grid's: every algorithm and every planner on one grid
    # reads or copies them, and none rebuilds them
    builds = []
    build = grid_module.arc_masks

    def counting(flags, steps):
        builds.append(1)
        return build(flags, steps)

    monkeypatch.setattr(grid_module, "arc_masks", counting)
    grid = generate_random_grid(RandomGridSpec(n=20, density=0.3, sg_distance=12, seed=1))
    for algo in AlgorithmId:
        solve(grid, algo)
    for cls in (LpaStarPlanner, DStarPlanner, DStarLitePlanner):
        cls(grid).plan(grid.start)
    assert len(builds) == 1


def test_mask_build_is_outside_the_timed_region(monkeypatch):
    build = grid_module.arc_masks

    def slow(flags, steps):
        time.sleep(0.2)
        return build(flags, steps)

    monkeypatch.setattr(grid_module, "arc_masks", slow)
    out = solve(Grid(5, 5, frozenset({(2, 2)}), (0, 0), (4, 4)), AlgorithmId.RTAA_STAR)
    assert out.solve_time_ms < 100
