"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Criteria that depend on randomness pin their seeds; the
whole module is deterministic apart from wall-clock timings.
"""

import os
import random

import pytest

from gridbench import (
    AlgorithmId,
    AllocationProbe,
    Coord,
    Grid,
    Priority,
    RandomGridSpec,
    SelectionRequest,
    WallGridSpec,
    aggregate,
    ara_star_iterates,
    astar_oracle,
    euclidean_heuristic,
    format_grid,
    generate_random_grid,
    generate_wall_grid,
    obstacle_count,
    run_repetitions,
    select_algorithm,
    solve,
)
from gridbench.cli import main as cli_main
from gridbench.experiments import FixedParams, SweepConfig, SweepKind, run_sweep
from gridbench.reporting import render_plots
from gridbench.solvers import RealTimeAgent, SolverParams
from helpers import spearman, two_pass_stats

TOL = 1e-9

# 30x30, density 0.25 instance family shared by criteria 1-3
ACCEPTANCE_SG = 20.0


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def grid_family():
    return [
        generate_random_grid(RandomGridSpec(n=30, density=0.25, sg_distance=ACCEPTANCE_SG, seed=s))
        for s in range(100)
    ]


@pytest.fixture(scope="module")
def oracle_costs(grid_family):
    return [astar_oracle(g).path_cost for g in grid_family]


def test_criterion_1_optimal_family_equivalence(grid_family, oracle_costs):
    worst = 0.0
    for g, ref in zip(grid_family, oracle_costs):
        for algo in (AlgorithmId.LPA_STAR, AlgorithmId.D_STAR, AlgorithmId.D_STAR_LITE):
            got = solve(g, algo).path_cost
            worst = max(worst, abs(got - ref))
    _report(1, worst <= TOL,
            f"oracle/LPA*/D*/D* Lite path costs agree on 100 grids (max spread {worst:.2e})")


def test_criterion_2_ara_star_bound(grid_family, oracle_costs):
    failures = []
    for i, (g, ref) in enumerate(zip(grid_family, oracle_costs)):
        its = ara_star_iterates(g)
        costs = [c for _, c in its]
        if its[0][0] != 2.5:
            failures.append(f"grid {i}: first weight {its[0][0]}")
        if costs[0] > 2.5 * ref + TOL:
            failures.append(f"grid {i}: first cost {costs[0]:.6f} > 2.5x{ref:.6f}")
        if any(b > a + TOL for a, b in zip(costs, costs[1:])):
            failures.append(f"grid {i}: costs increased {costs}")
        if abs(costs[-1] - ref) > TOL:
            failures.append(f"grid {i}: final {costs[-1]:.9f} != oracle {ref:.9f}")
    _report(2, not failures,
            "ARA* bounded by 2.5x oracle, nonincreasing, exact at w=1 on 100 grids"
            + (f" [{failures[:2]}]" if failures else ""))


def test_criterion_3_realtime_completeness(grid_family, oracle_costs):
    failures = []
    for i, (g, ref) in enumerate(zip(grid_family, oracle_costs)):
        for algo in (AlgorithmId.LRTA_STAR, AlgorithmId.RTAA_STAR):
            out = solve(g, algo)  # lookahead 250 default
            if out.path[-1] != g.goal:
                failures.append(f"grid {i}: {algo.value} did not reach the goal")
            if out.path_cost < ref - TOL:
                failures.append(f"grid {i}: {algo.value} beat the oracle")
    # consistency of the adaptive update, checked after every episode; the
    # budget is kept below the component size so updates actually happen
    for seed in range(20):
        g = generate_random_grid(RandomGridSpec(n=15, density=0.25, sg_distance=9, seed=seed))
        agent = RealTimeAgent(g, SolverParams(lookahead=20), AllocationProbe(), adaptive=True)
        for _ in range(500):
            done = agent.run_episode()
            for s in agent.last_closed:
                hs = agent.h_value(s)
                for n, c in g.neighbors8(s):
                    if hs > c + agent.h_value(n) + TOL:
                        failures.append(f"15x15 seed {seed}: h({s}) inconsistent vs {n}")
            if done:
                break
        else:
            failures.append(f"15x15 seed {seed}: agent did not finish")
    _report(3, not failures,
            "LRTA*/RTAA* reach the goal at >= oracle cost on 100 grids; "
            "RTAA* h stays consistent on 20 instances"
            + (f" [{failures[:2]}]" if failures else ""))


def test_criterion_4_selector_truth_table():
    near = Grid(142, 3, frozenset(), (0, 1), (100, 1))    # distance 100 < 140
    far = Grid(152, 3, frozenset(), (0, 1), (150, 1))     # distance 150 >= 140
    boundary = Grid(142, 3, frozenset(), (0, 1), (140, 1))  # distance exactly 140
    cases = [
        (SelectionRequest(grid=near, priority=Priority.MEMORY), AlgorithmId.D_STAR_LITE),
        (SelectionRequest(grid=near, priority=Priority.PATH_COST), AlgorithmId.D_STAR_LITE),
        (SelectionRequest(grid=far, priority=Priority.SOLVING_TIME), AlgorithmId.RTAA_STAR),
        (SelectionRequest(grid=near, priority=Priority.SOLVING_TIME), AlgorithmId.ARA_STAR),
        (SelectionRequest(grid=boundary, priority=Priority.SOLVING_TIME), AlgorithmId.RTAA_STAR),
    ]
    wrong = [(req.priority, got, want) for req, want in cases
             if (got := select_algorithm(req)) is not want]
    _report(4, not wrong, "selection truth table incl. boundary d == threshold -> RTAA*"
            + (f" [{wrong}]" if wrong else ""))


def test_criterion_5_wall_grid_fidelity():
    failures = []
    d = euclidean_heuristic(Coord(1, 1), Coord(29, 69))
    if abs(d - 73.539) > 1e-3:
        failures.append(f"start-goal distance {d:.6f}")
    for walls in range(0, 8):
        for length in range(15, 28):
            g = generate_wall_grid(WallGridSpec(num_walls=walls, wall_length=length))
            if len(g.blocked) != walls * length:
                failures.append(f"({walls},{length}): {len(g.blocked)} blocked cells")
            if euclidean_heuristic(g.start, g.goal) != d:
                failures.append(f"({walls},{length}): start/goal moved")
    _report(5, not failures,
            f"wall grids: start-goal distance 73.539, exact blocked counts over [0,7]x[15,27]"
            + (f" [{failures[:2]}]" if failures else ""))


def test_criterion_6_generator_exactness():
    rng = random.Random(2024)
    failures = []
    for _ in range(50):
        n = rng.randint(8, 28)
        density = rng.choice([0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
        sg = rng.randint(2, max(2, n - 2))
        seed = rng.randrange(10 ** 6)
        spec = RandomGridSpec(n=n, density=density, sg_distance=sg, seed=seed)
        g = generate_random_grid(spec)
        if len(g.blocked) != obstacle_count(n, density):
            failures.append(f"{spec}: wrong count")
        if solve(g, AlgorithmId.ASTAR_ORACLE).path[-1] != g.goal:
            failures.append(f"{spec}: unsolvable output")
        if format_grid(g) != format_grid(generate_random_grid(spec)):
            failures.append(f"{spec}: not byte-identical on regeneration")
    _report(6, not failures, "50 specs: exact obstacle counts, solvable, byte-identical regeneration"
            + (f" [{failures[:2]}]" if failures else ""))


def test_criterion_7_memory_ordering():
    dlite_wins = lpa_wins = 0
    for seed in range(10):
        g = generate_random_grid(RandomGridSpec(n=100, density=0.25, sg_distance=50, seed=seed))
        mem = {
            algo: solve(g, algo).peak_memory_bytes
            for algo in (AlgorithmId.D_STAR_LITE, AlgorithmId.RTAA_STAR,
                         AlgorithmId.LPA_STAR, AlgorithmId.D_STAR)
        }
        dlite_wins += mem[AlgorithmId.D_STAR_LITE] < mem[AlgorithmId.RTAA_STAR]
        lpa_wins += mem[AlgorithmId.LPA_STAR] < mem[AlgorithmId.D_STAR]
    ok = dlite_wins >= 9 and lpa_wins >= 9
    _report(7, ok,
            f"peak memory ordering on 100x100: D* Lite < RTAA* on {dlite_wins}/10, "
            f"LPA* < D* on {lpa_wins}/10 (need >= 9)")


def test_criterion_8_distance_trend():
    cfg = SweepConfig(
        kind=SweepKind.SG_DISTANCE,
        values=(15, 30, 45, 60, 75),
        fixed=FixedParams(density=0.25, size=100, sg_distance=50.0),
        algorithms=(
            AlgorithmId.ASTAR_ORACLE,
            AlgorithmId.LRTA_STAR,
            AlgorithmId.RTAA_STAR,
            AlgorithmId.ARA_STAR,
            AlgorithmId.LPA_STAR,
            AlgorithmId.D_STAR,
            AlgorithmId.D_STAR_LITE,
        ),
        instances_per_point=5,
        reps=1,
        seed=0,
    )
    report = run_sweep(cfg)
    failures = []
    by_algo = {}
    for row in report.rows:
        by_algo.setdefault(row.algorithm, []).append((row.value, row.stats["path_cost"].mean))
    oracle_means = [m for _, m in sorted(by_algo[AlgorithmId.ASTAR_ORACLE])]
    if any(b <= a for a, b in zip(oracle_means, oracle_means[1:])):
        failures.append(f"oracle means not strictly increasing: {oracle_means}")
    rhos = {}
    for algo in cfg.algorithms:
        if algo is AlgorithmId.ASTAR_ORACLE:
            continue
        pts = sorted(by_algo[algo])
        rho = spearman([p[0] for p in pts], [p[1] for p in pts])
        rhos[algo.label] = round(rho, 3)
        if rho <= 0.9:
            failures.append(f"{algo.value}: spearman {rho:.3f}")
    _report(8, not failures,
            f"oracle cost strictly increasing with distance; spearman per algorithm {rhos}"
            + (f" [{failures[:2]}]" if failures else ""))


def test_criterion_9_harness_statistics():
    rng = random.Random(99)
    failures = []
    for _ in range(1000):
        samples = [rng.uniform(-1000, 1000) for _ in range(rng.randint(1, 60))]
        stats = aggregate(samples)
        mean, std = two_pass_stats(samples)
        if abs(stats.mean - mean) > TOL or abs(stats.stddev - std) > TOL:
            failures.append(f"aggregate mismatch on n={len(samples)}")
            break
    g = generate_random_grid(RandomGridSpec(n=20, density=0.25, sg_distance=12, seed=0))
    for algo in (AlgorithmId.ASTAR_ORACLE, AlgorithmId.RTAA_STAR, AlgorithmId.D_STAR_LITE):
        stats = run_repetitions(g, algo, reps=100)
        if stats["path_cost"].stddev != 0.0 or stats["memory_kb"].stddev != 0.0:
            failures.append(f"{algo.value}: deterministic metric varied across 100 reps")
    _report(9, not failures,
            "aggregate matches two-pass oracle on 1000 lists; deterministic metrics "
            "have zero stddev over 100 reps" + (f" [{failures[:2]}]" if failures else ""))


def test_criterion_10_end_to_end(tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(
        # the default five-sweep plan, scaled down for an end-to-end run
        "instances_per_point=3\n"
        "reps=5\n"
        "size=20\n"
        "sg_distance=10\n"
        "density=0.2\n"
        "grid_size.values=12,16,20\n"
        "sg_distance.values=6,9,12\n"
        "density.values=0.1,0.2,0.3\n"
        "wall_count.values=0,1,2\n"
        "wall_length.values=15,17\n"
        f"output_dir={tmp_path / 'out'}\n"
    )
    rc = cli_main(["sweep", str(cfg)])
    failures = []
    if rc != 0:
        failures.append(f"sweep exit code {rc}")
    out_dir = tmp_path / "out"
    csvs = sorted(p for p in os.listdir(out_dir) if p.endswith(".csv"))
    svgs = sorted(p for p in os.listdir(out_dir) if p.endswith(".svg"))
    if len(csvs) != 5:
        failures.append(f"expected 5 CSVs, got {csvs}")
    if len(svgs) != 15:
        failures.append(f"expected 15 SVGs, got {len(svgs)}")
    expected_rows = {
        "grid_size.csv": 18, "sg_distance.csv": 18, "density.csv": 18,
        "wall_count.csv": 18, "wall_length.csv": 12,  # |algorithms| x |values|
    }
    for name, want in expected_rows.items():
        lines = (out_dir / name).read_text().splitlines()
        if len(lines) != want + 1:
            failures.append(f"{name}: {len(lines) - 1} rows, expected {want}")
    # determinism: re-render the wall_length sweep and compare bytes
    plan_cfg = SweepConfig(
        kind=SweepKind.WALL_LENGTH,
        values=(15, 17),
        fixed=FixedParams(density=0.2, size=20, sg_distance=10.0),
        instances_per_point=3,
        reps=5,
        seed=0,
    )
    report = run_sweep(plan_cfg)
    a = render_plots(report, tmp_path / "svg_a")
    b = render_plots(report, tmp_path / "svg_b")
    for pa, pb in zip(a, b):
        if open(pa, "rb").read() != open(pb, "rb").read():
            failures.append(f"nondeterministic SVG {os.path.basename(pa)}")

    # Table-1-shaped evaluation on a dense 100x100 instance
    grid_file = tmp_path / "dense.txt"
    rc = cli_main(["gen", "random", str(grid_file), "--n", "100", "--density", "0.35",
                   "--sg-distance", "43", "--seed", "0"])
    if rc != 0:
        failures.append(f"gen exit code {rc}")
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(["evaluate", str(grid_file), "--priority", "memory", "--reps", "2"])
    lines = buf.getvalue().strip().splitlines()
    if rc != 0:
        failures.append(f"evaluate exit code {rc}")
    if len(lines) != 6 or not lines[0].startswith("algorithm,"):
        failures.append(f"evaluate output shape: {lines[:2]}")
    if lines[4] != "selected: D_STAR_LITE":
        failures.append(f"evaluate selection line: {lines[4]}")
    candidate_rows = [ln for ln in lines[1:4] if ln.count(",") == len(lines[0].split(",")) - 1]
    if len(candidate_rows) != 3:
        failures.append("expected three candidate rows")
    _report(10, not failures,
            "scaled default sweep wrote 5 CSVs with correct row counts and 15 "
            "deterministic SVGs; evaluate printed three candidate rows plus the choice"
            + (f" [{failures[:3]}]" if failures else ""))
