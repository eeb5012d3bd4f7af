import math
import random

import pytest

from gridbench import (
    AlgorithmId,
    Coord,
    Grid,
    InvalidSpecError,
    NoPathError,
    RandomGridSpec,
    astar_oracle,
    generate_random_grid,
    solve,
)
from gridbench.instrumentation import AllocationProbe
from gridbench.solvers import (
    _RUNNERS,
    DStarLitePlanner,
    DStarPlanner,
    LpaStarPlanner,
    RealTimeAgent,
    SolverParams,
)
from helpers import assert_valid_path, bellman_ford_cost

SQRT2 = math.sqrt(2)

OPTIMAL_FAMILY = (
    AlgorithmId.ASTAR_ORACLE,
    AlgorithmId.LPA_STAR,
    AlgorithmId.D_STAR,
    AlgorithmId.D_STAR_LITE,
)

ALL_ALGOS = tuple(AlgorithmId)


# spellings AlgorithmId.parse accepts: each member's value and label in any
# case, with dashes, spaces or no underscores, plus ASTAR and ORACLE
PARSE_SPELLINGS = {
    AlgorithmId.LRTA_STAR: ("LRTA_STAR", "lrta_star", "Lrta-Star", "lrta star", "LRTASTAR",
                            "lrtastar", "LRTA*", "lrta*", " LRTA* "),
    AlgorithmId.RTAA_STAR: ("RTAA_STAR", "rtaa-star", "RTAA STAR", "rtaastar", "RTAA*", "rtaa*"),
    AlgorithmId.ARA_STAR: ("ARA_STAR", "ara_star", "ARA-STAR", "ara star", "ARASTAR", "ARA*",
                           "ara*"),
    AlgorithmId.LPA_STAR: ("LPA_STAR", "lpa-star", "LPA STAR", "lpastar", "LPA*", "lpa*"),
    AlgorithmId.D_STAR: ("D_STAR", "d_star", "D-STAR", "d star", "DSTAR", "dstar", "D*", "d*"),
    AlgorithmId.D_STAR_LITE: ("D_STAR_LITE", "d_star_lite", "D-Star-Lite", "d star lite",
                              "DSTAR_LITE", "DSTARLITE", "dstarlite", "D* Lite", "d*lite",
                              "D*-LITE", "D*_LITE"),
    AlgorithmId.ASTAR_ORACLE: ("ASTAR_ORACLE", "astar_oracle", "AStar-Oracle", "astar oracle",
                               "ASTARORACLE", "A*", "a*", "ASTAR", "astar", "A_STAR", "a-star",
                               "ORACLE", "oracle", " Oracle "),
}


def empty_grid(w, h, start=(0, 0), goal=None):
    return Grid(w, h, frozenset(), start, goal or (w - 1, h - 1))


# algorithm -> (expansions, live_bytes, peak_bytes) after the NoPathError
# of its own module runner on enclosed_goal_grid(), solve()'s check bypassed.
# A real-time agent refuses the grid before it charges anything
NO_PATH_PROBE = {
    AlgorithmId.LRTA_STAR: (0, 0, 0),
    AlgorithmId.RTAA_STAR: (0, 0, 0),
    AlgorithmId.ARA_STAR: (27, 5112, 5448),
    AlgorithmId.LPA_STAR: (27, 3888, 3952),
    AlgorithmId.D_STAR: (1, 136, 224),
    AlgorithmId.D_STAR_LITE: (1, 144, 160),
    AlgorithmId.ASTAR_ORACLE: (27, 3816, 4024),
}


def enclosed_goal_grid(n=6, goal=(3, 3)):
    """An n x n grid, start (0, 0), with the goal ringed by its 8 neighbours."""
    gx, gy = goal
    ring = {(gx + dx, gy + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy}
    return Grid(n, n, frozenset(Coord(*c) for c in ring), (0, 0), goal)


class TestOracle:
    def test_empty_diagonal(self):
        out = astar_oracle(empty_grid(3, 3))
        assert out.path_cost == pytest.approx(2 * SQRT2)

    def test_corridor(self):
        for length in (2, 5, 9):
            g = Grid(length, 1, frozenset(), (0, 0), (length - 1, 0))
            assert astar_oracle(g).path_cost == pytest.approx(length - 1)

    def test_matches_brute_force_relaxation(self):
        for seed in range(15):
            g = generate_random_grid(RandomGridSpec(n=15, density=0.25, sg_distance=10, seed=seed))
            out = astar_oracle(g)
            assert out.path_cost == pytest.approx(bellman_ford_cost(g), abs=1e-9)
            assert_valid_path(g, out.path, out.path_cost)


class TestSolveContract:
    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_parse_accepts_spellings(self, algo):
        assert {text: AlgorithmId.parse(text) for text in PARSE_SPELLINGS[algo]} == dict.fromkeys(
            PARSE_SPELLINGS[algo], algo)

    def test_parse_rejects_unknown(self):
        for text in ("", "A", "LRTA", "RTA*", "D**", "DLITE", "D*LITE*", "LPA*STAR",
                     "ORACLE_STAR", "A*ORACLE", "DIJKSTRA"):
            with pytest.raises(InvalidSpecError, match="unknown algorithm"):
                AlgorithmId.parse(text)

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_trivial_start_equals_goal(self, algo):
        g = Grid(4, 4, frozenset(), (1, 1), (1, 1))
        out = solve(g, algo)
        assert list(out.path) == [(1, 1)]
        assert repr(out.path_cost) == "0.0"
        assert out.peak_memory_bytes > 0

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_empty_grid_diagonal(self, algo):
        out = solve(empty_grid(5, 5), algo)
        assert out.path_cost == pytest.approx(4 * SQRT2)

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_no_path_raised_by_every_solver(self, algo):
        # solve() decides reachability before any solver runs or charges
        probe = AllocationProbe()
        with pytest.raises(NoPathError, match="unreachable"):
            solve(enclosed_goal_grid(), algo, probe=probe)
        assert (probe.expansions, probe.live_bytes, probe.peak_bytes) == (0, 0, 0)
        # each solver's own detection, solve()'s check bypassed.  The
        # probe's readings at the raise: a solver that keeps its byte
        # counts in locals must have written them back first
        probe = AllocationProbe()
        with pytest.raises(NoPathError):
            _RUNNERS[algo](enclosed_goal_grid(), SolverParams(), probe)
        assert (probe.expansions, probe.live_bytes, probe.peak_bytes) == NO_PATH_PROBE[algo]

    def test_sealed_300_goal_ends_before_any_charge(self):
        # every solve() ends before its solver runs, and so does a directly
        # built agent; the counts are asserted, not a time
        g = enclosed_goal_grid(300, (295, 295))
        for algo in ALL_ALGOS:
            probe = AllocationProbe()
            with pytest.raises(NoPathError, match="unreachable"):
                solve(g, algo, probe=probe)
            assert (probe.expansions, probe.live_bytes, probe.peak_bytes) == (0, 0, 0), algo
        for adaptive in (False, True):
            probe = AllocationProbe()
            with pytest.raises(NoPathError, match="unreachable"):
                RealTimeAgent(enclosed_goal_grid(300, (295, 295)), SolverParams(), probe, adaptive)
            assert (probe.expansions, probe.live_bytes, probe.peak_bytes) == (0, 0, 0)

    @pytest.mark.parametrize("algo", ALL_ALGOS, ids=lambda a: a.value)
    def test_deterministic_path_and_expansions(self, algo):
        g = generate_random_grid(RandomGridSpec(n=18, density=0.3, sg_distance=12, seed=9))
        a = solve(g, algo)
        b = solve(g, algo)
        assert a.path == b.path
        assert a.expanded == b.expanded
        assert a.peak_memory_bytes == b.peak_memory_bytes

    def test_no_path_symmetry_on_random_sealed_grids(self):
        rng = random.Random(0)
        tested = 0
        for seed in range(40):
            n = 8
            cells = [(x, y) for x in range(n) for y in range(n)]
            rng.shuffle(cells)
            blocked = frozenset(Coord(*c) for c in cells[2:2 + rng.randrange(5, 25)])
            g = Grid(n, n, blocked, cells[0], cells[1])
            failures = set()
            # the module runners, not solve(): each solver's own detection
            for algo in ALL_ALGOS:
                try:
                    _RUNNERS[algo](g, SolverParams(), AllocationProbe())
                except NoPathError:
                    failures.add(algo)
            assert failures in (set(), set(ALL_ALGOS)), f"asymmetric no-path on seed {seed}"
            assert (failures == set()) == g.solvable, f"is_solvable disagrees on seed {seed}"
            if failures:
                tested += 1
        assert tested > 0


class TestOptimalFamily:
    def test_equal_costs_on_random_grids(self):
        for seed in range(25):
            g = generate_random_grid(RandomGridSpec(n=30, density=0.25, sg_distance=20, seed=seed))
            ref = astar_oracle(g).path_cost
            for algo in OPTIMAL_FAMILY[1:]:
                out = solve(g, algo)
                assert out.path_cost == pytest.approx(ref, abs=1e-9), (seed, algo)
                assert_valid_path(g, out.path, out.path_cost)


class TestLpaIncremental:
    def test_first_run_equals_oracle(self):
        g = generate_random_grid(RandomGridSpec(n=20, density=0.25, sg_distance=13, seed=2))
        planner = LpaStarPlanner(g)
        path, cost, _ = planner.solve()
        assert cost == pytest.approx(astar_oracle(g).path_cost, abs=1e-9)
        assert_valid_path(g, path, cost)

    def test_block_on_path_cell_and_replan(self):
        rng = random.Random(7)
        replanned = 0
        for seed in range(15):
            g = generate_random_grid(RandomGridSpec(n=15, density=0.2, sg_distance=10, seed=seed))
            planner = LpaStarPlanner(g)
            path, _, _ = planner.solve()
            inner = path[1:-1]
            if not inner:
                continue
            cell = inner[rng.randrange(len(inner))]
            modified_blocked = frozenset(set(g.blocked) | {cell})
            try:
                g2 = Grid(g.width, g.height, modified_blocked, g.start, g.goal)
                expected = astar_oracle(g2).path_cost
            except NoPathError:
                expected = None
            planner.set_blocked(cell, True)
            try:
                planner.compute()
                new_path = planner.extract_path()
            except NoPathError:
                assert expected is None
                continue
            assert expected is not None
            assert cell not in new_path
            cost = sum(
                SQRT2 if a[0] != b[0] and a[1] != b[1] else 1.0
                for a, b in zip(new_path, new_path[1:])
            )
            assert cost == pytest.approx(expected, abs=1e-9), seed
            replanned += 1
        assert replanned >= 10

    def test_unblock_restores_cost(self):
        g = Grid(7, 7, frozenset(Coord(3, y) for y in range(6)), (0, 0), (6, 0))
        planner = LpaStarPlanner(g)
        _, detour_cost, _ = planner.solve()
        planner.set_blocked((3, 0), False)
        planner.compute()
        direct = planner.extract_path()
        assert len(direct) - 1 == 6
        assert detour_cost > 6


class TestDStarLiteAgent:
    def test_static_equals_oracle(self):
        g = generate_random_grid(RandomGridSpec(n=25, density=0.3, sg_distance=16, seed=4))
        out = solve(g, AlgorithmId.D_STAR_LITE)
        assert out.path_cost == pytest.approx(astar_oracle(g).path_cost, abs=1e-9)

    def test_move_two_steps_then_replan(self):
        moved = 0
        for seed in range(12):
            g = generate_random_grid(RandomGridSpec(n=15, density=0.2, sg_distance=10, seed=seed))
            planner = DStarLitePlanner(g)
            planner.compute()
            if len(planner.extract_path()) <= 3:
                continue
            planner.advance(2)
            planner.compute()
            rest = planner.extract_path()
            g2 = Grid(g.width, g.height, g.blocked, rest[0], g.goal)
            expected = astar_oracle(g2).path_cost
            got = sum(
                SQRT2 if a[0] != b[0] and a[1] != b[1] else 1.0
                for a, b in zip(rest, rest[1:])
            )
            assert got == pytest.approx(expected, abs=1e-9), seed
            moved += 1
        assert moved >= 8

    def test_advance_rejects_negative_steps_and_stays_for_zero(self):
        g = empty_grid(9, 9, (0, 4), (8, 4))
        planner = DStarLitePlanner(g)
        planner.compute()
        planner.advance(0)
        assert planner.position == (0, 4)
        with pytest.raises(InvalidSpecError, match="steps must be >= 0"):
            planner.advance(-1)
        assert planner.position == (0, 4)
        planner.advance(2)
        assert planner.position == (2, 4)

    def test_obstacle_appears_mid_route(self):
        g = empty_grid(9, 9, (0, 4), (8, 4))
        planner = DStarLitePlanner(g)
        planner.compute()
        planner.advance(2)
        planner.set_blocked((5, 4), True)
        planner.set_blocked((5, 3), True)
        planner.set_blocked((5, 5), True)
        planner.compute()
        rest = planner.extract_path()
        blocked = frozenset({Coord(5, 4), Coord(5, 3), Coord(5, 5)})
        g2 = Grid(9, 9, blocked, rest[0], (8, 4))
        assert sum(
            SQRT2 if a[0] != b[0] and a[1] != b[1] else 1.0 for a, b in zip(rest, rest[1:])
        ) == pytest.approx(astar_oracle(g2).path_cost, abs=1e-9)


class TestDStarReplan:
    def test_static_equals_oracle(self):
        for seed in range(8):
            g = generate_random_grid(RandomGridSpec(n=20, density=0.25, sg_distance=12, seed=seed))
            out = solve(g, AlgorithmId.D_STAR)
            assert out.path_cost == pytest.approx(astar_oracle(g).path_cost, abs=1e-9)

    def test_block_and_replan_matches_oracle(self):
        rng = random.Random(3)
        replanned = 0
        for seed in range(15):
            g = generate_random_grid(RandomGridSpec(n=15, density=0.2, sg_distance=10, seed=seed))
            planner = DStarPlanner(g)
            path, _, _ = planner.solve()
            inner = path[1:-1]
            if not inner:
                continue
            cell = inner[rng.randrange(len(inner))]
            try:
                g2 = Grid(g.width, g.height, frozenset(set(g.blocked) | {Coord(*cell)}), g.start, g.goal)
                expected = astar_oracle(g2).path_cost
            except NoPathError:
                expected = None
            planner.set_blocked(cell, True)
            planner.replan(g.start)
            try:
                new_path = planner.extract_path()
            except NoPathError:
                assert expected is None
                continue
            got = sum(
                SQRT2 if a[0] != b[0] and a[1] != b[1] else 1.0
                for a, b in zip(new_path, new_path[1:])
            )
            assert got == pytest.approx(expected, abs=1e-9), seed
            replanned += 1
        assert replanned >= 10

    def test_memory_exceeds_dstar_lite(self):
        g = generate_random_grid(RandomGridSpec(n=40, density=0.25, sg_distance=25, seed=1))
        d = solve(g, AlgorithmId.D_STAR)
        dl = solve(g, AlgorithmId.D_STAR_LITE)
        assert d.peak_memory_bytes > dl.peak_memory_bytes
