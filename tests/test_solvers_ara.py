import pytest

from gridbench import (
    AlgorithmId,
    Grid,
    NoPathError,
    RandomGridSpec,
    ara_star_iterates,
    astar_oracle,
    generate_random_grid,
    solve,
)
from gridbench.solvers import SolverParams
from helpers import assert_valid_path


class TestWeightSchedule:
    def test_default_rounds(self):
        g = generate_random_grid(RandomGridSpec(n=15, density=0.25, sg_distance=10, seed=0))
        weights = [w for w, _ in ara_star_iterates(g)]
        assert weights == [2.5, 2.0, 1.5, 1.0]

    def test_custom_schedule(self):
        g = generate_random_grid(RandomGridSpec(n=12, density=0.2, sg_distance=8, seed=1))
        params = SolverParams(ara_initial_weight=3.0, ara_weight_decrement=1.0)
        weights = [w for w, _ in ara_star_iterates(g, params)]
        assert weights == [3.0, 2.0, 1.0]

    def test_weight_one_single_round(self):
        g = generate_random_grid(RandomGridSpec(n=12, density=0.2, sg_distance=8, seed=2))
        its = ara_star_iterates(g, SolverParams(ara_initial_weight=1.0))
        assert len(its) == 1
        assert its[0][1] == pytest.approx(astar_oracle(g).path_cost, abs=1e-9)


class TestSuboptimalityBounds:
    def test_first_round_within_weight_times_optimal(self):
        for seed in range(15):
            g = generate_random_grid(RandomGridSpec(n=20, density=0.3, sg_distance=13, seed=seed))
            oracle = astar_oracle(g).path_cost
            its = ara_star_iterates(g)
            assert its[0][1] <= 2.5 * oracle + 1e-9

    def test_costs_nonincreasing(self):
        for seed in range(15):
            g = generate_random_grid(RandomGridSpec(n=20, density=0.3, sg_distance=13, seed=seed))
            costs = [c for _, c in ara_star_iterates(g)]
            assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

    def test_final_cost_optimal(self):
        for seed in range(15):
            g = generate_random_grid(RandomGridSpec(n=20, density=0.3, sg_distance=13, seed=seed))
            out = solve(g, AlgorithmId.ARA_STAR)
            assert out.path_cost == pytest.approx(astar_oracle(g).path_cost, abs=1e-9)
            assert_valid_path(g, out.path, out.path_cost)


class TestEdges:
    def test_empty_grid_optimal_from_first_round(self):
        g = Grid(8, 8, frozenset(), (0, 0), (7, 7))
        its = ara_star_iterates(g)
        oracle = astar_oracle(g).path_cost
        assert its[0][1] == pytest.approx(oracle, abs=1e-9)

    def test_no_path(self):
        from gridbench import Coord

        ring = {(2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (3, 4), (4, 4)}
        g = Grid(6, 6, frozenset(Coord(*c) for c in ring), (0, 0), (3, 3))
        with pytest.raises(NoPathError):
            solve(g, AlgorithmId.ARA_STAR)

    def test_expanded_counts_all_rounds(self):
        g = generate_random_grid(RandomGridSpec(n=20, density=0.3, sg_distance=13, seed=4))
        multi = solve(g, AlgorithmId.ARA_STAR)
        single = solve(g, AlgorithmId.ARA_STAR, SolverParams(ara_initial_weight=1.0))
        assert multi.expanded >= single.expanded or multi.expanded > 0
