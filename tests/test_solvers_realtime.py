import math

import pytest

from gridbench import (
    AlgorithmId,
    AllocationProbe,
    Coord,
    Grid,
    InvalidCellError,
    NoPathError,
    RandomGridSpec,
    astar_oracle,
    euclidean_heuristic,
    generate_random_grid,
    solve,
)
from gridbench.instrumentation import ARRAY_SLOT_BYTES
from gridbench.solvers import RealTimeAgent, SolverParams
from helpers import assert_valid_path, dijkstra_from

SQRT2 = math.sqrt(2)

REALTIME = (AlgorithmId.LRTA_STAR, AlgorithmId.RTAA_STAR)

# the goal (3, 3) walled in by a ring of 8 blocked cells
_RING = ((2, 2), (3, 2), (4, 2), (2, 3), (4, 3), (2, 4), (3, 4), (4, 4))
SEALED_GOAL = Grid(6, 6, frozenset(Coord(*c) for c in _RING), (0, 0), (3, 3))


@pytest.mark.parametrize("algo", REALTIME, ids=lambda a: a.value)
class TestBasics:
    def test_adjacent_goal_single_move(self, algo):
        g = Grid(4, 4, frozenset(), (1, 1), (2, 2))
        out = solve(g, algo)
        assert len(out.path) == 2
        assert out.path_cost in (1.0, pytest.approx(SQRT2))

    def test_empty_grid_single_episode_is_optimal(self, algo):
        # lookahead 250 covers the whole 5x5 grid, so the first episode
        # finds the straight diagonal
        out = solve(Grid(5, 5, frozenset(), (0, 0), (4, 4)), algo)
        assert out.path_cost == pytest.approx(4 * SQRT2)

    def test_executed_cost_lower_bounded_by_oracle(self, algo):
        for seed in range(15):
            g = generate_random_grid(RandomGridSpec(n=20, density=0.3, sg_distance=13, seed=seed))
            out = solve(g, algo)
            assert_valid_path(g, out.path, out.path_cost)
            assert out.path_cost >= astar_oracle(g).path_cost - 1e-9

    def test_small_lookahead_still_terminates(self, algo):
        g = generate_random_grid(RandomGridSpec(n=12, density=0.25, sg_distance=8, seed=3))
        out = solve(g, algo, SolverParams(lookahead=1))
        assert out.path[-1] == g.goal

    def test_no_path(self, algo):
        with pytest.raises(NoPathError):
            solve(SEALED_GOAL, algo)


class TestRtaaHeuristicUpdates:
    def test_consistency_preserved_after_each_episode(self):
        # with a consistent initial h, the bulk update keeps
        # h(s) <= c(s, s') + h(s') over the episode's expanded set
        for seed in range(6):
            g = generate_random_grid(RandomGridSpec(n=10, density=0.25, sg_distance=7, seed=seed))
            agent = RealTimeAgent(g, SolverParams(lookahead=12), AllocationProbe(), adaptive=True)
            for _ in range(400):
                done = agent.run_episode()
                for s in agent.last_closed:
                    hs = agent.h_value(s)
                    for n, c in g.neighbors8(s):
                        assert hs <= c + agent.h_value(n) + 1e-9
                if done:
                    break
            assert agent.done

    def test_updates_never_lower_h(self):
        g = generate_random_grid(RandomGridSpec(n=12, density=0.2, sg_distance=8, seed=1))
        agent = RealTimeAgent(g, SolverParams(lookahead=10), AllocationProbe(), adaptive=True)
        before = {
            (x, y): agent.h_value((x, y)) for x in range(12) for y in range(12)
        }
        while not agent.run_episode():
            pass
        for cell, h0 in before.items():
            assert agent.h_value(cell) >= h0 - 1e-9


class TestLrtaHeuristicUpdates:
    def test_learned_h_stays_admissible(self):
        for seed in range(8):
            g = generate_random_grid(RandomGridSpec(n=15, density=0.25, sg_distance=10, seed=seed))
            truth = dijkstra_from(g, g.goal)
            agent = RealTimeAgent(g, SolverParams(lookahead=20), AllocationProbe(), adaptive=False)
            while not agent.run_episode():
                pass
            for cell, d in truth.items():
                assert agent.h_value(cell) <= d + 1e-9, (seed, cell)

    def test_backup_is_local_fixpoint(self):
        # after every episode short of the goal, each expanded cell that is
        # not back on the open list satisfies the one-step dynamic-programming
        # equation over its neighbours.  Exactly: the backup sets h(s) to its
        # settling neighbour's h plus the step cost, the same sum this min
        # takes.  No expanded cell is re-opened, so no expanded cell is a
        # frontier seed that keeps its old h
        for corner_cutting in (False, True):
            for lookahead in (1, 15, SolverParams().lookahead):
                backups = 0
                for seed in range(8):
                    spec = RandomGridSpec(n=60, density=0.3, sg_distance=40, seed=seed)
                    g = generate_random_grid(spec, corner_cutting)
                    agent = RealTimeAgent(g, SolverParams(lookahead=lookahead),
                                          AllocationProbe(), adaptive=False)
                    while not agent.run_episode():
                        backups += 1
                        assert set(agent.last_open).isdisjoint(agent.last_closed)
                        for s in agent.last_closed:
                            expected = min(c + agent.h_value(n) for n, c in g.neighbors8(s))
                            assert agent.h_value(s) == expected, (corner_cutting, lookahead, seed, s)
                assert backups > 0, (corner_cutting, lookahead)


@pytest.mark.parametrize("adaptive", (False, True), ids=("lrta", "rtaa"))
@pytest.mark.parametrize("lookahead", (1, 15, SolverParams().lookahead))
def test_live_bytes_balance_after_every_episode(adaptive, lookahead):
    """Between episodes the probe holds the five per-cell arrays and nothing else.

    Each episode keeps its heap, closed-stack and settled-set bytes in
    locals; a charge with no matching release, or a lost write-back, that
    leaves the peak unchanged shows here and in no pinned counter.
    """
    for seed in range(4):
        for corner_cutting in (False, True):
            spec = RandomGridSpec(n=40, density=0.3, sg_distance=30, seed=seed)
            g = generate_random_grid(spec, corner_cutting)
            probe = AllocationProbe()
            agent = RealTimeAgent(g, SolverParams(lookahead=lookahead), probe, adaptive)
            arrays = 5 * g.width * g.height * ARRAY_SLOT_BYTES
            while not agent.run_episode():
                assert probe.live_bytes == arrays, (seed, corner_cutting)
            assert probe.live_bytes == 0


@pytest.mark.parametrize("adaptive", (False, True), ids=("lrta", "rtaa"))
@pytest.mark.parametrize("lookahead", (1, 15, SolverParams().lookahead))
def test_episode_walks_to_a_frontier_cell(adaptive, lookahead):
    """An episode short of the goal walks its whole tree path to an open cell.

    The walk passes only cells the episode expanded and ends on a cell of
    ``last_open``, so it moves at least one cell.  With a budget of 1 only
    the origin is expanded and the walk is a single step.
    """
    walks = 0
    for seed in range(4):
        for corner_cutting in (False, True):
            spec = RandomGridSpec(n=40, density=0.3, sg_distance=30, seed=seed)
            g = generate_random_grid(spec, corner_cutting)
            agent = RealTimeAgent(g, SolverParams(lookahead=lookahead), AllocationProbe(), adaptive)
            while True:
                start = len(agent.path)
                if agent.run_episode():
                    break
                walks += 1
                walk = agent.path[start:]
                assert walk, (seed, corner_cutting)
                assert walk[-1] in agent.last_open, (seed, corner_cutting)
                assert set(walk[:-1]) <= set(agent.last_closed), (seed, corner_cutting)
                if lookahead == 1:
                    assert len(walk) == 1, (seed, corner_cutting)
    assert walks > 0


@pytest.mark.parametrize("adaptive", (False, True), ids=("lrta", "rtaa"))
def test_live_bytes_zero_after_no_path(adaptive):
    # a directly built agent refuses an unsolvable grid before it charges anything
    probe = AllocationProbe()
    with pytest.raises(NoPathError, match="unreachable"):
        RealTimeAgent(SEALED_GOAL, SolverParams(), probe, adaptive)
    assert (probe.expansions, probe.live_bytes, probe.peak_bytes) == (0, 0, 0)


def test_h_value_rejects_out_of_bounds_cells():
    g = Grid(5, 5, frozenset(), (0, 0), (4, 4))
    agent = RealTimeAgent(g, SolverParams(), AllocationProbe(), adaptive=True)
    assert agent.h_value((4, 4)) == 0.0
    for cell in ((-1, 0), (5, 0), (0, 5), (6, 0)):
        with pytest.raises(InvalidCellError):
            agent.h_value(cell)


@pytest.mark.parametrize("adaptive", (False, True), ids=("lrta", "rtaa"))
def test_h_value_is_straight_line_until_expanded(adaptive):
    # h is computed on first read; every cell no episode expanded must read
    # exactly the straight-line distance, before and after some episodes
    g = generate_random_grid(RandomGridSpec(n=20, density=0.25, sg_distance=13, seed=4))
    cells = [(x, y) for y in range(g.height) for x in range(g.width)]
    fresh = RealTimeAgent(g, SolverParams(lookahead=5), AllocationProbe(), adaptive)
    assert all(fresh.h_value(c) == euclidean_heuristic(c, g.goal) for c in cells)
    agent = RealTimeAgent(g, SolverParams(lookahead=5), AllocationProbe(), adaptive)
    expanded = set()
    for _ in range(4):
        assert not agent.run_episode()
        expanded.update(agent.last_closed)
    untouched = [c for c in cells if c not in expanded]
    assert all(agent.h_value(c) == euclidean_heuristic(c, g.goal) for c in untouched)
    assert any(agent.h_value(c) > euclidean_heuristic(c, g.goal) for c in expanded)
    for cell in ((-1, 0), (20, 0), (0, 20), (-1, -1)):
        with pytest.raises(InvalidCellError):
            agent.h_value(cell)


class TestTrajectories:
    def test_path_records_revisits(self):
        # a dead-end pocket forces the agent to back out; every executed
        # move must appear in the path
        blocked = {(1, 2), (2, 2), (3, 2), (3, 1), (3, 0)}
        g = Grid(6, 4, frozenset(Coord(*c) for c in blocked), (0, 0), (5, 0))
        out = solve(g, AlgorithmId.LRTA_STAR, SolverParams(lookahead=2))
        assert out.path[0] == g.start and out.path[-1] == g.goal
        for a, b in zip(out.path, out.path[1:]):
            assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1

    def test_expansion_budget_respected_per_episode(self):
        g = generate_random_grid(RandomGridSpec(n=15, density=0.2, sg_distance=10, seed=2))
        agent = RealTimeAgent(g, SolverParams(lookahead=7), AllocationProbe(), adaptive=True)
        while True:
            before = agent.expanded
            done = agent.run_episode()
            assert agent.expanded - before <= 7
            if done:
                break
