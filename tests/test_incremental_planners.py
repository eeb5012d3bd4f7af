"""Incremental planners stay exact under any sequence of obstacle toggles.

LPA*, D* and D* Lite repair their solution after every block or unblock;
D* Lite also moves its agent between toggles.  After each change the
repaired path must be a legal chain on the modified grid and cost exactly
what the A* oracle finds on that grid from the agent's cell, and the
planner must report NoPathError exactly when the oracle does.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from gridbench import (
    DStarLitePlanner,
    DStarPlanner,
    Grid,
    InvalidCellError,
    LpaStarPlanner,
    NoPathError,
    RandomGridSpec,
    astar_oracle,
    generate_random_grid,
    path_cost_of,
)

MAX_SIDE = 12

# ("toggle", x, y) flips any cell; ("near", k, d) flips the cell at offset d
# (of the 3x3 block) from the k-th cell of the current path, where repairs
# do real work; ("advance", k, 0) moves the D* Lite agent k steps (a no-op
# for the planners without an agent)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("toggle"), st.integers(0, MAX_SIDE - 1), st.integers(0, MAX_SIDE - 1)),
        st.tuples(st.just("near"), st.integers(0, 4 * MAX_SIDE), st.integers(0, 8)),
        st.tuples(st.just("advance"), st.integers(1, 3), st.just(0)),
    ),
    max_size=8,
)


class _Lpa:
    def __init__(self, grid):
        self.p = LpaStarPlanner(grid)
        self.position = grid.start

    def repair(self):
        self.p.compute()
        return self.p.extract_path()

    def toggle(self, cell, blocked):
        self.p.set_blocked(cell, blocked)


class _DStar:
    def __init__(self, grid):
        self.p = DStarPlanner(grid)
        self.p.initial_run()
        self.position = grid.start

    def repair(self):
        self.p.replan(self.position)
        return self.p.extract_path(self.position)

    def toggle(self, cell, blocked):
        self.p.set_blocked(cell, blocked)


class _DStarLite:
    def __init__(self, grid):
        self.p = DStarLitePlanner(grid)
        self.position = grid.start

    def repair(self):
        self.p.compute()
        return self.p.extract_path()

    def toggle(self, cell, blocked):
        self.p.set_blocked(cell, blocked)

    def advance(self, steps):
        self.p.advance(steps)
        self.position = self.p.position


def _oracle_cost(grid, blocked, origin):
    g = Grid(grid.width, grid.height, frozenset(blocked), origin, grid.goal,
             grid.allow_corner_cutting)
    try:
        return g, astar_oracle(g).path_cost
    except NoPathError:
        return g, None


def _check(planner, grid, blocked):
    """The repaired path, or None when the goal is unreachable."""
    g, expected = _oracle_cost(grid, blocked, planner.position)
    if expected is None:
        with pytest.raises(NoPathError):
            planner.repair()
        return None
    path = planner.repair()
    assert path[0] == planner.position and path[-1] == grid.goal
    for a, b in zip(path, path[1:]):
        assert b in dict(g.neighbors8(a)), (a, b)
    assert path_cost_of(path) == pytest.approx(expected, abs=1e-9)
    return path


@pytest.mark.parametrize("make", [_Lpa, _DStar, _DStarLite], ids=["LPA*", "D*", "D* Lite"])
@settings(max_examples=60, deadline=None)
# a k1 one ulp above the target's once stopped the repair before it began
@example(n=11, density=0.0, seed=2551, corner_cutting=False, ops=[("near", 0, 6), ("toggle", 6, 6)])
@example(n=10, density=0.15, seed=195215, corner_cutting=False,
         ops=[("near", 2, 5), ("toggle", 2, 2), ("toggle", 5, 3)])
@given(
    n=st.integers(4, MAX_SIDE),
    density=st.sampled_from([0.0, 0.15, 0.3]),
    seed=st.integers(0, 10 ** 6),
    corner_cutting=st.booleans(),
    ops=OPS,
)
def test_repairs_match_oracle(make, n, density, seed, corner_cutting, ops):
    grid = generate_random_grid(
        RandomGridSpec(n=n, density=density, sg_distance=min(6, n - 1), seed=seed),
        allow_corner_cutting=corner_cutting,
    )
    planner = make(grid)
    blocked = set(grid.blocked)
    path = last_path = _check(planner, grid, blocked)
    for op, a, b in ops:
        if op == "advance":
            if path is None or not hasattr(planner, "advance"):
                continue
            planner.advance(a)
        else:
            if op == "near":
                x, y = last_path[a % len(last_path)]
                cell = (x + b % 3 - 1, y + b // 3 - 1)
            else:
                cell = (a % n, b % n)
            if not grid.in_bounds(cell) or cell in (
                    tuple(grid.start), tuple(grid.goal), tuple(planner.position)):
                continue
            now_blocked = cell not in blocked
            planner.toggle(cell, now_blocked)
            if now_blocked:
                blocked.add(cell)
            else:
                blocked.discard(cell)
        path = _check(planner, grid, blocked)
        last_path = path or last_path


@pytest.mark.parametrize("cls", [LpaStarPlanner, DStarPlanner, DStarLitePlanner],
                         ids=["LPA*", "D*", "D* Lite"])
def test_out_of_bounds_toggle_rejected(cls):
    planner = cls(Grid(5, 4, frozenset(), (0, 0), (4, 3)))
    for cell in ((-1, 0), (5, 0), (0, 4), (7, 1)):
        with pytest.raises(InvalidCellError):
            planner.set_blocked(cell)


def _dstar_lite_script(seed):
    """Twelve toggles on a 20/30/40-cell grid, the agent moving 3 steps before every other one.

    Every repair is checked against the oracle; returns the total expansions.
    """
    n = (20, 30, 40)[seed % 3]
    grid = generate_random_grid(RandomGridSpec(n=n, density=0.25, sg_distance=0.6 * n, seed=seed))
    planner = _DStarLite(grid)
    blocked = set(grid.blocked)
    rng = random.Random(seed)
    path = _check(planner, grid, blocked)
    for event in range(12):
        if event % 2 == 1 and path is not None and len(path) > 4:
            planner.advance(3)
        while True:
            if path is not None and rng.random() < 0.5:
                cell = tuple(path[rng.randrange(len(path))])
            else:
                cell = (rng.randrange(n), rng.randrange(n))
            if cell not in (tuple(grid.goal), tuple(planner.position)):
                break
        now_blocked = cell not in blocked
        planner.toggle(cell, now_blocked)
        (blocked.add if now_blocked else blocked.discard)(cell)
        path = _check(planner, grid, blocked)
    return planner.p.expanded


# seed -> total expansions of the script; k_m keeps every queued key a lower
# bound while the agent moves, so a planner that drops it expands a
# different set of cells (and, on seed 3, repairs to a wrong cost)
SCRIPTED_EXPANSIONS = {
    0: 169,
    1: 543,
    2: 453,
    3: 171,
    4: 744,
    5: 517,
    6: 214,
    7: 433,
    8: 989,
    9: 246,
    10: 101,
    11: 560,
    # the early stop on float key ties broke repairs of these three
    17: 1088,
    23: 1277,
    57: 63,
}


@pytest.mark.parametrize("seed", sorted(SCRIPTED_EXPANSIONS))
def test_dstar_lite_scripted_replans(seed):
    assert _dstar_lite_script(seed) == SCRIPTED_EXPANSIONS[seed]
