import hashlib
import json
import math
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from gridbench import (
    Coord,
    GenerationError,
    Grid,
    InvalidSpecError,
    RandomGridSpec,
    WallGridSpec,
    euclidean_heuristic,
    format_grid,
    generate_instance_set,
    generate_random_grid,
    generate_wall_grid,
    is_solvable,
    obstacle_count,
    parse_grid,
    wall_length_sequence,
)
from gridbench import generators as genmod, grid as gridmod
from gridbench.generators import _distance_ring
from gridbench.grid import NEIGHBOR_STEPS, SQRT2
from helpers import grid_neighbors


class TestRandomGrids:
    def test_zero_density(self):
        g = generate_random_grid(RandomGridSpec(n=10, density=0.0, sg_distance=5, seed=7))
        assert len(g.blocked) == 0
        assert g.width == g.height == 10

    def test_exact_obstacle_count(self):
        g = generate_random_grid(RandomGridSpec(n=20, density=0.25, sg_distance=10, seed=1))
        assert obstacle_count(20, 0.25) == 100
        assert len(g.blocked) == 100

    def test_near_full_density_fails(self):
        with pytest.raises(GenerationError):
            generate_random_grid(RandomGridSpec(n=10, density=0.99, sg_distance=5, seed=1))

    def test_sg_distance_tolerance(self):
        for seed in range(10):
            g = generate_random_grid(RandomGridSpec(n=25, density=0.2, sg_distance=15, seed=seed))
            assert abs(euclidean_heuristic(g.start, g.goal) - 15) <= 0.5

    def test_generator_builds_from_cell_bytes(self, monkeypatch):
        def no_pairs(*args, **kwargs):
            raise AssertionError("Grid built from (x, y) pairs")

        monkeypatch.setattr(Grid, "__init__", no_pairs)
        g = generate_random_grid(RandomGridSpec(n=20, density=0.3, sg_distance=10, seed=2))
        assert len(g.blocked) == obstacle_count(20, 0.3)

    def test_deterministic(self):
        spec = RandomGridSpec(n=15, density=0.3, sg_distance=9, seed=42)
        assert format_grid(generate_random_grid(spec)) == format_grid(generate_random_grid(spec))

    def test_generated_grids_solvable(self):
        for seed in range(10):
            g = generate_random_grid(RandomGridSpec(n=15, density=0.35, sg_distance=8, seed=seed))
            assert is_solvable(g)

    def test_spec_invariants(self):
        with pytest.raises(InvalidSpecError):
            RandomGridSpec(n=2, density=0.1, sg_distance=1, seed=0)
        with pytest.raises(InvalidSpecError):
            RandomGridSpec(n=10, density=1.0, sg_distance=5, seed=0)
        with pytest.raises(InvalidSpecError):
            RandomGridSpec(n=10, density=0.1, sg_distance=13.0, seed=0)  # > sqrt2*(n-1)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(5, 16),
        st.sampled_from([0.0, 0.1, 0.2, 0.3]),
        st.integers(2, 6),
        st.integers(0, 10 ** 6),
    )
    def test_postconditions_hold(self, n, density, sg, seed):
        sg = min(sg, n - 1)
        spec = RandomGridSpec(n=n, density=density, sg_distance=sg, seed=seed)
        g = generate_random_grid(spec)
        assert g.width == g.height == n
        assert len(g.blocked) == obstacle_count(n, density)
        assert g.start not in g.blocked and g.goal not in g.blocked
        assert abs(euclidean_heuristic(g.start, g.goal) - sg) <= 0.5
        assert is_solvable(g)


class TestDistanceRing:
    """``_distance_ring`` bounds each row with isqrt; the full scan is the reference."""

    @staticmethod
    def full_scan(n, sg_distance):
        lo, hi = sg_distance - 0.5, sg_distance + 0.5
        return tuple((dx, dy) for dy in range(-(n - 1), n) for dx in range(-(n - 1), n)
                     if lo <= math.hypot(dx, dy) <= hi)

    @pytest.mark.parametrize("n", [3, 4, 7, 16, 29])
    def test_matches_full_scan(self, n):
        top = SQRT2 * (n - 1)
        distances = {0.0, 0.25, top, top - 0.5, math.nextafter(top, 0.0)}
        for k in range(2 * n):
            for d in (float(k), k + 0.5):
                distances |= {d, math.nextafter(d, 0.0), math.nextafter(d, math.inf),
                              d - 1e-9, d + 1e-9}
        for d in sorted(x for x in distances if 0.0 <= x <= top):
            assert _distance_ring.__wrapped__(n, d) == self.full_scan(n, d), (n, d)


class TestInstanceSets:
    def test_ten_instances(self):
        grids = generate_instance_set(RandomGridSpec(n=12, density=0.2, sg_distance=7, seed=3), 10)
        assert len(grids) == 10
        assert all(is_solvable(g) for g in grids)

    def test_singleton_matches_single_call(self):
        spec = RandomGridSpec(n=12, density=0.2, sg_distance=7, seed=11)
        assert generate_instance_set(spec, 1) == [generate_random_grid(spec)]

    def test_repeatable_elementwise(self):
        spec = RandomGridSpec(n=12, density=0.2, sg_distance=7, seed=5)
        a = [format_grid(g) for g in generate_instance_set(spec, 4)]
        b = [format_grid(g) for g in generate_instance_set(spec, 4)]
        assert a == b

    def test_consecutive_seeds(self):
        spec = RandomGridSpec(n=12, density=0.2, sg_distance=7, seed=5)
        grids = generate_instance_set(spec, 3)
        for i, g in enumerate(grids):
            expected = generate_random_grid(RandomGridSpec(n=12, density=0.2, sg_distance=7, seed=5 + i))
            assert g == expected

    def test_bad_count(self):
        with pytest.raises(InvalidSpecError):
            generate_instance_set(RandomGridSpec(n=12, density=0.2, sg_distance=7, seed=5), 0)


class TestWallGrids:
    def test_no_walls(self):
        g = generate_wall_grid(WallGridSpec(num_walls=0, wall_length=15))
        assert (g.width, g.height) == (31, 71)
        assert len(g.blocked) == 0
        assert g.start == (1, 1) and g.goal == (29, 69)

    def test_single_wall_left_anchored(self):
        g = generate_wall_grid(WallGridSpec(num_walls=1, wall_length=15))
        assert g.blocked == frozenset(Coord(x, 10) for x in range(15))

    def test_seven_walls_alternating(self):
        g = generate_wall_grid(WallGridSpec(num_walls=7, wall_length=15))
        assert len(g.blocked) == 105
        expected = set()
        for k in range(1, 8):
            if k % 2 == 1:
                expected |= {Coord(x, 10 * k) for x in range(15)}
            else:
                expected |= {Coord(x, 10 * k) for x in range(16, 31)}
        assert g.blocked == frozenset(expected)

    def test_exact_counts_and_gaps(self):
        for walls in range(8):
            for length in range(15, 28):
                g = generate_wall_grid(WallGridSpec(num_walls=walls, wall_length=length))
                assert len(g.blocked) == walls * length
                for k in range(1, walls + 1):
                    row = [x for x in range(31) if (x, 10 * k) not in g.blocked]
                    assert len(row) >= 1

    def test_all_configurations_solvable(self):
        for walls in (0, 3, 7):
            for length in (15, 29):
                assert is_solvable(generate_wall_grid(WallGridSpec(walls, length)))

    def test_spec_invariants(self):
        with pytest.raises(InvalidSpecError):
            WallGridSpec(num_walls=8, wall_length=15)
        with pytest.raises(InvalidSpecError):
            WallGridSpec(num_walls=1, wall_length=30)


class TestWallLengthSequence:
    def test_seven_lengths(self):
        assert len(wall_length_sequence()) == 7

    def test_values(self):
        assert wall_length_sequence() == [15, 17, 19, 21, 23, 25, 27]

    def test_step_two(self):
        seq = wall_length_sequence()
        assert all(b - a == 2 for a, b in zip(seq, seq[1:]))


def reference_reachable(grid) -> bool:
    """Plain breadth-first search over the coordinate reference neighbourhood."""
    seen = {grid.start}
    frontier = deque([grid.start])
    while frontier:
        for n, _ in grid_neighbors(grid, frontier.popleft()):
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    return grid.goal in seen


@st.composite
def solvability_grids(draw):
    """Small grids, some with start == goal and some with the goal sealed in."""
    w, h = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = [(x, y) for y in range(h) for x in range(w)]
    start = draw(st.sampled_from(cells))
    goal = start if draw(st.integers(0, 4)) == 0 else draw(st.sampled_from(cells))
    blocked = draw(st.sets(st.sampled_from(cells)))
    if draw(st.booleans()):
        gx, gy = goal
        blocked |= {(gx + dx, gy + dy) for dx, dy, _ in NEIGHBOR_STEPS} & set(cells)
    blocked -= {start, goal}
    return Grid(w, h, frozenset(blocked), start, goal, draw(st.booleans()))


class TestSolvability:
    def test_empty(self):
        assert is_solvable(Grid(5, 5, frozenset(), (0, 0), (4, 4)))

    def test_separating_row(self):
        blocked = frozenset(Coord(x, 2) for x in range(5))
        assert not is_solvable(Grid(5, 5, blocked, (0, 0), (4, 4)))

    def test_trivial(self):
        assert is_solvable(Grid(5, 5, frozenset(), (2, 2), (2, 2)))

    @settings(max_examples=200, deadline=None)
    @given(solvability_grids())
    def test_matches_reference_bfs(self, g):
        assert is_solvable(g) == reference_reachable(g)

    @pytest.mark.parametrize("text", [
        # the goal's side runs into cells the start's side has queued but not
        # expanded, and then has nothing left to expand
        "7 4\n.G#..S.\n.##..#.\n.#....#\n....#..\n",
        "5 5\n.....\n#....\nG##..\n..#.S\n.....\n",
        "5 5\n.#G..\n..#..\n...#.\n#....\nS....\n",
    ])
    def test_either_side_can_meet_the_other(self, text):
        g = parse_grid(text)
        swapped = Grid(g.width, g.height, g.blocked, g.goal, g.start)
        assert reference_reachable(g)
        assert is_solvable(g) and is_solvable(swapped)

    @pytest.mark.parametrize("end", ["goal", "start"])
    def test_sealed_end_answered_at_once(self, end, monkeypatch):
        # the reference grid with the start or the goal ringed by blocked cells
        g = generate_random_grid(RandomGridSpec(300, 0.25, 140.0, 0))
        x, y = getattr(g, end)
        ring = {(x + dx, y + dy) for dx, dy, _ in NEIGHBOR_STEPS}
        sealed = Grid(g.width, g.height, g.blocked | {c for c in ring if g.in_bounds(c)},
                      g.start, g.goal)
        calls = []
        neighbor_cells = gridmod.neighbor_cells

        def counted(i, flags, steps):
            calls.append(i)
            return neighbor_cells(i, flags, steps)

        monkeypatch.setattr(gridmod, "neighbor_cells", counted)
        assert not is_solvable(sealed)
        assert len(calls) <= 4
        calls.clear()
        assert is_solvable(g) and len(calls) > 4


class TestGridSolvable:
    """``Grid.solvable``: ``is_solvable`` of the grid, decided on first read and kept."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        """The grids ``generators.is_solvable`` is called on, in order."""
        seen = []

        def counted(grid):
            seen.append(grid)
            return is_solvable(grid)

        monkeypatch.setattr(genmod, "is_solvable", counted)
        return seen

    def test_cached_outside_equality_and_hash(self, calls):
        cut = frozenset(Coord(x, 2) for x in range(5))
        a, b = (Grid(5, 5, cut, (0, 0), (4, 4)) for _ in range(2))
        assert a == b and hash(a) == hash(b)
        assert a.solvable is False and a.solvable is False
        assert len(calls) == 1 and calls[0] is a
        assert "solvable" not in vars(b)
        assert a == b and hash(a) == hash(b)
        open_grid = Grid(5, 5, frozenset(), (0, 0), (4, 4))
        assert open_grid.solvable is True and len(calls) == 2

    def test_one_call_per_random_draw(self, calls, monkeypatch):
        # 28 draws, 27 of them rejected: one check per draw, none after
        draws = []
        from_cells = Grid.from_cells

        def counted(*args):
            grid = from_cells(*args)
            draws.append(grid)
            return grid

        monkeypatch.setattr(Grid, "from_cells", staticmethod(counted))
        g = generate_random_grid(RandomGridSpec(30, 0.45, 20.0, 0))
        assert len(calls) == len(draws) == 28
        assert all(c is d for c, d in zip(calls, draws))
        assert vars(g)["solvable"] is True
        g.solvable
        assert len(calls) == 28

    def test_generated_grids_carry_the_bit(self, calls):
        grids = [generate_random_grid(RandomGridSpec(20, 0.25, 12.0, seed)) for seed in range(3)]
        grids.append(generate_wall_grid(WallGridSpec(7, 21)))
        assert len(calls) >= 4 and calls[-1] is grids[-1]
        n = len(calls)
        assert all(vars(g)["solvable"] is True and g.solvable for g in grids)
        assert len(calls) == n


def grid_digest(grid) -> str:
    """sha256 of a canonical dump: size, sorted blocked cells, start, goal, movement rule."""
    dump = json.dumps({
        "width": grid.width,
        "height": grid.height,
        "blocked": sorted([c[0], c[1]] for c in grid.blocked),
        "start": list(grid.start),
        "goal": list(grid.goal),
        "allow_corner_cutting": grid.allow_corner_cutting,
    }, separators=(",", ":"))
    return hashlib.sha256(dump.encode()).hexdigest()


class TestGoldenGrids:
    """Generated grids are pinned: a spec yields the same grid in every version."""

    @pytest.mark.parametrize("spec, cc, digest", [
        # the reference instance: solvable on the first draw
        (RandomGridSpec(300, 0.25, 140.0, 0), False,
         "3e63c31a19f3446cd300327b95be38502dfbc3fea43c838c62a0ce81a4204925"),
        # dense: the first draw is rejected as unsolvable
        (RandomGridSpec(300, 0.40, 140.0, 1), False,
         "10b44c0bd4ab796ab6d2d4906f1c40ca0e364eeec35887a2ab5e42b67b47b4f7"),
        # start == goal: one cell, not two, leaves the obstacle pool
        (RandomGridSpec(12, 0.3, 0.0, 0), False,
         "55c8cde97cc99e90e952d55f4a2609e25c62bd12fc979d894ea3c86d867bd0a0"),
        # corner cutting, first draw rejected
        (RandomGridSpec(20, 0.55, 10.0, 4), True,
         "491b39a40994151a5b73bd35446262468f178d1d9546bd647b87881078aeff8e"),
        # smallest side, first draw rejected
        (RandomGridSpec(3, 0.5, 1.0, 3), False,
         "02abfb2b7c0a74bbf74ecc645b62fe85899318cf74876735a13b317f6f89a59e"),
        # a distance only corner-to-corner starts can reach
        (RandomGridSpec(5, 0.2, 5.5, 3), False,
         "aa2d6a3377a7c6edb7d34b8ce22f4c10ed5a6dbefda36bac4bd3d755503573d4"),
        (RandomGridSpec(20, 0.0, 10.0, 4), False,
         "79243b84d4b73fe4922b2cd273640e405c12f94896c787524781739aab7a5166"),
    ])
    def test_digest(self, spec, cc, digest):
        assert grid_digest(generate_random_grid(spec, cc)) == digest
