import math

import pytest
from hypothesis import given, settings, strategies as st

from gridbench import (
    AdjacencyError,
    Coord,
    Grid,
    GridFormatError,
    InvalidCellError,
    euclidean_heuristic,
    format_grid,
    parse_grid,
    step_cost,
)
from gridbench.grid import BLOCKED, FREE, neighbor_cells
from helpers import dijkstra_from, grid_neighbors, reference_neighbors

SQRT2 = math.sqrt(2)


def empty_grid(w, h, start=(0, 0), goal=None):
    return Grid(w, h, frozenset(), start, goal or (w - 1, h - 1))


class TestBounds:
    def test_origin_in_bounds(self):
        assert empty_grid(10, 10).in_bounds(Coord(0, 0))

    def test_one_past_edge(self):
        assert not empty_grid(10, 10).in_bounds(Coord(10, 0))

    def test_tall_grid_interior(self):
        g = Grid(31, 71, frozenset(), (1, 1), (29, 69))
        assert g.in_bounds(Coord(29, 69))

    def test_negative_out(self):
        assert not empty_grid(5, 5).in_bounds(Coord(-1, 2))


class TestTraversable:
    def test_empty_grid_all_traversable(self):
        g = empty_grid(4, 4)
        assert all(g.is_traversable((x, y)) for x in range(4) for y in range(4))

    def test_blocked_cell(self):
        g = Grid(4, 4, frozenset({Coord(2, 2)}), (0, 0), (3, 3))
        assert not g.is_traversable(Coord(2, 2))

    def test_out_of_bounds_not_traversable(self):
        assert not empty_grid(4, 4).is_traversable(Coord(4, 1))


class TestNeighbors:
    def test_interior_cell_full_neighborhood(self):
        g = empty_grid(5, 5)
        ns = g.neighbors8(Coord(2, 2))
        assert len(ns) == 8
        assert sum(1 for _, c in ns if c == 1.0) == 4
        assert sum(1 for _, c in ns if c == SQRT2) == 4

    def test_clockwise_order_from_north(self):
        g = empty_grid(5, 5)
        coords = [n for n, _ in g.neighbors8(Coord(2, 2))]
        assert coords == [
            (2, 1), (3, 1), (3, 2), (3, 3), (2, 3), (1, 3), (1, 2), (1, 1),
        ]

    def test_corner(self):
        g = empty_grid(10, 10)
        ns = dict(g.neighbors8(Coord(0, 0)))
        assert ns == {Coord(1, 0): 1.0, Coord(0, 1): 1.0, Coord(1, 1): SQRT2}

    def test_corner_cut_forbidden(self):
        g = Grid(3, 3, frozenset({Coord(1, 0), Coord(0, 1)}), (0, 0), (2, 2))
        assert g.neighbors8(Coord(0, 0)) == []

    def test_corner_cut_allowed_when_enabled(self):
        g = Grid(3, 3, frozenset({Coord(1, 0), Coord(0, 1)}), (0, 0), (2, 2),
                 allow_corner_cutting=True)
        assert g.neighbors8(Coord(0, 0)) == [(Coord(1, 1), SQRT2)]

    def test_single_flank_blocks_diagonal(self):
        # enumerate the 3x3 neighborhood under the corner-cutting rule
        g = Grid(3, 3, frozenset({Coord(1, 0)}), (0, 0), (2, 2))
        ns = [n for n, _ in g.neighbors8(Coord(0, 0))]
        assert Coord(1, 1) not in ns
        assert ns == [Coord(0, 1)]

    def test_untraversable_query_rejected(self):
        g = Grid(3, 3, frozenset({Coord(1, 1)}), (0, 0), (2, 2))
        with pytest.raises(InvalidCellError):
            g.neighbors8(Coord(1, 1))

    def test_all_neighbors_traversable_property(self):
        g = Grid(6, 6, frozenset({Coord(2, 2), Coord(3, 3), Coord(1, 4)}), (0, 0), (5, 5))
        for y in range(6):
            for x in range(6):
                if not g.is_traversable((x, y)):
                    continue
                ns = g.neighbors8((x, y))
                assert 0 <= len(ns) <= 8
                assert all(g.is_traversable(n) for n, _ in ns)


@st.composite
def small_grids(draw):
    w, h = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cells = [(x, y) for y in range(h) for x in range(w)]
    start, goal = draw(st.sampled_from(cells)), draw(st.sampled_from(cells))
    blocked = draw(st.sets(st.sampled_from(cells))) - {start, goal}
    return Grid(w, h, frozenset(blocked), start, goal, draw(st.booleans()))


class TestNeighborTableEquivalence:
    """The padded-id neighbour table against the coordinate reference."""

    @settings(max_examples=150, deadline=None)
    @given(small_grids())
    def test_neighbors8_matches_reference(self, g):
        for y in range(g.height):
            for x in range(g.width):
                if g.is_traversable((x, y)):
                    assert g.neighbors8((x, y)) == grid_neighbors(g, (x, y))
                else:
                    with pytest.raises(InvalidCellError):
                        g.neighbors8((x, y))

    @settings(max_examples=150, deadline=None)
    @given(small_grids(), st.data())
    def test_toggled_flag_copy_matches_reference(self, g, data):
        # a planner's mutable copy of the flags after obstacle toggles
        flags = bytearray(g.flags)
        blocked = set(g.blocked)
        toggles = data.draw(st.lists(
            st.tuples(st.integers(0, g.width - 1), st.integers(0, g.height - 1)), max_size=12))
        for c in toggles:
            if c in blocked:
                blocked.discard(c)
                flags[g.index(c)] = FREE
            else:
                blocked.add(c)
                flags[g.index(c)] = BLOCKED

        def is_free(x, y):
            return (x, y) not in blocked

        # every cell, blocked ones too: incremental planners expand blocked cells
        for y in range(g.height):
            for x in range(g.width):
                got = [(g.coord(j), c) for j, c in neighbor_cells(g.index((x, y)), flags, g.steps)]
                assert got == reference_neighbors((x, y), g.width, g.height, is_free,
                                                  g.allow_corner_cutting)

    def test_index_round_trip(self):
        g = empty_grid(5, 3)
        ids = [g.index((x, y)) for y in range(3) for x in range(5)]
        assert ids == sorted(set(ids))
        assert [g.coord(i) for i in ids] == [(x, y) for y in range(3) for x in range(5)]


class TestHeuristic:
    def test_three_four_five(self):
        assert euclidean_heuristic(Coord(0, 0), Coord(3, 4)) == 5.0

    def test_identity(self):
        assert euclidean_heuristic(Coord(7, 2), Coord(7, 2)) == 0.0

    def test_wall_grid_start_goal_distance(self):
        assert euclidean_heuristic(Coord(1, 1), Coord(29, 69)) == pytest.approx(73.539, abs=1e-3)

    @given(
        st.tuples(st.integers(0, 50), st.integers(0, 50)),
        st.tuples(st.integers(0, 50), st.integers(0, 50)),
        st.tuples(st.integers(0, 50), st.integers(0, 50)),
    )
    def test_metric_properties(self, a, b, c):
        assert euclidean_heuristic(a, b) >= 0
        assert euclidean_heuristic(a, b) == euclidean_heuristic(b, a)
        assert (euclidean_heuristic(a, b) == 0) == (a == b)
        assert euclidean_heuristic(a, c) <= euclidean_heuristic(a, b) + euclidean_heuristic(b, c) + 1e-9

    def test_admissible_against_true_path_cost(self):
        # Euclidean <= octile <= true 8-connected path cost
        grids = [
            empty_grid(20, 20),
            Grid(20, 20, frozenset({Coord(x, 10) for x in range(1, 19)}), (0, 0), (19, 19)),
        ]
        for g in grids:
            dist = dijkstra_from(g, g.goal)
            for cell, d in dist.items():
                assert euclidean_heuristic(cell, g.goal) <= d + 1e-9


class TestStepCost:
    def test_orthogonal(self):
        assert step_cost(Coord(2, 2), Coord(2, 3)) == 1.0

    def test_diagonal(self):
        assert step_cost(Coord(2, 2), Coord(3, 3)) == pytest.approx(SQRT2)

    def test_non_adjacent_rejected(self):
        with pytest.raises(AdjacencyError):
            step_cost(Coord(2, 2), Coord(2, 4))

    def test_same_cell_rejected(self):
        with pytest.raises(AdjacencyError):
            step_cost(Coord(2, 2), Coord(2, 2))

    @given(st.integers(0, 30), st.integers(0, 30), st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1]))
    def test_symmetry(self, x, y, dx, dy):
        if dx == 0 and dy == 0:
            return
        a, b = (x, y), (x + dx, y + dy)
        assert step_cost(a, b) == step_cost(b, a)


class TestGridValidation:
    def test_blocked_start_rejected(self):
        with pytest.raises(InvalidCellError):
            Grid(3, 3, frozenset({Coord(0, 0)}), (0, 0), (2, 2))

    def test_out_of_bounds_goal_rejected(self):
        with pytest.raises(InvalidCellError):
            Grid(3, 3, frozenset(), (0, 0), (3, 3))

    def test_out_of_bounds_obstacle_rejected(self):
        with pytest.raises(InvalidCellError):
            Grid(3, 3, frozenset({Coord(5, 5)}), (0, 0), (2, 2))

    def test_trivial_start_equals_goal_allowed(self):
        g = Grid(3, 3, frozenset(), (1, 1), (1, 1))
        assert g.start == g.goal


class TestTextFormat:
    def test_round_trip(self):
        g = Grid(5, 4, frozenset({Coord(1, 1), Coord(3, 2)}), (0, 0), (4, 3))
        assert parse_grid(format_grid(g)) == g

    def test_header_and_chars(self):
        g = Grid(3, 2, frozenset({Coord(1, 0)}), (0, 0), (2, 1))
        assert format_grid(g) == "3 2\nS#.\n..G\n"

    def test_missing_start_rejected(self):
        with pytest.raises(GridFormatError):
            parse_grid("2 2\n..\n.G\n")

    def test_duplicate_goal_rejected(self):
        with pytest.raises(GridFormatError):
            parse_grid("2 2\nSG\n.G\n")

    def test_bad_char_rejected(self):
        with pytest.raises(GridFormatError):
            parse_grid("2 2\nS?\n.G\n")

    def test_ragged_row_rejected(self):
        with pytest.raises(GridFormatError):
            parse_grid("3 2\nS..\n.G\n")

    def test_trivial_grid_not_expressible(self):
        g = Grid(3, 3, frozenset(), (1, 1), (1, 1))
        with pytest.raises(GridFormatError):
            format_grid(g)

    @given(st.integers(0, 10 ** 6))
    def test_round_trip_random(self, seed):
        import random

        rng = random.Random(seed)
        w, h = rng.randint(2, 8), rng.randint(2, 8)
        cells = [(x, y) for x in range(w) for y in range(h)]
        rng.shuffle(cells)
        start, goal = cells[0], cells[1]
        blocked = frozenset(Coord(*c) for c in cells[2:] if rng.random() < 0.3)
        g = Grid(w, h, blocked, start, goal)
        assert parse_grid(format_grid(g)) == g
