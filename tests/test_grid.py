import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from gridbench import (
    AdjacencyError,
    AlgorithmId,
    Coord,
    Grid,
    GridFormatError,
    InvalidCellError,
    RandomGridSpec,
    euclidean_heuristic,
    format_grid,
    generate_random_grid,
    parse_grid,
    solve,
    step_cost,
)
from gridbench.grid import BLOCKED, FREE, arc_masks, arc_table, neighbor_cells
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

        _assert_arcs_match_reference(g, flags, blocked)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.sampled_from([0.0, 0.15, 0.3, 0.45, 0.6]),
           st.booleans(), st.integers(0, 10 ** 6))
    # one row and one column: every diagonal leaves the grid
    @example(1, 9, 0.3, False, 0)
    @example(9, 1, 0.3, True, 1)
    @example(1, 1, 0.0, False, 2)
    def test_arc_masks_match_reference(self, w, h, density, corner_cutting, seed):
        rng = random.Random(seed)
        cells = [(x, y) for y in range(h) for x in range(w)]
        blocked = {c for c in cells[1:] if rng.random() < density}
        g = Grid(w, h, frozenset(blocked), cells[0], cells[0], corner_cutting)
        _assert_arcs_match_reference(g, g.flags, blocked)

    def test_arc_table_lists_steps_in_order(self):
        steps = empty_grid(5, 5).steps
        table = arc_table(steps)
        assert table is arc_table(steps)
        assert len(table) == 256 and table[0] == ()
        assert table[255] == tuple((off, cost) for off, cost, _, _ in steps)
        assert table[0b101] == ((steps[0][0], steps[0][1]), (steps[2][0], steps[2][1]))

    def test_index_round_trip(self):
        g = empty_grid(5, 3)
        ids = [g.index((x, y)) for y in range(3) for x in range(5)]
        assert ids == sorted(set(ids))
        assert [g.coord(i) for i in ids] == [(x, y) for y in range(3) for x in range(5)]

    def test_coords_is_coord_per_id(self):
        g = empty_grid(5, 3)
        ids = [g.index((x, y)) for y in range(3) for x in range(5)][::-1]
        cells = g.coords(iter(ids))
        assert cells == [g.coord(i) for i in ids]
        assert all(type(c) is Coord for c in cells)
        assert [c.x for c in cells] == [i % 7 - 1 for i in ids]
        assert g.coords([]) == []


def _assert_arcs_match_reference(g, flags, blocked):
    """At every in-grid id: ``arc_masks`` == ``neighbor_cells`` == the coordinate loop."""
    masks, table = arc_masks(flags, g.steps), arc_table(g.steps)
    assert len(masks) == len(flags)

    def is_free(x, y):
        return (x, y) not in blocked

    # every cell, blocked ones too: incremental planners expand blocked cells
    for y in range(g.height):
        for x in range(g.width):
            i = g.index((x, y))
            cells = neighbor_cells(i, flags, g.steps)
            assert [(i + off, c) for off, c in table[masks[i]]] == cells
            assert [(g.coord(j), c) for j, c in cells] == reference_neighbors(
                (x, y), g.width, g.height, is_free, g.allow_corner_cutting)


class TestGridMasks:
    """``Grid.masks``: the grid's ``arc_masks``, built once on first read."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.sampled_from([0.0, 0.2, 0.4]),
           st.integers(0, 10 ** 6))
    def test_masks_are_arc_masks(self, w, h, density, seed):
        rng = random.Random(seed)
        cells = [(x, y) for y in range(h) for x in range(w)]
        blocked = frozenset(c for c in cells[1:] if rng.random() < density)
        for corner_cutting in (False, True):
            g = Grid(w, h, blocked, cells[0], cells[0], corner_cutting)
            assert type(g.masks) is bytes
            assert g.masks == bytes(arc_masks(g.flags, g.steps))
            assert g.masks is g.masks

    def test_built_masks_change_neither_equality_nor_hash(self):
        a = Grid(6, 4, frozenset({(2, 1), (3, 2)}), (0, 0), (5, 3))
        b = Grid(6, 4, frozenset({(2, 1), (3, 2)}), (0, 0), (5, 3))
        assert a == b and hash(a) == hash(b)
        a.masks
        assert a == b and hash(a) == hash(b)
        b.masks
        assert a == b and hash(a) == hash(b)
        assert a != Grid(6, 4, frozenset({(2, 1)}), (0, 0), (5, 3))


class TestOneCopyGrid:
    """``flags`` is the grid's one copy of its obstacles; ``blocked`` is read from it."""

    @settings(max_examples=150, deadline=None)
    @given(small_grids())
    def test_rebuilt_from_blocked_is_equal(self, g):
        h = Grid(g.width, g.height, g.blocked, g.start, g.goal, g.allow_corner_cutting)
        assert h == g and hash(h) == hash(g) and h.flags == g.flags

    @settings(max_examples=150, deadline=None)
    @given(small_grids())
    def test_blocked_is_a_frozenset_of_coords(self, g):
        assert type(g.blocked) is frozenset
        assert all(type(c) is Coord for c in g.blocked)
        assert g.blocked == {(x, y) for y in range(g.height) for x in range(g.width)
                             if g.flags[g.index((x, y))] == BLOCKED}

    @settings(max_examples=150, deadline=None)
    @given(small_grids())
    def test_is_traversable_agrees_with_blocked(self, g):
        # two cells beyond the border too, where a flag read alone would wrap
        for y in range(-3, g.height + 3):
            for x in range(-3, g.width + 3):
                c = Coord(x, y)
                assert g.is_traversable(c) == (g.in_bounds(c) and c not in g.blocked)

    @settings(max_examples=100, deadline=None)
    @given(small_grids())
    def test_generator_accepted_as_blocked(self, g):
        h = Grid(g.width, g.height, ((c[0], c[1]) for c in g.blocked), g.start, g.goal,
                 g.allow_corner_cutting)
        assert h == g and h.blocked == g.blocked

    @settings(max_examples=100, deadline=None)
    @given(small_grids(), st.data())
    def test_invalid_cells_still_raise(self, g, data):
        w, h, cc = g.width, g.height, g.allow_corner_cutting
        outside = data.draw(st.sampled_from([(-1, 0), (0, -1), (w, 0), (0, h), (w + 3, h + 3)]))
        with pytest.raises(InvalidCellError):
            Grid(w, h, iter([*g.blocked, outside]), g.start, g.goal, cc)
        for name in ("start", "goal"):
            with pytest.raises(InvalidCellError):
                Grid(w, h, g.blocked | {getattr(g, name)}, g.start, g.goal, cc)
            with pytest.raises(InvalidCellError):
                Grid(w, h, g.blocked, **{"start": g.start, "goal": g.goal, name: outside},
                     allow_corner_cutting=cc)

    def test_blocked_is_built_only_when_read(self):
        g = generate_random_grid(RandomGridSpec(n=30, density=0.25, sg_distance=12, seed=3))
        for algo in AlgorithmId:
            solve(g, algo)
        format_grid(g)
        assert "blocked" not in vars(g)
        assert g.blocked is g.blocked and "blocked" in vars(g)


@st.composite
def cell_bytes_grids(draw):
    """Row-major cell bytes with a free start and goal; one side often 1."""
    w, h = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    w, h = draw(st.sampled_from([(w, h), (1, h), (w, 1)]))
    cells = bytearray(draw(st.lists(st.sampled_from([FREE, BLOCKED]),
                                    min_size=w * h, max_size=w * h)))
    start = draw(st.integers(0, w * h - 1))
    goal = draw(st.integers(0, w * h - 1))
    cells[start] = cells[goal] = FREE
    return w, h, bytes(cells), (start % w, start // w), (goal % w, goal // w)


class TestFromCells:
    """``Grid.from_cells`` pads row-major bytes into the same grid the pairs build."""

    @settings(max_examples=150, deadline=None)
    @given(cell_bytes_grids(), st.booleans())
    @example((1, 1, b"\0", (0, 0), (0, 0)), False)
    @example((1, 5, b"\0\1\0\1\0", (0, 0), (0, 4)), True)
    @example((5, 1, b"\0\1\1\0\0", (0, 0), (4, 0)), False)
    def test_equals_pairs_constructor(self, case, corner_cutting):
        w, h, cells, start, goal = case
        pairs = [(i % w, i // w) for i, b in enumerate(cells) if b == BLOCKED]
        a = Grid.from_cells(w, h, cells, start, goal, corner_cutting)
        b = Grid(w, h, pairs, start, goal, corner_cutting)
        assert a == b and hash(a) == hash(b)
        assert type(a.flags) is bytes and a.flags == b.flags
        assert a.masks == b.masks
        assert a.blocked == frozenset(pairs)
        assert a.steps == b.steps and a.start == start and a.goal == goal
        assert Grid.from_cells(w, h, bytearray(cells), start, goal, corner_cutting) == a

    def test_padding_layout(self):
        g = Grid.from_cells(3, 2, bytes([0, 1, 0, 1, 0, 0]), (0, 0), (2, 1))
        assert g.flags == bytes([2, 2, 2, 2, 2,
                                 2, 0, 1, 0, 2,
                                 2, 1, 0, 0, 2,
                                 2, 2, 2, 2, 2])

    @pytest.mark.parametrize("cells", [
        bytes(11), bytes(13), b"",  # wrong length for 4x3
        bytes(5) + b"\2" + bytes(6), bytes(11) + b"\xff",  # not FREE or BLOCKED
    ])
    def test_bad_cells_raise(self, cells):
        with pytest.raises(InvalidCellError):
            Grid.from_cells(4, 3, cells, (0, 0), (3, 2))

    @pytest.mark.parametrize("start, goal", [
        ((1, 0), (3, 2)), ((0, 0), (1, 0)),  # blocked
        ((-1, 0), (3, 2)), ((0, 0), (4, 2)), ((0, 3), (3, 2)),  # out of bounds
    ])
    def test_bad_start_or_goal_raises(self, start, goal):
        cells = bytes([0, 1, 0, 0] + [0] * 8)
        with pytest.raises(InvalidCellError):
            Grid.from_cells(4, 3, cells, start, goal)

    @pytest.mark.parametrize("w, h", [(0, 3), (3, 0), (-1, -1)])
    def test_degenerate_size_raises(self, w, h):
        with pytest.raises(InvalidCellError):
            Grid.from_cells(w, h, b"", (0, 0), (0, 0))
        with pytest.raises(InvalidCellError):
            Grid(w, h, [], (0, 0), (0, 0))


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

    def test_blocked_members_are_coords_for_any_input(self):
        cells = [(1, 0), (2, 3), (0, 2), (3, 1)]
        inputs = [
            frozenset(cells),
            frozenset(Coord(*c) for c in cells),
            frozenset([Coord(*cells[0]), cells[1], Coord(*cells[2]), cells[3]]),
            set(cells),
        ]
        grids = [Grid(4, 4, b, (0, 0), (3, 3)) for b in inputs]
        for g in grids:
            assert all(type(c) is Coord for c in g.blocked)
            assert g == grids[0]
            assert hash(g) == hash(grids[0])
            assert g.flags == grids[0].flags


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
