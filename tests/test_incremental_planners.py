"""Incremental planners stay exact under any sequence of obstacle toggles.

LPA*, D* and D* Lite repair their solution after every block or unblock;
D* Lite also moves its agent between toggles.  After each change the
repaired path must be a legal chain on the modified grid and cost exactly
what the A* oracle finds on that grid from the agent's cell, and the
planner must report NoPathError exactly when the oracle does.
"""

import hashlib
import heapq
import math
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
    WallGridSpec,
    astar_oracle,
    generate_random_grid,
    generate_wall_grid,
    path_cost_of,
)
from gridbench.grid import OUTSIDE, SQRT2, arc_masks
from gridbench.instrumentation import HEAP_ENTRY_BYTES, MAP_ENTRY_BYTES, RECORD_ENTRY_BYTES
from gridbench.solvers.dstar import _CLOSED, _NEW, _OPEN

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


def _replay(make, n, density, seed, corner_cutting, ops, after_repair=None):
    """Apply ``ops`` to a planner, checking every repair against the oracle.

    ``after_repair(planner, grid, blocked)``, if given, runs after each repair.
    """
    grid = generate_random_grid(
        RandomGridSpec(n=n, density=density, sg_distance=min(6, n - 1), seed=seed),
        allow_corner_cutting=corner_cutting,
    )
    planner = make(grid)
    blocked = set(grid.blocked)

    def repair():
        path = _check(planner, grid, blocked)
        if after_repair is not None:
            after_repair(planner, grid, blocked)
        return path

    path = last_path = repair()
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
        path = repair()
        last_path = path or last_path


GRIDS = dict(
    n=st.integers(4, MAX_SIDE),
    density=st.sampled_from([0.0, 0.15, 0.3]),
    seed=st.integers(0, 10 ** 6),
    corner_cutting=st.booleans(),
    ops=OPS,
)


@pytest.mark.parametrize("make", [_Lpa, _DStar, _DStarLite], ids=["LPA*", "D*", "D* Lite"])
@settings(max_examples=60, deadline=None)
# a k1 one ulp above the target's once stopped the repair before it began
@example(n=11, density=0.0, seed=2551, corner_cutting=False, ops=[("near", 0, 6), ("toggle", 6, 6)])
@example(n=10, density=0.15, seed=195215, corner_cutting=False,
         ops=[("near", 2, 5), ("toggle", 2, 2), ("toggle", 5, 3)])
@given(**GRIDS)
def test_repairs_match_oracle(make, n, density, seed, corner_cutting, ops):
    _replay(make, n, density, seed, corner_cutting, ops, after_repair=_assert_open_list)


def _assert_open_list(planner, grid=None, blocked=None):
    _assert_live_bytes(planner)
    _assert_queue_exact(planner)
    _assert_masks_exact(planner)


def _assert_masks_exact(planner):
    """The planner's arc masks are those of its current flags.

    Every planner refreshes the masks around each toggle, so every in-grid
    cell's mask must be current.  D* also marks a toggle's 3x3 block dirty
    (those cells walk ``_arcs``, which lists unusable arcs at INF): every
    cell whose flag differs from the grid's must have its block marked.
    """
    p = planner.p
    fresh = arc_masks(p._flags, p._steps)
    in_grid = [s for s, f in enumerate(p._flags) if f != OUTSIDE]
    assert [s for s in in_grid if p._mask[s] != fresh[s]] == []
    if isinstance(p, DStarPlanner):
        stride = p.grid.width + 2
        block = [dy * stride + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
        toggled = [s for s in in_grid if p._flags[s] != p.grid.flags[s]]
        assert [s for s in toggled
                if not all(p._dirty[s + d] for d in block if p._flags[s + d] != OUTSIDE)] == []


def _assert_live_bytes(planner, grid=None, blocked=None):
    """The probe's live bytes are exactly the planner's held entries plus its heap entries.

    The planners keep these bytes in locals while they search; a lost write-back
    that leaves the peak unchanged shows here and in no pinned counter.
    """
    p = planner.p
    if isinstance(p, DStarPlanner):
        held = RECORD_ENTRY_BYTES * sum(1 for t in p._tag if t != _NEW)
    else:
        held = MAP_ENTRY_BYTES * sum(bin(b).count("1") for b in p._held)
    assert p.probe.live_bytes == held + HEAP_ENTRY_BYTES * len(p._heap)


def _live_index(p):
    """The open list's index as ``{queued id: seq of its current entry}``.

    D* keeps it as a dense per-cell list of seqs (0: not queued), LPA* and
    D* Lite as a dict.
    """
    if isinstance(p, DStarPlanner):
        return {s: seq for s, seq in enumerate(p._live) if seq}
    return p._live


def _assert_queue_exact(planner):
    """Exactly the cells that need expanding are queued, each under a sound key.

    LPA* and D* Lite: a cell has a live entry iff g != rhs.  The entry's k2 is
    min(g, rhs), and its k1 is the cell's current key if it was pushed after
    the last target move or k_m change, else at most the current key plus the
    target's move since the last k_m change (a lower bound once k_m takes that
    move in).  ``compute`` pushes a cell only when its rhs or g changes, so a
    missed push shows here.  D*: exactly the OPEN cells are queued, each under
    its ``_k``.
    """
    p = planner.p
    index = _live_index(p)
    live = {e[-1]: e for e in p._heap if index.get(e[-1]) == e[-2]}
    assert live.keys() == index.keys()
    if isinstance(p, DStarPlanner):
        assert {s for s, t in enumerate(p._tag) if t == _OPEN} == live.keys()
        for s, (k, _, _) in live.items():
            assert k == p._k[s], s
        return
    assert {s for s, (g, r) in enumerate(zip(p._g, p._rhs)) if g != r} == live.keys()
    stride = p._stride
    move = math.hypot(p._last % stride - p._tx, p._last // stride - p._ty)
    for s, (k1, k2, seq, _) in live.items():
        now1, now2 = p._key(s)
        assert k2 == now2, s
        if seq > p._fresh:
            assert k1 == now1, s
        else:
            assert k1 <= now1 + move + 1e-9, s


@pytest.mark.parametrize("make", [_Lpa, _DStar, _DStarLite], ids=["LPA*", "D*", "D* Lite"])
@pytest.mark.parametrize("walls", [((4, 5), (4, 4), (5, 4)), ((1, 0), (1, 1), (0, 1))],
                         ids=["goal", "start"])
def test_live_bytes_after_sealing_an_end(make, walls):
    """The byte count is written back on the NoPathError path too."""
    grid = Grid(6, 6, frozenset(), (0, 0), (5, 5))
    planner = make(grid)
    blocked = set()
    assert _check(planner, grid, blocked) is not None
    _assert_live_bytes(planner)
    for cell in walls:
        planner.toggle(cell, True)
        blocked.add(cell)
        path = _check(planner, grid, blocked)
        _assert_live_bytes(planner)
    assert path is None


def _assert_rhs_exact(planner, grid, blocked):
    """Every cell but the root: rhs == min over its neighbours of g + step cost, INF if blocked."""
    p = planner.p
    now = Grid(grid.width, grid.height, frozenset(blocked), grid.start, grid.goal,
               grid.allow_corner_cutting)
    for y in range(grid.height):
        for x in range(grid.width):
            i = grid.index((x, y))
            if i == p._root:
                continue
            if (x, y) in blocked:
                expected = math.inf
            else:
                expected = min((p._g[grid.index(m)] + c for m, c in now.neighbors8((x, y))),
                               default=math.inf)
            assert p._rhs[i] == expected, ((x, y), p._rhs[i], expected)


# The path-cost oracle cannot see a wrong rhs that leaves the path unchanged,
# so the g/rhs core's one-step-lookahead values are checked exactly
@pytest.mark.parametrize("make", [_Lpa, _DStarLite], ids=["LPA*", "D* Lite"])
@settings(max_examples=40, deadline=None)
@given(**GRIDS)
def test_rhs_is_exact_after_every_repair(make, n, density, seed, corner_cutting, ops):
    _replay(make, n, density, seed, corner_cutting, ops, after_repair=_assert_rhs_exact)


@pytest.mark.parametrize("make,start,goal", [(_Lpa, (0, 0), (4, 3)), (_DStarLite, (4, 3), (0, 0))],
                         ids=["LPA*", "D* Lite"])
def test_rhs_exact_when_a_raised_cell_ties_for_the_minimum(make, start, goal):
    """A rising g recomputes a neighbour's rhs only where it was that rhs's argmin.

    Both planners root the search at (0, 0) of an open 5x4 grid.  Blocking
    (0, 1) cuts the root's diagonal to (1, 1), whose g then rises.  Before the
    repair (1, 1) ties with (1, 0) for (2, 1)'s minimum and is the only argmin
    of (2, 2)'s, so a repair that skips either recompute leaves a wrong rhs.
    """
    grid = Grid(5, 4, frozenset(), start, goal)
    planner = make(grid)
    _check(planner, grid, set())
    p = planner.p
    g = lambda c: p._g[grid.index(c)]  # noqa: E731
    rhs = lambda c: p._rhs[grid.index(c)]  # noqa: E731
    assert g((1, 1)) + 1 == g((1, 0)) + SQRT2 == rhs((2, 1))
    assert g((1, 1)) + SQRT2 == rhs((2, 2))
    assert all(g(m) + c > rhs((2, 2)) for m, c in grid.neighbors8((2, 2)) if m != (1, 1))
    planner.toggle((0, 1), True)
    _check(planner, grid, {(0, 1)})
    assert g((1, 1)) > SQRT2
    _assert_rhs_exact(planner, grid, {(0, 1)})


@pytest.mark.parametrize("corner_cutting", [False, True], ids=["no-cut", "cut"])
def test_dstar_closed_values_are_goal_distances(corner_cutting):
    """After the initial run every CLOSED cell's h is its backward Dijkstra distance."""
    grid = generate_random_grid(RandomGridSpec(n=60, density=0.3, sg_distance=40, seed=3),
                                allow_corner_cutting=corner_cutting)
    planner = DStarPlanner(grid)
    planner.initial_run()
    dist = {grid.goal: 0.0}
    heap = [(0.0, grid.goal)]
    while heap:
        d, c = heapq.heappop(heap)
        if d > dist[c]:
            continue
        for m, step in grid.neighbors8(c):
            if d + step < dist.get(m, math.inf):
                dist[m] = d + step
                heapq.heappush(heap, (d + step, m))
    closed = [c for c in dist if planner._tag[grid.index(c)] == _CLOSED]
    assert grid.start in closed
    for y in range(grid.height):
        for x in range(grid.width):
            assert planner._tag[grid.index((x, y))] != _CLOSED or (x, y) in dist
    for c in closed:
        assert planner._h[grid.index(c)] == pytest.approx(dist[c], abs=1e-9), c


def _dstar_state_digest(p):
    """sha256 of D*'s whole search state.

    h, k, back-pointers, in-grid tags, the heap in heap order, the live
    index, the seq counter, the expansions and the probe's three readings.
    """
    in_grid = [s for s, f in enumerate(p._flags) if f != OUTSIDE]
    state = (p._h, p._k, p._back, [p._tag[s] for s in in_grid], p._heap,
             sorted(_live_index(p).items()), p._seq, p.expanded,
             (p.probe.live_bytes, p.probe.peak_bytes, p.probe.expansions))
    return hashlib.sha256(repr(state).encode()).hexdigest()


GOLDEN_GRIDS = {
    "wall_7_21": lambda: generate_wall_grid(WallGridSpec(7, 21)),
    "random_60": lambda: generate_random_grid(
        RandomGridSpec(n=60, density=0.3, sg_distance=40, seed=3)),
}

# golden instance -> D*'s state digests after ``initial_run`` and after one
# block at the middle of its path and a replan from the start.  Repairs break
# key ties by seq, so the heap order and the seqs are pinned with the values
DSTAR_STATE_DIGESTS = {
    "wall_7_21": ("4e56042714f65b518b778bae617da416a1bbb6dbbc22be0e28fd2c0a3ca3235d",
                  "fdc09e998393773b43f03d318e18e8e4d2f0e76e3791e9c7b85a9319a9ca0ad5"),
    "random_60": ("d78279143d9c96f52f7e3b42eeeb08afdcb309defdf74be0d264398418bb812c",
                  "0bca2ac98c239b912b405db21dc9442425f6593c014f134bb9a5b0266d77ad72"),
}


@pytest.mark.parametrize("name", sorted(DSTAR_STATE_DIGESTS))
def test_dstar_state_pinned(name):
    grid = GOLDEN_GRIDS[name]()
    planner = DStarPlanner(grid)
    planner.initial_run()
    after_run = _dstar_state_digest(planner)
    path = planner.extract_path()
    planner.set_blocked(path[len(path) // 2])
    planner.replan(grid.start)
    assert (after_run, _dstar_state_digest(planner)) == DSTAR_STATE_DIGESTS[name]


def _initial_state(planner):
    """Whether ``initial_run`` raised NoPathError, and the state digest after it."""
    try:
        planner.initial_run()
        raised = False
    except NoPathError:
        raised = True
    return raised, _dstar_state_digest(planner)


@pytest.mark.parametrize("corner_cutting", [False, True], ids=["no-cut", "cut"])
@pytest.mark.parametrize("seed", range(4))
def test_dstar_toggles_before_initial_run(seed, corner_cutting):
    """A planner toggled before ``initial_run`` runs as a fresh one on the toggled grid."""
    n = 10 + 6 * seed
    grid = generate_random_grid(RandomGridSpec(n=n, density=0.25, sg_distance=n // 2, seed=seed),
                                allow_corner_cutting=corner_cutting)
    toggled = DStarPlanner(grid)
    blocked = set(grid.blocked)
    rng = random.Random(seed)
    for _ in range(2 * n):
        cell = (rng.randrange(n), rng.randrange(n))
        if cell in (grid.start, grid.goal):
            continue
        now_blocked = cell not in blocked
        toggled.set_blocked(cell, now_blocked)
        (blocked.add if now_blocked else blocked.discard)(cell)
    fresh = DStarPlanner(Grid(n, n, frozenset(blocked), grid.start, grid.goal, corner_cutting))
    assert _initial_state(toggled) == _initial_state(fresh)


def test_dstar_initial_run_needs_a_fresh_planner():
    planner = DStarPlanner(Grid(5, 4, frozenset(), (0, 0), (4, 3)))
    planner.initial_run()
    with pytest.raises(RuntimeError, match="fresh planner"):
        planner.initial_run()


@pytest.mark.parametrize("cls", [LpaStarPlanner, DStarPlanner, DStarLitePlanner],
                         ids=["LPA*", "D*", "D* Lite"])
def test_out_of_bounds_toggle_rejected(cls):
    planner = cls(Grid(5, 4, frozenset(), (0, 0), (4, 3)))
    for cell in ((-1, 0), (5, 0), (0, 4), (7, 1)):
        with pytest.raises(InvalidCellError):
            planner.set_blocked(cell)


def test_dstar_path_check_rejects_an_unrepaired_chain():
    # without replan() the back-pointers still cross the toggled cell
    planner = DStarPlanner(Grid(5, 3, frozenset(), (0, 1), (4, 1)))
    planner.solve()
    planner.set_blocked((2, 1))
    with pytest.raises(NoPathError, match="blocked arc"):
        planner.extract_path()
    planner.replan((0, 1))
    assert (2, 1) not in planner.extract_path()


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


def _blocks_on_path(make, moves):
    """Six blocks on the 60x60 golden grid, each at the middle of the current path.

    With ``moves`` the agent first takes two steps along that path (from the
    second block on).  Every repair is checked against the oracle; returns
    the summed expansions and the probe's peak bytes.
    """
    grid = generate_random_grid(RandomGridSpec(n=60, density=0.3, sg_distance=40, seed=3))
    planner = make(grid)
    blocked = set(grid.blocked)
    path = _check(planner, grid, blocked)
    for block in range(6):
        if moves and block:
            if hasattr(planner, "advance"):
                planner.advance(2)
            else:
                planner.position = path[2]
            assert planner.position == path[2]
            path = path[2:]
        cell = tuple(path[len(path) // 2])
        planner.toggle(cell, True)
        blocked.add(cell)
        path = _check(planner, grid, blocked)
        assert path is not None
    return planner.p.expanded, planner.p.probe.peak_bytes


# planner -> (summed expansions, peak bytes) of the script above; the
# memory column must not move when the planners' value stores change
REPAIR_COUNTERS = {
    "LPA*": (_Lpa, False, (2087, 184592)),
    "D*": (_DStar, True, (4301, 287264)),
    "D* Lite": (_DStarLite, True, (1862, 164552)),
}


@pytest.mark.parametrize("name", sorted(REPAIR_COUNTERS))
def test_repair_counters_pinned(name):
    make, moves, expected = REPAIR_COUNTERS[name]
    assert _blocks_on_path(make, moves) == expected
