"""Incremental planners stay exact under any sequence of obstacle toggles.

LPA*, D* and D* Lite repair their solution after every block or unblock;
D* and D* Lite also move their agent between toggles.  Every driver here
calls the one contract the three share, ``set_blocked`` and
``plan(position)``; the agent's cell is the driver's, and LPA* does not
move.  After each change the repaired path must be a legal chain on the
modified grid and cost exactly what the A* oracle finds on that grid from
the agent's cell, and the planner must report NoPathError exactly when the
oracle does.
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
from gridbench.grid import OUTSIDE, SQRT2, arc_masks, arc_table
from gridbench.instrumentation import (
    HEAP_ENTRY_BYTES,
    MAP_ENTRY_BYTES,
    RECORD_ENTRY_BYTES,
    AllocationProbe,
)
from gridbench.solvers.lpa import _HAS_RHS

MAX_SIDE = 12

# ("toggle", x, y) flips any cell; ("near", k, d) flips the cell at offset d
# (of the 3x3 block) from the k-th cell of the current path, where repairs
# do real work; ("advance", k, planned) moves the agent k steps along that
# path (a no-op for LPA*, which does not move) and, unless ``planned``, makes
# the next toggle before the agent plans from its new cell
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("toggle"), st.integers(0, MAX_SIDE - 1), st.integers(0, MAX_SIDE - 1)),
        st.tuples(st.just("near"), st.integers(0, 4 * MAX_SIDE), st.integers(0, 8)),
        st.tuples(st.just("advance"), st.integers(1, 3), st.booleans()),
    ),
    max_size=8,
)
PLANNERS = {"LPA*": LpaStarPlanner, "D*": DStarPlanner, "D* Lite": DStarLitePlanner}
EACH_PLANNER = pytest.mark.parametrize("cls", list(PLANNERS.values()), ids=list(PLANNERS))


def _oracle_cost(grid, blocked, origin):
    g = Grid(grid.width, grid.height, frozenset(blocked), origin, grid.goal,
             grid.allow_corner_cutting)
    try:
        return g, astar_oracle(g).path_cost
    except NoPathError:
        return g, None


def _assert_rhs_held(p):
    """A g/rhs planner: each cell a cell with a finite g reaches by a usable arc holds rhs.

    The rising-g loop of ``compute`` charges no rhs entry and relies on this:
    the neighbour got its entry when that g fell or, for an arc a toggle made
    usable since, from ``set_blocked``'s update of the 3x3 block around it.
    """
    if isinstance(p, DStarPlanner):
        return
    table = arc_table(p._steps)
    assert [(s, s + off) for s, gs in enumerate(p._g) if gs != math.inf
            for off, _ in table[p._mask[s]] if not p._held[s + off] & _HAS_RHS] == []


def _check(planner, grid, blocked, position):
    """The path ``plan(position)`` repairs, or None when the goal is unreachable."""
    g, expected = _oracle_cost(grid, blocked, position)
    if expected is None:
        with pytest.raises(NoPathError):
            planner.plan(position)
        _assert_rhs_held(planner)
        return None
    path = planner.plan(position)
    _assert_rhs_held(planner)
    assert path[0] == position and path[-1] == grid.goal
    for a, b in zip(path, path[1:]):
        assert b in dict(g.neighbors8(a)), (a, b)
    assert path_cost_of(path) == pytest.approx(expected, abs=1e-9)
    return path


def _replay(cls, n, density, seed, corner_cutting, ops, after_repair=None):
    """Apply ``ops`` to a planner, checking every repair against the oracle.

    ``after_repair(planner, grid, blocked)``, if given, runs after each repair.
    """
    grid = generate_random_grid(
        RandomGridSpec(n=n, density=density, sg_distance=min(6, n - 1), seed=seed),
        allow_corner_cutting=corner_cutting,
    )
    planner = cls(grid)
    position, blocked = grid.start, set(grid.blocked)

    def repair():
        path = _check(planner, grid, blocked, position)
        if after_repair is not None:
            after_repair(planner, grid, blocked)
        return path

    path = last_path = repair()
    for op, a, b in ops:
        if op == "advance":
            if path is None or cls is LpaStarPlanner:
                continue
            position = path[min(a, len(path) - 1)]
            if not b:
                continue
        else:
            if op == "near":
                x, y = last_path[a % len(last_path)]
                cell = (x + b % 3 - 1, y + b // 3 - 1)
            else:
                cell = (a % n, b % n)
            if not grid.in_bounds(cell) or cell in (
                    tuple(grid.start), tuple(grid.goal), tuple(position), tuple(last_path[0])):
                continue
            now_blocked = cell not in blocked
            planner.set_blocked(cell, now_blocked)
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


@EACH_PLANNER
@settings(max_examples=60, deadline=None)
# a k1 one ulp above the target's once stopped the repair before it began
@example(n=11, density=0.0, seed=2551, corner_cutting=False, ops=[("near", 0, 6), ("toggle", 6, 6)])
@example(n=10, density=0.15, seed=195215, corner_cutting=False,
         ops=[("near", 2, 5), ("toggle", 2, 2), ("toggle", 5, 3)])
# a D* Lite move followed by a toggle before the plan once left k_m short of
# the move: the repair then cost 3 where the oracle finds 1 + sqrt(2)
@example(n=4, density=0.0, seed=31, corner_cutting=False, ops=[("advance", 1, False), ("near", 3, 1)])
@given(**GRIDS)
def test_repairs_match_oracle(cls, n, density, seed, corner_cutting, ops):
    _replay(cls, n, density, seed, corner_cutting, ops, after_repair=_assert_open_list)


def _assert_open_list(planner, grid=None, blocked=None):
    _assert_live_bytes(planner)
    _assert_queue_exact(planner)
    _assert_masks_exact(planner)


def _assert_masks_exact(p):
    """The planner's arc masks are those of its current flags.

    Every planner refreshes the masks around each toggle, so every in-grid
    cell's mask must be current.  D* also marks a toggle's 3x3 block dirty
    (those cells walk ``_arcs``, which lists unusable arcs at INF): every
    cell whose flag differs from the grid's must have its block marked.
    The planner toggles a copy: the grid's own masks stay those of its flags.
    """
    assert p.grid.masks == bytes(arc_masks(p.grid.flags, p.grid.steps))
    fresh = arc_masks(p._flags, p._steps)
    in_grid = [s for s, f in enumerate(p._flags) if f != OUTSIDE]
    assert [s for s in in_grid if p._mask[s] != fresh[s]] == []
    if isinstance(p, DStarPlanner):
        stride = p.grid.width + 2
        block = [dy * stride + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
        toggled = [s for s in in_grid if p._flags[s] != p.grid.flags[s]]
        assert [s for s in toggled
                if not all(p._dirty[s + d] for d in block if p._flags[s + d] != OUTSIDE)] == []


def _assert_live_bytes(p, grid=None, blocked=None):
    """The probe's live bytes are exactly the planner's held entries plus its heap entries.

    The planners keep these bytes in locals while they search; a lost write-back
    that leaves the peak unchanged shows here and in no pinned counter.
    """
    if isinstance(p, DStarPlanner):
        held = RECORD_ENTRY_BYTES * sum(1 for t in _dstar_tags(p) if t != "NEW")
    else:
        held = MAP_ENTRY_BYTES * sum(bin(b).count("1") for b in p._held)
    assert p.probe.live_bytes == held + HEAP_ENTRY_BYTES * len(p._heap)


def _live_index(p):
    """The open list's index as ``{queued id: seq of its current entry}``.

    D* keeps it as a dense per-cell list of entries (None: not queued),
    LPA* and D* Lite as a dense per-cell list of seqs (0: not queued).
    """
    if isinstance(p, DStarPlanner):
        return {s: e[1] for s, e in enumerate(p._live) if e is not None}
    return {s: sq for s, sq in enumerate(p._live) if sq}


def _assert_queue_exact(p):
    """Exactly the cells that need expanding are queued, each under a sound key.

    LPA* and D* Lite: a cell has a live entry iff g != rhs.  The entry's k2 is
    min(g, rhs), and its k1 is the cell's current key if it was pushed after
    the last target move or k_m change, else at most the current key plus the
    target's move since the last k_m change (a lower bound once k_m takes that
    move in).  ``compute`` pushes a cell only when its rhs or g changes, so a
    missed push shows here.  D*: each queued (OPEN) cell's key is at most
    its h, since the key is the least h the cell has held while queued.
    """
    index = _live_index(p)
    live = {e[-1]: e for e in p._heap if index.get(e[-1]) == e[-2]}
    assert live.keys() == index.keys()
    if isinstance(p, DStarPlanner):
        for s, (k, _, _) in live.items():
            assert k <= p._h[s], s
        return
    assert {s for s, (g, r) in enumerate(zip(p._g, p._rhs)) if g != r} == live.keys()
    assert p._queued == len(index)
    stride = p._stride
    move = math.hypot(p._last % stride - p._tx, p._last // stride - p._ty)
    for s, (k1, k2, seq, _) in live.items():
        now1, now2 = p._key(s)
        assert k2 == now2, s
        if seq > p._fresh:
            assert k1 == now1, s
        else:
            assert k1 <= now1 + move + 1e-9, s


@EACH_PLANNER
@pytest.mark.parametrize("walls", [((4, 5), (4, 4), (5, 4)), ((1, 0), (1, 1), (0, 1))],
                         ids=["goal", "start"])
def test_live_bytes_after_sealing_an_end(cls, walls):
    """The byte count is written back on the NoPathError path too."""
    grid = Grid(6, 6, frozenset(), (0, 0), (5, 5))
    planner = cls(grid)
    blocked = set()
    assert _check(planner, grid, blocked, grid.start) is not None
    _assert_live_bytes(planner)
    for cell in walls:
        planner.set_blocked(cell, True)
        blocked.add(cell)
        path = _check(planner, grid, blocked, grid.start)
        _assert_live_bytes(planner)
    assert path is None


def _assert_rhs_exact(p, grid, blocked):
    """Every cell but the root: rhs == min over its neighbours of g + step cost, INF if blocked."""
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
@pytest.mark.parametrize("cls", [LpaStarPlanner, DStarLitePlanner], ids=["LPA*", "D* Lite"])
@settings(max_examples=40, deadline=None)
@given(**GRIDS)
def test_rhs_is_exact_after_every_repair(cls, n, density, seed, corner_cutting, ops):
    _replay(cls, n, density, seed, corner_cutting, ops, after_repair=_assert_rhs_exact)


@pytest.mark.parametrize("cls,start,goal", [(LpaStarPlanner, (0, 0), (4, 3)),
                                            (DStarLitePlanner, (4, 3), (0, 0))],
                         ids=["LPA*", "D* Lite"])
def test_rhs_exact_when_a_raised_cell_ties_for_the_minimum(cls, start, goal):
    """A rising g recomputes a neighbour's rhs only where it was that rhs's argmin.

    Both planners root the search at (0, 0) of an open 5x4 grid.  Blocking
    (0, 1) cuts the root's diagonal to (1, 1), whose g then rises.  Before the
    repair (1, 1) ties with (1, 0) for (2, 1)'s minimum and is the only argmin
    of (2, 2)'s, so a repair that skips either recompute leaves a wrong rhs.
    """
    grid = Grid(5, 4, frozenset(), start, goal)
    planner = cls(grid)
    _check(planner, grid, set(), start)
    g = lambda c: planner._g[grid.index(c)]  # noqa: E731
    rhs = lambda c: planner._rhs[grid.index(c)]  # noqa: E731
    assert g((1, 1)) + 1 == g((1, 0)) + SQRT2 == rhs((2, 1))
    assert g((1, 1)) + SQRT2 == rhs((2, 2))
    assert all(g(m) + c > rhs((2, 2)) for m, c in grid.neighbors8((2, 2)) if m != (1, 1))
    planner.set_blocked((0, 1), True)
    _check(planner, grid, {(0, 1)}, start)
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
    tags = _dstar_tags(planner)
    closed = [c for c in dist if tags[grid.index(c)] == "CLOSED"]
    assert grid.start in closed
    for y in range(grid.height):
        for x in range(grid.width):
            assert tags[grid.index((x, y))] != "CLOSED" or (x, y) in dist
    for c in closed:
        assert planner._h[grid.index(c)] == pytest.approx(dist[c], abs=1e-9), c


class _RecordingProbe(AllocationProbe):
    """An AllocationProbe whose ``on_expand`` sink logs the padded ids expanded."""

    def __init__(self):
        super().__init__()
        self.ids = []
        self.on_expand = self.ids.append


SWEEP_GRIDS = {
    **{f"random-{seed}-{'cut' if cut else 'no-cut'}": (
        lambda seed=seed, cut=cut: generate_random_grid(
            RandomGridSpec(n=30 + 10 * seed, density=0.3, sg_distance=20 + 5 * seed, seed=seed),
            allow_corner_cutting=cut))
       for seed in range(3) for cut in (False, True)},
    "wall_7_21": lambda: generate_wall_grid(WallGridSpec(7, 21)),
}


@pytest.mark.parametrize("name", sorted(SWEEP_GRIDS))
def test_dstar_sweep_expands_in_key_order(name):
    """``initial_run`` expands in the heap's order and leaves ``_run`` a sound heap.

    The sweep pops the smaller head of one queue per step cost, so popping
    from the wrong queue shows as a falling h.  Whatever it leaves queued
    must be a heap with exact byte counts, which a block and a replan then
    repair to the oracle's cost.
    """
    grid = SWEEP_GRIDS[name]()
    probe = _RecordingProbe()
    planner = DStarPlanner(grid, probe)
    planner.initial_run()
    hs = [planner._h[s] for s in probe.ids]
    assert len(hs) == planner.expanded
    assert [i for i in range(1, len(hs)) if hs[i] < hs[i - 1]] == []
    heap = planner._heap
    assert heap and all(heap[(i - 1) // 2] <= heap[i] for i in range(1, len(heap)))
    _assert_open_list(planner)
    blocked = set(grid.blocked)
    path = _check(planner, grid, blocked, grid.start)
    cell = tuple(path[len(path) // 2])
    planner.set_blocked(cell, True)
    blocked.add(cell)
    _check(planner, grid, blocked, grid.start)
    _assert_open_list(planner)


def _dstar_tags(p):
    """D*'s NEW / OPEN / CLOSED tag of every padded id, derived from its state.

    OPEN: the cell has a current queue entry.  NEW: h is INF and there is no
    back-pointer (the goal has h 0, and a cell raised to INF keeps its
    back-pointer).  CLOSED: every other cell.
    """
    queued = _live_index(p)
    return ["OPEN" if s in queued else "NEW" if h == math.inf and back < 0 else "CLOSED"
            for s, (h, back) in enumerate(zip(p._h, p._back))]


def _dstar_state_digest(p):
    """sha256 of D*'s whole search state.

    h, back-pointers, in-grid tags, the heap's entries, the live index, the
    seq counter, the expansions and the probe's three readings.  Every seq
    is unique, so the sorted entries fix the pop order completely and, with
    them, every OPEN cell's key; the heap's list layout is not part of the
    state.
    """
    in_grid = [s for s, f in enumerate(p._flags) if f != OUTSIDE]
    tags = _dstar_tags(p)
    state = (p._h, p._back, [tags[s] for s in in_grid], sorted(p._heap),
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
# key ties by seq, so the queued entries and the seqs are pinned with the values
DSTAR_STATE_DIGESTS = {
    "wall_7_21": ("f68a6372488fa497f74850b2c9d7761103087f522280e935d723ffc1cf4fd9e6",
                  "369da6608370b40442fdfc37899d78b9e39ad27e462c2565d959232196cd6ebd"),
    "random_60": ("162797a0c39f82f3a179fb7a72d6ac2a5ab4953574d4e0a0a3a8d3505de5976c",
                  "1e6e94eb1b210c843725f30ffceb21529750fd100aae0182b8f4fc35c2509dea"),
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


def _grhs_state(p):
    """LPA*'s or D* Lite's whole search state, as a comparable value.

    g, rhs, the held bits, the live index, the heap's entries, the seq
    counter, the freshness mark, k_m and the probe's three readings.  As for
    D*, the sorted entries fix the pop order; the heap's layout is not state.
    """
    return (p._g, p._rhs, bytes(p._held), sorted(_live_index(p).items()), sorted(p._heap),
            p._seq, p._fresh, p._k_m,
            (p.probe.live_bytes, p.probe.peak_bytes, p.probe.expansions))


def _event_script(planner, grid):
    """Three blocks at the middle of the current path and one unblock of the first.

    The agent (but LPA*'s) takes two steps along its path before the second
    block.  Returns the sha256 of the planner's state after the first search
    and after every repair.
    """
    state = _dstar_state_digest if isinstance(planner, DStarPlanner) else _grhs_state
    position, states = grid.start, []

    def repair():
        path = planner.plan(position)
        _assert_rhs_held(planner)
        states.append(state(planner))
        return path

    path = repair()
    first = None
    for event in range(3):
        if event == 1 and not isinstance(planner, LpaStarPlanner):
            position = path[2]
            path = planner.plan(position)
        cell = path[len(path) // 2]
        first = first or cell
        planner.set_blocked(cell, True)
        path = repair()
    planner.set_blocked(first, False)
    repair()
    return hashlib.sha256(repr(states).encode()).hexdigest()


# (planner, golden instance) -> digest of ``_event_script``'s states.  It
# pins every value, key, seq and byte charge through a repair with blocks,
# an unblock and (but for LPA*) an agent move
EVENT_STATE_DIGESTS = {
    ("LPA*", "wall_7_21"):
        "cc295a01692355a059b05559de36cbcc8e74e55626e02c372595f847aefbea05",
    ("LPA*", "random_60"):
        "5c4e309be03a2100162a79f3859ac1d57d946beb95379fdc852cacbe0e11c9e0",
    ("D* Lite", "wall_7_21"):
        "41a8d9a5bdfdaec2b64c55fb5a730a6fda88b3f316e6e0027d5bf1dc34d56eea",
    ("D* Lite", "random_60"):
        "a56ae60afdff3fd56bd9b216834a03e4f6dcf4fbb720d3d63969231c50630a4b",
    ("D*", "wall_7_21"):
        "ab526fe3b3b793b5e724dd3849729b11005c0160974e72e3471156f0aabb0443",
    ("D*", "random_60"):
        "c8ecee88682a13090bcc7f9e114051804c4f142490ba620612d25a9d9af1bbc3",
}


@pytest.mark.parametrize("key", sorted(EVENT_STATE_DIGESTS), ids="-".join)
def test_event_script_state_pinned(key):
    name, grid_name = key
    grid = GOLDEN_GRIDS[grid_name]()
    assert _event_script(PLANNERS[name](grid), grid) == EVENT_STATE_DIGESTS[key]


@pytest.mark.parametrize("k", [1, 2, 3, 7])
@pytest.mark.parametrize("name", sorted(GOLDEN_GRIDS))
def test_dstar_lite_plan_aims_as_advance_moves(name, k):
    """``plan(path[k])`` leaves D* Lite's state as ``advance(k)`` does, and so does a repair."""
    grid = GOLDEN_GRIDS[name]()
    aimed, moved = DStarLitePlanner(grid), DStarLitePlanner(grid)
    path = aimed.plan(grid.start)
    moved.compute()
    aimed.plan(path[k])
    moved.advance(k)
    assert _grhs_state(aimed) == _grhs_state(moved)
    for planner in (aimed, moved):
        planner.set_blocked(path[(k + len(path)) // 2])
    moved.compute()
    assert aimed.plan(path[k]) == moved.extract_path()
    assert _grhs_state(aimed) == _grhs_state(moved)


@EACH_PLANNER
@pytest.mark.parametrize("sealed", ["goal", "start"])
def test_plan_on_a_sealed_end_expands_nothing(cls, sealed):
    """A first ``plan`` on the grid's own flags reads ``Grid.solvable`` before any search.

    After a toggle the planner searches: opening the ring finds the path.
    """
    ring = [(5 + dx, 5 + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    ends = [(0, 0), (5, 5)] if sealed == "goal" else [(5, 5), (0, 0)]
    grid = Grid(30, 30, frozenset(ring), *ends)
    planner = cls(grid)
    with pytest.raises(NoPathError, match="unreachable"):
        planner.plan(grid.start)
    assert (planner.expanded, planner.probe.expansions) == (0, 0)
    planner.set_blocked((4, 5), False)
    assert planner.plan(grid.start)[-1] == grid.goal


@pytest.mark.parametrize("cls", [DStarPlanner, DStarLitePlanner], ids=["D*", "D* Lite"])
def test_first_plan_off_a_sealed_start(cls):
    """``Grid.solvable`` speaks for the start only: a first plan from elsewhere searches."""
    ring = [(5 + dx, 5 + dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if dx or dy]
    grid = Grid(30, 30, frozenset(ring), (5, 5), (25, 25))
    planner = cls(grid)
    path = _check(planner, grid, ring, (10, 10))
    assert path_cost_of(path) == pytest.approx(15 * SQRT2)
    with pytest.raises(NoPathError):
        planner.plan(grid.start)


@EACH_PLANNER
def test_plan_rejects_an_out_of_bounds_position(cls):
    planner = cls(Grid(5, 4, frozenset(), (0, 0), (4, 3)))
    for cell in ((-1, 0), (5, 0), (0, 4), (7, 1)):
        with pytest.raises(InvalidCellError, match="out of bounds"):
            planner.plan(cell)
    assert planner.expanded == 0


def test_lpa_plans_only_from_its_start():
    planner = LpaStarPlanner(Grid(5, 4, frozenset(), (0, 0), (4, 3)))
    path = planner.plan((0, 0))
    assert (path[0], path[-1]) == ((0, 0), (4, 3))
    for cell in ((1, 0), (2, 2), (4, 3)):
        with pytest.raises(InvalidCellError, match="from its start"):
            planner.plan(cell)
    assert planner.plan((0, 0)) == path


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


def _substrate(p):
    """The flags, the masks, the expansions and the probe's three readings."""
    return (bytes(p._flags), bytes(p._mask), p.expanded,
            (p.probe.live_bytes, p.probe.peak_bytes, p.probe.expansions))


@EACH_PLANNER
def test_toggling_a_path_end_is_rejected(cls):
    """The goal and the agent's cell stay traversable, and a rejected toggle changes nothing.

    The agent's cell is the start until the first plan, then the cell of
    the last plan: a moved agent's old cell can be toggled.
    """
    grid = Grid(8, 6, frozenset({(3, 2)}), (0, 0), (7, 5))
    planner = cls(grid)

    def rejects(*cells):
        before = _substrate(planner)
        for cell in cells:
            for flag in (True, False):
                with pytest.raises(InvalidCellError, match="path ends must stay traversable"):
                    planner.set_blocked(cell, flag)
                assert _substrate(planner) == before

    rejects(grid.start, grid.goal)
    path = planner.plan(grid.start)
    rejects(grid.start, grid.goal)
    if cls is not LpaStarPlanner:
        planner.plan(path[2])
        rejects(path[2], grid.goal)
        planner.set_blocked(grid.start)
        assert planner.plan(path[2]) == path[2:]


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
    planner = DStarLitePlanner(grid)
    position, blocked = grid.start, set(grid.blocked)
    rng = random.Random(seed)
    path = _check(planner, grid, blocked, position)
    for event in range(12):
        if event % 2 == 1 and path is not None and len(path) > 4:
            position = path[3]
            planner.plan(position)
        while True:
            if path is not None and rng.random() < 0.5:
                cell = tuple(path[rng.randrange(len(path))])
            else:
                cell = (rng.randrange(n), rng.randrange(n))
            if cell not in (tuple(grid.goal), tuple(position)):
                break
        now_blocked = cell not in blocked
        planner.set_blocked(cell, now_blocked)
        (blocked.add if now_blocked else blocked.discard)(cell)
        path = _check(planner, grid, blocked, position)
    return planner.expanded


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


def _blocks_on_path(cls):
    """Six blocks on the 60x60 golden grid, each at the middle of the current path.

    The agent (but LPA*'s) first takes two steps along that path (from the
    second block on).  Every repair is checked against the oracle; returns
    the summed expansions and the probe's peak bytes.
    """
    grid = generate_random_grid(RandomGridSpec(n=60, density=0.3, sg_distance=40, seed=3))
    planner = cls(grid)
    position, blocked = grid.start, set(grid.blocked)
    path = _check(planner, grid, blocked, position)
    for block in range(6):
        if block and cls is not LpaStarPlanner:
            position = path[2]
            path = _check(planner, grid, blocked, position)
        cell = tuple(path[len(path) // 2])
        planner.set_blocked(cell, True)
        blocked.add(cell)
        path = _check(planner, grid, blocked, position)
        assert path is not None
    return planner.expanded, planner.probe.peak_bytes


# planner -> (summed expansions, peak bytes) of the script above; the
# memory column must not move when the planners' value stores change
REPAIR_COUNTERS = {
    "LPA*": (2087, 184592),
    "D*": (4301, 287264),
    "D* Lite": (1862, 164552),
}


@pytest.mark.parametrize("name", sorted(REPAIR_COUNTERS))
def test_repair_counters_pinned(name):
    assert _blocks_on_path(PLANNERS[name]) == REPAIR_COUNTERS[name]
