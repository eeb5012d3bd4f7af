"""Exact per-solver readings on three fixed instances.

Cost, expansions and memory are deterministic, so a refactor of the grid
core or of a solver must reproduce them bit for bit.  The costs are
compared as ``repr`` strings on purpose: a change in the order of the
floating-point additions shows up in the last digit and fails here.
"""

import pytest

from gridbench import (
    AlgorithmId,
    RandomGridSpec,
    WallGridSpec,
    generate_random_grid,
    generate_wall_grid,
    solve,
)
from gridbench.grid import Grid
from gridbench.solvers import SolverParams, ara_star_iterates

A = AlgorithmId

# algorithm -> (repr(path_cost), expanded, peak_memory_bytes, len(path))
WALL_7_21 = {
    A.LRTA_STAR: ("168.4680374315355", 2019, 120424, 150),
    A.RTAA_STAR: ("203.43860018001277", 2382, 110456, 180),
    A.ARA_STAR: ("135.1959594928932", 3473, 330736, 113),
    A.LPA_STAR: ("135.1959594928932", 1811, 274528, 113),
    A.D_STAR: ("135.19595949289322", 2049, 280128, 113),
    A.D_STAR_LITE: ("135.1959594928932", 1790, 272304, 113),
    A.ASTAR_ORACLE: ("135.1959594928932", 1800, 277480, 113),
}

RANDOM_60 = {
    A.LRTA_STAR: ("58.38477631085023", 416, 166256, 54),
    A.RTAA_STAR: ("58.38477631085023", 419, 151432, 54),
    A.ARA_STAR: ("58.38477631085023", 758, 146128, 54),
    A.LPA_STAR: ("58.38477631085023", 634, 109328, 54),
    A.D_STAR: ("58.38477631085023", 1885, 266752, 54),
    A.D_STAR_LITE: ("58.384776310850214", 698, 111912, 54),
    A.ASTAR_ORACLE: ("58.38477631085023", 631, 116472, 54),
}

# An open grid, where many queued cells tie on f, so the expansion counts
# pin each family's tie order: higher g first, then push order (A*, ARA*,
# the agents); lower min(g, rhs) first, then push order (LPA*, D* Lite);
# push order (D*).
# A* taking lower g first would expand 269 cells here
OPEN_30 = {
    A.LRTA_STAR: ("36.970562748477136", 313, 69176, 33),
    A.RTAA_STAR: ("36.97056274847714", 380, 53040, 33),
    A.ARA_STAR: ("35.21320343559643", 258, 77208, 30),
    A.LPA_STAR: ("35.21320343559643", 285, 63552, 30),
    A.D_STAR: ("35.213203435596434", 891, 122832, 30),
    A.D_STAR_LITE: ("35.21320343559643", 285, 63552, 30),
    A.ASTAR_ORACLE: ("35.21320343559643", 257, 64536, 30),
}

INSTANCES = {
    "wall_7_21": (lambda cc=False: generate_wall_grid(WallGridSpec(7, 21), cc), WALL_7_21),
    "random_60": (
        lambda cc=False: generate_random_grid(
            RandomGridSpec(n=60, density=0.3, sg_distance=40, seed=3), cc),
        RANDOM_60,
    ),
    "open_30": (lambda cc=False: Grid(30, 30, frozenset(), (0, 5), (29, 20), cc), OPEN_30),
}

# The real-time agents, A* and ARA* under non-default parameters: variant
# -> (SolverParams, allow_corner_cutting), and (instance, variant,
# algorithm) -> the same tuple as above
VARIANTS = {
    "lookahead_1": (SolverParams(lookahead=1), False),
    "lookahead_7": (SolverParams(lookahead=7), False),
    "corner_cutting": (SolverParams(), True),
    "ara_w3_d1": (SolverParams(ara_initial_weight=3.0, ara_weight_decrement=1.0), False),
}

# With a lookahead of 1 only the origin is expanded, so every episode walks
# a single step: the lookahead_1 rows are the agents' one-step behaviour
# and must not move when the movement rule changes
VARIANT_COUNTERS = {
    ("wall_7_21", "lookahead_1", A.LRTA_STAR): ("1589.1686142824262", 1491, 89552, 1492),
    ("wall_7_21", "lookahead_1", A.RTAA_STAR): ("1589.1686142824262", 1491, 88752, 1492),
    ("wall_7_21", "lookahead_7", A.LRTA_STAR): ("630.8427124746208", 2093, 92896, 549),
    ("wall_7_21", "lookahead_7", A.RTAA_STAR): ("838.4234482783652", 2898, 90912, 728),
    ("wall_7_21", "corner_cutting", A.LRTA_STAR): ("159.19595949289334", 1758, 116024, 137),
    ("wall_7_21", "corner_cutting", A.RTAA_STAR): ("152.4680374315355", 1762, 102632, 134),
    ("random_60", "lookahead_1", A.LRTA_STAR): ("94.24264068711928", 93, 145464, 94),
    ("random_60", "lookahead_1", A.RTAA_STAR): ("94.24264068711928", 93, 144712, 94),
    ("random_60", "lookahead_7", A.LRTA_STAR): ("134.28427124746185", 292, 146920, 127),
    ("random_60", "lookahead_7", A.RTAA_STAR): ("167.3553390593274", 383, 145464, 158),
    ("random_60", "corner_cutting", A.LRTA_STAR): ("51.112698372208065", 533, 184320, 43),
    ("random_60", "corner_cutting", A.RTAA_STAR): ("50.870057685088796", 535, 163856, 44),
    ("wall_7_21", "corner_cutting", A.ASTAR_ORACLE): ("128.16652224137033", 1776, 272944, 101),
    ("wall_7_21", "corner_cutting", A.ARA_STAR): ("128.16652224137033", 2796, 319744, 101),
    ("wall_7_21", "ara_w3_d1", A.ARA_STAR): ("135.1959594928932", 2678, 365624, 113),
    ("random_60", "corner_cutting", A.ASTAR_ORACLE): ("45.4558441227157", 288, 64288, 39),
    ("random_60", "corner_cutting", A.ARA_STAR): ("45.4558441227157", 288, 76640, 39),
    ("random_60", "ara_w3_d1", A.ARA_STAR): ("58.38477631085023", 751, 155760, 54),
}

# instance -> ara_star_iterates under the "ara_w3_d1" schedule
ARA_W3_D1_ITERATES = {
    "wall_7_21": [(3.0, 140.36753236814704), (2.0, 140.36753236814704), (1.0, 135.1959594928932)],
    "random_60": [(3.0, 68.38477631085021), (2.0, 68.38477631085021), (1.0, 58.38477631085023)],
}


@pytest.fixture(scope="module")
def grids():
    return {name: make() for name, (make, _) in INSTANCES.items()}


@pytest.mark.parametrize("instance", sorted(INSTANCES))
@pytest.mark.parametrize("algo", list(AlgorithmId), ids=lambda a: a.value)
def test_golden_counters(grids, instance, algo):
    out = solve(grids[instance], algo)
    got = (repr(out.path_cost), out.expanded, out.peak_memory_bytes, len(out.path))
    assert got == INSTANCES[instance][1][algo]


@pytest.mark.parametrize("key", list(VARIANT_COUNTERS),
                         ids=lambda k: f"{k[0]}-{k[1]}-{k[2].value}")
def test_realtime_counters_under_parameters(grids, key):
    instance, variant, algo = key
    params, corner_cutting = VARIANTS[variant]
    grid = INSTANCES[instance][0](True) if corner_cutting else grids[instance]
    out = solve(grid, algo, params)
    got = (repr(out.path_cost), out.expanded, out.peak_memory_bytes, len(out.path))
    assert got == VARIANT_COUNTERS[key]


@pytest.mark.parametrize("instance", sorted(ARA_W3_D1_ITERATES))
def test_ara_iterates_under_schedule(grids, instance):
    params, _ = VARIANTS["ara_w3_d1"]
    assert ara_star_iterates(grids[instance], params) == ARA_W3_D1_ITERATES[instance]
