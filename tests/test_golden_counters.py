"""Exact per-solver readings on two fixed instances.

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
from gridbench.solvers import SolverParams, TieBreak

A = AlgorithmId

# algorithm -> (repr(path_cost), expanded, peak_memory_bytes, len(path))
WALL_7_21 = {
    A.LRTA_STAR: ("147.68124086713183", 22177, 139584, 123),
    A.RTAA_STAR: ("174.16652224137056", 28468, 118728, 147),
    A.ARA_STAR: ("135.1959594928932", 3473, 330736, 113),
    A.LPA_STAR: ("135.1959594928932", 1811, 274528, 113),
    A.D_STAR: ("135.19595949289322", 2049, 280128, 113),
    A.D_STAR_LITE: ("135.1959594928932", 1790, 272304, 113),
    A.ASTAR_ORACLE: ("135.1959594928932", 1800, 277480, 113),
}

RANDOM_60 = {
    A.LRTA_STAR: ("61.79898987322332", 2134, 181304, 57),
    A.RTAA_STAR: ("60.38477631085023", 3494, 157976, 56),
    A.ARA_STAR: ("58.38477631085023", 758, 146128, 54),
    A.LPA_STAR: ("58.38477631085023", 634, 109328, 54),
    A.D_STAR: ("58.38477631085023", 1885, 266752, 54),
    A.D_STAR_LITE: ("58.384776310850214", 698, 111912, 54),
    A.ASTAR_ORACLE: ("58.38477631085023", 631, 116472, 54),
}

INSTANCES = {
    "wall_7_21": (lambda cc=False: generate_wall_grid(WallGridSpec(7, 21), cc), WALL_7_21),
    "random_60": (
        lambda cc=False: generate_random_grid(
            RandomGridSpec(n=60, density=0.3, sg_distance=40, seed=3), cc),
        RANDOM_60,
    ),
}

# The real-time agents under non-default parameters: variant ->
# (SolverParams, allow_corner_cutting), and (instance, variant, algorithm)
# -> the same tuple as above
VARIANTS = {
    "lookahead_1": (SolverParams(lookahead=1), False),
    "lookahead_7_low_g": (SolverParams(lookahead=7, tie_break=TieBreak.LOW_G), False),
    "corner_cutting": (SolverParams(), True),
}

REALTIME_VARIANTS = {
    ("wall_7_21", "lookahead_1", A.LRTA_STAR): ("1589.1686142824262", 1491, 89552, 1492),
    ("wall_7_21", "lookahead_1", A.RTAA_STAR): ("1589.1686142824262", 1491, 88752, 1492),
    ("wall_7_21", "lookahead_7_low_g", A.LRTA_STAR): ("721.0853531617402", 4442, 93776, 638),
    ("wall_7_21", "lookahead_7_low_g", A.RTAA_STAR): ("702.4406922210678", 4234, 90912, 609),
    ("wall_7_21", "corner_cutting", A.LRTA_STAR): ("134.75230867899725", 19129, 140768, 108),
    ("wall_7_21", "corner_cutting", A.RTAA_STAR): ("153.82337649086284", 23436, 120576, 125),
    ("random_60", "lookahead_1", A.LRTA_STAR): ("94.24264068711928", 93, 145464, 94),
    ("random_60", "lookahead_1", A.RTAA_STAR): ("94.24264068711928", 93, 144712, 94),
    ("random_60", "lookahead_7_low_g", A.LRTA_STAR): ("117.69848480983495", 734, 146976, 110),
    ("random_60", "lookahead_7_low_g", A.RTAA_STAR): ("74.0416305603426", 448, 145352, 68),
    ("random_60", "corner_cutting", A.LRTA_STAR): ("48.284271247461895", 486, 171600, 41),
    ("random_60", "corner_cutting", A.RTAA_STAR): ("48.284271247461895", 998, 162808, 41),
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


@pytest.mark.parametrize("key", list(REALTIME_VARIANTS),
                         ids=lambda k: f"{k[0]}-{k[1]}-{k[2].value}")
def test_realtime_counters_under_parameters(grids, key):
    instance, variant, algo = key
    params, corner_cutting = VARIANTS[variant]
    grid = INSTANCES[instance][0](True) if corner_cutting else grids[instance]
    out = solve(grid, algo, params)
    got = (repr(out.path_cost), out.expanded, out.peak_memory_bytes, len(out.path))
    assert got == REALTIME_VARIANTS[key]
