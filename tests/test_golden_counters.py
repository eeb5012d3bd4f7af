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

A = AlgorithmId

# algorithm -> (repr(path_cost), expanded, peak_memory_bytes, len(path))
WALL_7_21 = {
    A.LRTA_STAR: ("147.68124086713183", 22177, 144256, 123),
    A.RTAA_STAR: ("174.16652224137056", 28468, 118728, 147),
    A.ARA_STAR: ("135.1959594928932", 3473, 330736, 113),
    A.LPA_STAR: ("135.1959594928932", 1811, 279808, 113),
    A.D_STAR: ("135.19595949289322", 2049, 280128, 113),
    A.D_STAR_LITE: ("135.1959594928932", 1790, 278288, 113),
    A.ASTAR_ORACLE: ("135.1959594928932", 1800, 277480, 113),
}

RANDOM_60 = {
    A.LRTA_STAR: ("61.79898987322332", 2134, 182968, 57),
    A.RTAA_STAR: ("60.38477631085023", 3494, 157976, 56),
    A.ARA_STAR: ("58.38477631085023", 758, 146128, 54),
    A.LPA_STAR: ("58.38477631085023", 634, 114784, 54),
    A.D_STAR: ("58.38477631085023", 1885, 266752, 54),
    A.D_STAR_LITE: ("58.384776310850214", 698, 115696, 54),
    A.ASTAR_ORACLE: ("58.38477631085023", 631, 116472, 54),
}

INSTANCES = {
    "wall_7_21": (lambda: generate_wall_grid(WallGridSpec(7, 21)), WALL_7_21),
    "random_60": (
        lambda: generate_random_grid(RandomGridSpec(n=60, density=0.3, sg_distance=40, seed=3)),
        RANDOM_60,
    ),
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
