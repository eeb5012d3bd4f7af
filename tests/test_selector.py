import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from gridbench import (
    AlgorithmId,
    Grid,
    InvalidPriorityError,
    InvalidSpecError,
    Priority,
    RandomGridSpec,
    SelectionRequest,
    euclidean_heuristic,
    evaluate_selection,
    generate_random_grid,
    parse_priority,
    select_algorithm,
)


def grid_with_distance(dx, dy):
    w, h = dx + 2, dy + 2
    return Grid(w, h, frozenset(), (0, 0), (dx, dy))


class TestTruthTable:
    def test_memory(self):
        req = SelectionRequest(grid=grid_with_distance(10, 0), priority=Priority.MEMORY)
        assert select_algorithm(req) is AlgorithmId.D_STAR_LITE

    def test_path_cost(self):
        req = SelectionRequest(grid=grid_with_distance(10, 0), priority=Priority.PATH_COST)
        assert select_algorithm(req) is AlgorithmId.D_STAR_LITE

    def test_solving_time_far(self):
        req = SelectionRequest(grid=grid_with_distance(150, 0), priority=Priority.SOLVING_TIME)
        assert select_algorithm(req) is AlgorithmId.RTAA_STAR

    def test_solving_time_near(self):
        req = SelectionRequest(grid=grid_with_distance(100, 0), priority=Priority.SOLVING_TIME)
        assert select_algorithm(req) is AlgorithmId.ARA_STAR

    def test_boundary_selects_rtaa(self):
        req = SelectionRequest(grid=grid_with_distance(140, 0), priority=Priority.SOLVING_TIME)
        assert euclidean_heuristic(req.grid.start, req.grid.goal) == 140.0
        assert select_algorithm(req) is AlgorithmId.RTAA_STAR

    @given(st.integers(1, 300), st.integers(1, 400))
    def test_threshold_monotonicity(self, dist, threshold):
        # raising the threshold can only flip RTAA* -> ARA*, never back
        grid = grid_with_distance(dist, 0)
        low = select_algorithm(SelectionRequest(grid=grid, priority=Priority.SOLVING_TIME,
                                                distance_threshold=threshold))
        high = select_algorithm(SelectionRequest(grid=grid, priority=Priority.SOLVING_TIME,
                                                 distance_threshold=threshold + 50))
        if low is AlgorithmId.ARA_STAR:
            assert high is AlgorithmId.ARA_STAR


class TestPriorityParsing:
    @pytest.mark.parametrize("text,expected", [
        ("memory", Priority.MEMORY),
        ("Memory", Priority.MEMORY),
        ("MEMORY", Priority.MEMORY),
        ("pathcost", Priority.PATH_COST),
        ("path_cost", Priority.PATH_COST),
        ("PathCost", Priority.PATH_COST),
        ("solvingtime", Priority.SOLVING_TIME),
        ("solving-time", Priority.SOLVING_TIME),
    ])
    def test_accepted_spellings(self, text, expected):
        assert parse_priority(text) is expected

    def test_unknown_rejected(self):
        with pytest.raises(InvalidPriorityError):
            parse_priority("speed")

    def test_bad_threshold_rejected(self):
        with pytest.raises(InvalidSpecError):
            SelectionRequest(grid=grid_with_distance(5, 0), priority=Priority.MEMORY,
                             distance_threshold=0.0)


class TestEvaluateSelection:
    def test_tie_counts_as_best(self):
        # on an empty grid every candidate finds the same optimal cost
        grid = Grid(8, 8, frozenset(), (0, 0), (7, 7))
        req = SelectionRequest(grid=grid, priority=Priority.PATH_COST)
        ev = evaluate_selection(req, reps=2)
        assert ev.selected is AlgorithmId.D_STAR_LITE
        assert ev.selected_is_best

    def test_flag_matches_measured_metrics(self):
        grid = generate_random_grid(RandomGridSpec(n=25, density=0.25, sg_distance=15, seed=8))
        req = SelectionRequest(grid=grid, priority=Priority.MEMORY)
        ev = evaluate_selection(req, reps=2)
        means = {c.algorithm: c.stats["memory_kb"].mean for c in ev.candidates}
        assert ev.best == min(means, key=means.get)
        assert ev.selected_is_best == (means[ev.selected] <= means[ev.best] + 1e-9)

    def test_default_candidate_trio(self):
        grid = Grid(6, 6, frozenset(), (0, 0), (5, 5))
        req = SelectionRequest(grid=grid, priority=Priority.MEMORY)
        ev = evaluate_selection(req, reps=1)
        assert [c.algorithm for c in ev.candidates] == [
            AlgorithmId.RTAA_STAR, AlgorithmId.ARA_STAR, AlgorithmId.D_STAR_LITE,
        ]

    @pytest.mark.parametrize("candidates", [[], ()], ids=["list", "tuple"])
    def test_empty_candidates_rejected(self, candidates):
        # only None means the default trio
        req = SelectionRequest(grid=Grid(5, 5, frozenset(), (0, 0), (4, 4)),
                               priority=Priority.MEMORY)
        with pytest.raises(InvalidSpecError, match="must not be empty"):
            evaluate_selection(req, candidates=candidates, reps=1)

    def test_dstar_lite_beats_rtaa_memory_on_dense_grid(self):
        grid = generate_random_grid(RandomGridSpec(n=40, density=0.35, sg_distance=20, seed=3))
        req = SelectionRequest(grid=grid, priority=Priority.MEMORY)
        ev = evaluate_selection(
            req, candidates=(AlgorithmId.RTAA_STAR, AlgorithmId.D_STAR_LITE), reps=2,
        )
        assert ev.best is AlgorithmId.D_STAR_LITE
        assert ev.selected_is_best

    def test_selector_can_be_wrong(self):
        # nothing forces the measured winner to match the rule's suggestion;
        # the evaluation record must expose that honestly
        grid = generate_random_grid(RandomGridSpec(n=30, density=0.35, sg_distance=18, seed=11))
        req = SelectionRequest(grid=grid, priority=Priority.SOLVING_TIME)
        ev = evaluate_selection(req, reps=3)
        assert ev.selected is AlgorithmId.ARA_STAR  # distance 18 < threshold 140
        assert isinstance(ev.selected_is_best, bool)


def test_selection_table_script_prints_five_blocks():
    script = Path(__file__).resolve().parent.parent / "scripts" / "selection_table.py"
    proc = subprocess.run([sys.executable, str(script), "--reps", "1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    blocks = proc.stdout.split("== ")[1:]
    assert len(blocks) == 5
    for block in blocks:
        lines = block.strip().splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("candidate"))
        assert [line.split()[0] for line in lines[2:header]] == [p.name for p in Priority]
        assert [line[:12].strip() for line in lines[header + 1:]] == ["RTAA*", "ARA*", "D* Lite"]
