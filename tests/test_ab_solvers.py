"""scripts/ab_solvers.py: one process, two trees, every solver on both reference instances.

Also the repair replay of the incremental planners on the reference grid,
and the draw of the reference grid itself.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_solvers.py"
LABELS = ["LRTA*", "RTAA*", "ARA*", "LPA*", "D*", "D* Lite", "A*"]
PLANNERS = ["LPA*", "D*", "D* Lite"]


def _run(tree_a, tree_b):
    return subprocess.run([sys.executable, str(SCRIPT), str(tree_a), str(tree_b), "--rounds", "1"],
                          capture_output=True, text=True, timeout=120)


def test_same_tree_twice_agrees():
    proc = _run(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    *blocks, repairs, generator = proc.stdout.split("\n\n")[1:]
    assert [b.splitlines()[0] for b in blocks] == ["random 300x300", "7-wall, length 21"]
    for block in blocks:
        rows = [line.split() for line in block.splitlines()[2:]]
        assert [" ".join(r[:-7]) for r in rows[:-1]] == LABELS
        assert rows[-1][0] == "summed"
        # the reference grid's D* sweep and the wall grid's A* search
        assert all(int(r[-7]) > 0 and float(r[-2]) > 0 for r in rows[:-1])
    lines = repairs.splitlines()
    assert lines[0] == "repair path, random 300x300, 12 events"
    rows = [line.split() for line in lines[2:]]
    assert [" ".join(r[:-7]) for r in rows] == [
        f"{p} {phase}" for p in PLANNERS for phase in ("initial", "repair")]
    assert all(int(r[-7]) > 0 and float(r[-2]) > 0 for r in rows)
    lines = generator.splitlines()
    assert lines[0] == "generator, random 300x300"
    (row,) = [line.split() for line in lines[2:]]
    assert row[0] == "generate" and len(row) == 5 and float(row[-2]) > 0


def _copy_src(tmp_path, module, old, new):
    """A copy of this tree's ``src`` with ``old`` replaced by ``new`` in one module."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "gridbench" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))


def test_differing_counters_exit_one(tmp_path):
    """A tree whose heap entries are charged one byte more differs in every peak."""
    _copy_src(tmp_path, "instrumentation.py", "HEAP_ENTRY_BYTES = 88", "HEAP_ENTRY_BYTES = 89")
    proc = _run(ROOT, tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.count("DIFFER:") == 2 * len(LABELS)


def test_differing_repair_expansions_exit_one(tmp_path):
    """A D* that over-counts each replan by one differs only in the repair replay.

    It differs from the first search on: D*'s first ``plan`` runs ``replan``
    after its sweep, and ``solve`` runs the sweep alone.
    """
    _copy_src(tmp_path, "solvers/dstar.py", "self.expanded += expanded\n",
              "self.expanded += expanded + 1\n")
    proc = _run(ROOT, tmp_path)
    assert proc.returncode == 1
    differ = [line for line in proc.stderr.splitlines() if line.startswith("DIFFER:")]
    assert len(differ) == 1
    assert differ[0].startswith("DIFFER: repair path, D*: search 0 (expanded, path_cost)")


def test_tree_without_plan_exits_two(tmp_path):
    """A tree whose D* has no ``plan`` ends the run before any solve, naming the tree."""
    _copy_src(tmp_path, "solvers/dstar.py", "def plan(", "def _plan(")
    proc = _run(ROOT, tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"{tmp_path}: its incremental planners have no plan(position)\n"


def test_differing_reference_grid_exits_one(tmp_path):
    """A generator that draws the start's y before its x differs in the reference grid."""
    _copy_src(tmp_path, "generators.py",
              "sx = min(int(rand() * n), n - 1)\n        sy = min(int(rand() * n), n - 1)",
              "sy = min(int(rand() * n), n - 1)\n        sx = min(int(rand() * n), n - 1)")
    proc = _run(ROOT, tmp_path)
    assert proc.returncode == 1
    differ = [line for line in proc.stderr.splitlines() if line.startswith("DIFFER:")]
    assert differ[-1].startswith(
        "DIFFER: generator, random 300x300: (flags sha256, start, goal)")
