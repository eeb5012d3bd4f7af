"""scripts/ab_solvers.py: one process, two trees, every solver on both reference instances."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_solvers.py"
LABELS = ["LRTA*", "RTAA*", "ARA*", "LPA*", "D*", "D* Lite", "A*"]


def _run(tree_a, tree_b):
    return subprocess.run([sys.executable, str(SCRIPT), str(tree_a), str(tree_b), "--rounds", "1"],
                          capture_output=True, text=True, timeout=120)


def test_same_tree_twice_agrees():
    proc = _run(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    blocks = proc.stdout.split("\n\n")[1:]
    assert [b.splitlines()[0] for b in blocks] == ["random 300x300", "7-wall, length 21"]
    for block in blocks:
        rows = [line.split() for line in block.splitlines()[2:]]
        assert [" ".join(r[:-7]) for r in rows[:-1]] == LABELS
        assert rows[-1][0] == "summed"
        # the reference grid's D* sweep and the wall grid's A* search
        assert all(int(r[-7]) > 0 and float(r[-2]) > 0 for r in rows[:-1])


def test_differing_counters_exit_one(tmp_path):
    """A tree whose heap entries are charged one byte more differs in every peak."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    instr = tmp_path / "src" / "gridbench" / "instrumentation.py"
    text = instr.read_text()
    assert "HEAP_ENTRY_BYTES = 88" in text
    instr.write_text(text.replace("HEAP_ENTRY_BYTES = 88", "HEAP_ENTRY_BYTES = 89"))
    proc = _run(ROOT, tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.count("DIFFER:") == 2 * len(LABELS)
