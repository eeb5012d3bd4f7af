"""The benchmark's hooks into the package stay valid.

``perfbench/tracing.Tracer`` patches module attributes and class methods
of ``gridbench`` by name (``neighbor_cells`` in ``grid``, ``lpa`` and
``dstar_lite``, ``LazyHeap``, ``TrackedMap``, the probe and the planner
methods).  A change under ``src/`` that drops one of those names fails
here, not at the next traced benchmark run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_hook(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    assert set(workloads.make_workloads(str(tmp_path))) == {
        "static_ref300", "sweep_quick", "replan_ref300"}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        assert patched
        assert all(getattr(owner, name) is not original for owner, name, original in patched)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, name) is original for owner, name, original in patched)
