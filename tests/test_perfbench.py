"""The benchmark under ``perfbench/`` still runs against the library: every
workload's cells build, and one reference cell per (workload, kind,
resolution, representatives) runs and checks through the benchmark's own
``run_cell`` and ``Checker``.  ``make_reference.py`` needs numpy, so only
the names it calls are resolved."""

import json
from pathlib import Path

from cohomolab.closed_forms import predicted_invariants
from cohomolab.engine import is_cocycle_2
from cohomolab.intlinalg import AbelianInvariants
from cohomolab.modules import coinvariants

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_reference_cells_run_and_check(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import execute
    import workloads

    reference = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]
    first = {}
    for name in workloads.WORKLOADS:
        cells = reference[name]["cells"]
        built = [workloads.cell_id(c) for c in workloads.workload_cells(name)]
        assert built == [c["id"] for c in cells], name
        for cell in cells:
            first.setdefault((name, cell["kind"], cell.get("resolution"), cell.get("reps")), cell)
    assert len(first) == 6
    chosen = list(first.values())
    setup = execute.Setup(chosen)
    checker = execute.Checker(setup)
    for cell in chosen:
        out = execute.run_cell(cell, setup)
        assert checker.check(cell, cell["expected"], out) is None, cell["id"]


def test_library_names_the_benchmark_calls_resolve():
    # make_reference.py calls these, beyond what execute.py imports
    assert AbelianInvariants(0, (2, 4)).order() == 8
    assert all(map(callable, (is_cocycle_2, predicted_invariants, coinvariants)))
