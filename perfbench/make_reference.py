"""Build ``perfbench/reference.json``: every cell with its expected output.

Run from the root of the repository:

    python3 perfbench/make_reference.py

Each expected output is cross-checked when it is generated, by a route
independent of the one the cell takes:

* bar-resolution cells against the minimal resolution (the oracle pairing);
* every cell ``closed_forms.predicted_invariants`` covers against it;
* other Tate lattice cells against the dual lattice in the mirrored degree;
* Tate cells of ``reduce:N(X)`` against the group order that the long exact
  sequence of 0 -> X -> X -> X/N -> 0 forces, and against the bar
  resolution where that is small;
* homology in degree n >= 1 against Tate degree -n-1, degree 0 against the
  coinvariants;
* factor sets against the degree-2 cocycle test and the order of their class.

Outputs are also put through the same checks a run makes (representatives
closed and generating, pair-table identity).  Any mismatch stops the script
before anything is written: a wrong value never becomes the expected one.
"""

from __future__ import annotations

import json
import platform
import re
import sys
from dataclasses import replace
from math import gcd, prod
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, "src")

import numpy  # noqa: E402

from cohomolab.closed_forms import predicted_invariants  # noqa: E402
from cohomolab.engine import (  # noqa: E402
    is_cocycle_2,
    ordinary_cohomology,
    tate_cohomology,
)
from cohomolab.modules import coinvariants, parse_module  # noqa: E402

from execute import Checker, Setup, digest, run_cell  # noqa: E402
from workloads import KNOWN_EXCLUDED, WORKLOADS, cell_id, workload_cells  # noqa: E402


class Mismatch(Exception):
    pass


def _same(label: str, got, want, checks: list[str]) -> None:
    if got != want:
        raise Mismatch(f"{label}: engine {got} vs {want}")
    checks.append(label)


def _widened(limits, lo: int, hi: int):
    return replace(
        limits,
        min_tate_degree=min(limits.min_tate_degree, lo),
        max_tate_degree=max(limits.max_tate_degree, hi),
    )


def cross_check(cell: dict, out, setup: Setup) -> list[str]:
    """Compare one output with every independent route that covers it."""
    checks: list[str] = []
    if cell["kind"] == "factor-set":
        gen, fs, holds = out
        if not holds or not is_cocycle_2(gen.module, gen.cochain):
            raise Mismatch("factor set of a non-cocycle, or identity fails")
        checks.append("cocycle")
        res = ordinary_cohomology(gen.module, 2, want_representatives=True)
        order = res.class_group_generated_by([gen.cochain]).order()
        _same("class order", order, gen.class_order, checks)
        return checks

    orders = tuple(cell["group"])
    G = setup.groups[orders]
    text, n, kind = cell["module"], cell["degree"], cell["kind"]
    limits = setup.limits_of(cell)
    M = setup.modules[(orders, text)]
    got = out.invariants

    if kind == "ordinary" and cell["resolution"] == "bar":
        _same("minimal", got, ordinary_cohomology(M, n, limits=limits).invariants, checks)
    if kind in ("tate", "ordinary"):
        want = predicted_invariants(text, G, n, kind=kind)
    else:
        want = predicted_invariants(text, G, -n - 1, kind="tate") if n >= 1 else None
    if want is not None:
        _same("closed-form", got, want, checks)

    if kind == "tate" and M.is_lattice and want is None:
        dual = parse_module(f"star({text})", G)
        _same("duality", got, tate_cohomology(dual, -n, limits=limits).invariants, checks)
    if kind == "tate" and not M.is_lattice:
        match = re.fullmatch(r"reduce:(\d+)\((.*)\)", text)
        N, X = int(match.group(1)), parse_module(match.group(2), G)
        wide = _widened(limits, -n - 1, n + 1)
        a = tate_cohomology(X, n, limits=wide).invariants.torsion
        b = tate_cohomology(X, n + 1, limits=wide).invariants.torsion
        forced = prod(gcd(x, N) for x in a) * prod(gcd(x, N) for x in b)
        _same("exact-sequence order", got.order(), forced, checks)
        if 1 <= n <= 3 and G.order <= 9:
            bar = ordinary_cohomology(M, n, resolution="bar", limits=limits)
            _same("bar", got, bar.invariants, checks)
    if kind == "homology":
        if n >= 1:
            wide = _widened(limits, -n - 1, n + 1)
            _same("tate", got, tate_cohomology(M, -n - 1, limits=wide).invariants, checks)
        else:
            _same("coinvariants", got, coinvariants(M), checks)
    if not checks:
        raise Mismatch("no independent route covers this cell")
    return checks


def build() -> dict:
    ref = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "known_excluded": KNOWN_EXCLUDED,
        "workloads": {},
    }
    for name in WORKLOADS:
        cells = workload_cells(name)
        setup = Setup(cells)
        checker = Checker(setup)
        for cell in cells:
            cell["id"] = cell_id(cell)
            try:
                out = run_cell(cell, setup)
                expected = {"output": digest(cell, out)}
                if cell["kind"] == "factor-set":
                    expected["nonzero"] = out[0].class_order > 1
                expected["checked_against"] = cross_check(cell, out, setup)
                problem = checker.check(cell, expected, out)
                if problem:
                    raise Mismatch(problem)
            except Mismatch as exc:
                raise SystemExit(f"reference not written: {cell['id']}: {exc}") from exc
            cell["expected"] = expected
        ids = [c["id"] for c in cells]
        if len(set(ids)) != len(ids):
            raise SystemExit(f"reference not written: duplicate cell ids in {name}")
        ref["workloads"][name] = {"cells": cells}
        print(f"{name}: {len(cells)} cells cross-checked", file=sys.stderr)
    return ref


def main() -> int:
    ref = build()
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
