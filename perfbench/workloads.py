"""The benchmark's cells: what each workload computes.

A cell is one computed group: a ``tate_cohomology``, ``ordinary_cohomology``
or ``homology`` call, or one factor-set table together with its identity
check.  Every workload is a fixed list of cells; the run seed only permutes
their order, so runs of any seed stay comparable.

Cells are plain dicts so they can be written to and read from JSON:

* ``kind``: ``tate``, ``ordinary``, ``homology`` or ``factor-set``;
* ``group``: the cyclic factor orders;
* ``module``, ``degree``, ``resolution``, ``reps`` (``want_representatives``)
  for the three cohomology kinds;
* ``case`` and ``indices`` for factor-set cells;
* ``limits``: overrides of the default ``EngineLimits`` fields, if any.
"""

from __future__ import annotations

import itertools
import re

from cohomolab.closed_forms import generator_family
from cohomolab.group_ring import GroupSpec
from cohomolab.verify import _oracle_modules as oracle_modules

WORKLOADS = ("window-sweep", "large-cells", "representatives")

# groups over which window-sweep sweeps the whole default Tate window
_SWEEP_GROUPS = [
    (2, 2),
    (2, 4),
    (4, 4),
    (2, 6),
    (3, 9),
    (2, 2, 2),
    (2, 4, 8),
    (2, 2, 2, 2),
    (3, 3, 3),
    (5, 25),
]
_FACTOR_SET_GROUPS = [(4,), (8,), (9,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (4, 4)]
_FACTOR_SET_CASES = ("trivial-H2", "torsion-H2", "cyclo-H2", "dual-cyclo-H2")

# Cells that belong to a workload's theme but are left out, each with why:
# a run must stay short and its figures steady.
KNOWN_EXCLUDED = [
    {
        "workload": "representatives",
        "cell": "ordinary/bar/9/cyclo:3:1:1/2 with want_representatives=True",
        "reason": "coefficient blow-up in the kernel echelon of a 6750x450 matrix "
        "(3196-bit entries); not finished after 5 minutes at the seed",
    },
    {
        "workload": "representatives",
        "cell": "ordinary/bar/{2,2,4 and 4,4}/<rank-2 oracle modules>/2 "
        "with want_representatives=True",
        "reason": "the same blow-up on order-16 groups; minutes per cell at the seed",
    },
    {
        "workload": "large-cells",
        "cell": "ordinary/bar/2,2,4/{cyclo:2:2:0,0,1 and star(cyclo:2:2:0,0,1)}/3",
        "reason": "8-10 s each and more than half of a pass; with one pass per run "
        "their +-25% order-dependent time spread cells_per_s by 11% across seeds. "
        "The rank-1 cells over (2,2,4) keep the same wide 0/+-1 Smith input "
        "at an eighth of the size",
    },
    {
        "workload": "large-cells",
        "cell": "tate/minimal/2,2,2,2/trivial/18",
        "reason": "4 s, half a pass at the seed; n=15 takes its place so that "
        "three passes fit in a run. n=14..16 have the same Smith shape",
    },
    {
        "workload": "large-cells",
        "cell": "ordinary/bar/{2,2,2 and 3,3}/reduce:4(trivial)/3",
        "reason": "run length; the congruence route at degree 3 stays measured "
        "by the same cell over (2,4)",
    },
    {
        "workload": "large-cells",
        "cell": "ordinary/bar/2,2,4/reduce:4(trivial)/3",
        "reason": "over the default cell cap (a 50625 x 3375 congruence kernel)",
    },
]


def _gname(orders) -> str:
    return ",".join(map(str, orders))


def _exps(orders, q: int) -> str:
    return ",".join("1" if o % q == 0 else "0" for o in orders)


def _only(orders, k: int) -> str:
    return ",".join("1" if i == k else "0" for i in range(len(orders)))


def cell_id(cell: dict) -> str:
    if cell["kind"] == "factor-set":
        idx = _gname(cell["indices"]) or "-"
        return f"factor-set/{_gname(cell['group'])}/{cell['case']}/{idx}"
    rep = "" if cell["reps"] is None else f"/reps={int(cell['reps'])}"
    return (
        f"{cell['kind']}/{cell['resolution']}/{_gname(cell['group'])}/"
        f"{cell['module']}/{cell['degree']}{rep}"
    )


def _cell(kind, orders, module, degree, *, resolution="minimal", reps=None, limits=None):
    return {
        "kind": kind,
        "group": list(orders),
        "module": module,
        "degree": degree,
        "resolution": resolution,
        "reps": reps,
        "limits": dict(limits or {}),
    }


def _sweep_cells() -> list[dict]:
    cells = []
    for orders in _SWEEP_GROUPS:
        G = GroupSpec(orders)
        primes = sorted(G.primary_decomposition())
        limits = {"max_group_order": G.order} if G.order > 36 else {}
        lattices = ["trivial", "trivial:2"]
        cyclo = []
        for p in primes:
            cyclo.append(f"cyclo:{p}:1:{_exps(orders, p)}")
            if any(o % (p * p) == 0 for o in orders):
                cyclo.append(f"cyclo:{p}:2:{_exps(orders, p * p)}")
        lattices += cyclo + [f"star({t})" for t in cyclo]
        p = primes[0]
        ks = [k for k, o in enumerate(orders) if o % p == 0]
        left, right = _only(orders, ks[0]), _only(orders, ks[-1])
        lattices.append(f"tensor(cyclo:{p}:1:{left},cyclo:{p}:1:{right})")
        for text in lattices:
            for n in range(-6, 7):
                cells.append(_cell("tate", orders, text, n, limits=limits))
        first = cyclo[0]
        for text in (f"reduce:{p * p}(trivial)", f"reduce:{p}({first})"):
            for n in range(0, 7):
                cells.append(_cell("tate", orders, text, n, limits=limits))
        for text in ("trivial", first):
            for n in range(0, 7):
                cells.append(_cell("homology", orders, text, n, limits=limits))
    return cells


def _lattice_texts(orders) -> list[str]:
    """Oracle texts of lattices acting through roots of unity of order p."""
    return [
        t for t in oracle_modules(orders)
        if not t.startswith("reduce") and not re.search(r"cyclo:\d+:2:", t)
    ]


def _large_cells() -> list[dict]:
    cells = []
    for orders, n, texts in (
        ((2, 2, 4), 2, oracle_modules((2, 2, 4))),
        ((2, 2, 4), 3, _lattice_texts((2, 2, 4))),
        ((2, 4), 3, oracle_modules((2, 4))),
        ((2, 2, 2), 3, _lattice_texts((2, 2, 2))),
        ((3, 3), 3, _lattice_texts((3, 3))),
    ):
        for text in texts:
            cells.append(_cell("ordinary", orders, text, n, resolution="bar"))
    wide = {"min_tate_degree": -16, "max_tate_degree": 16}
    for n in (14, 15, 16):
        cells.append(_cell("tate", (2, 2, 2, 2), "trivial", n, limits=wide))
    return cells


def _representative_cells() -> list[dict]:
    cells = []
    for orders in ((2, 2), (4,), (2, 4), (2, 2, 2), (3, 3)):
        for text in oracle_modules(orders):
            for n in (1, 2):
                cells.append(_cell("ordinary", orders, text, n, resolution="bar", reps=True))
    # The kernel echelon leaves int64 range on the first two, as it does on
    # the oracle cell (2,4) cyclo:2:2:0,1 at n=2 above; the third is large
    # without blowing up.
    for orders, text, n in (
        ((8,), "cyclo:2:2:1", 2),
        ((2, 6), "cyclo:2:1:1,1", 2),
        ((2, 2, 2), "cyclo:2:1:1,1,1", 3),
    ):
        cells.append(_cell("ordinary", orders, text, n, resolution="bar", reps=True))
    for case, orders in itertools.product(_FACTOR_SET_CASES, _FACTOR_SET_GROUPS):
        for member in generator_family(case, GroupSpec(orders)).members:
            cells.append(
                {"kind": "factor-set", "group": list(orders), "case": case,
                 "indices": list(member.indices), "limits": {}}
            )
    return cells


def workload_cells(name: str) -> list[dict]:
    """The cells of workload ``name``; runs read them from the reference file."""
    if name == "window-sweep":
        return _sweep_cells()
    if name == "large-cells":
        return _large_cells()
    if name == "representatives":
        return _representative_cells()
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
