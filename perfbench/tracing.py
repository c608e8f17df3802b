"""Per-layer spans, recorded by wrapping the program's functions from outside.

:func:`install` replaces module attributes by name (and methods on their
classes) with timing wrappers; nothing in the program's source changes.  A
function that other modules imported by name is replaced there too, because
the wrapper goes into every ``cohomolab`` module holding the same object.

Every span records its name, layer, parent span, cell, start and duration.
A layer's self time is the duration of its spans minus the time their child
spans cover.  Spans stay in memory until :meth:`Tracer.write` at the end of
the pass.  Work the tracer does for its own counters (nonzero counts, bit
lengths) is charged to nobody: it is added to the enclosing span's child
time, so it leaves every self time alone and shows only in the overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

# layer metric prefix -> functions it covers, as "module:attribute".  The
# comment on each names the end-to-end metric it should move, and where.
LAYERS = {
    # cells_per_s and cell_ms_p50 on window-sweep
    "modules.act": ["cohomolab.modules:GModule.act"],
    # cells_per_s on window-sweep (diff_rebuild_ratio: calls per distinct
    # group, resolution and degree)
    "resolutions.diff": [
        "cohomolab.resolutions:minimal_diff",
        "cohomolab.resolutions:bar_diff",
        "cohomolab.resolutions:complete_diff",
    ],
    # peak_rss_mb and cells_per_s on large-cells
    "engine.assemble": [
        "cohomolab.engine:_hom_matrix",
        "cohomolab.engine:_tensor_matrix",
        "cohomolab.engine:_hom_constraint_rows",
        "cohomolab.engine:_tensor_constraint_rows",
    ],
    # cells_per_s on representatives and window-sweep
    "engine.representatives": ["cohomolab.engine:_extract_representatives"],
    # cells_per_s on representatives
    "engine.factor_set": [
        "cohomolab.engine:to_factor_set",
        "cohomolab.engine:FactorSet.cocycle_identity_holds",
    ],
    # route selection and guards: cell_ms_p50 on window-sweep
    "engine.other": [
        "cohomolab.engine:ordinary_cohomology",
        "cohomolab.engine:tate_cohomology",
        "cohomolab.engine:homology",
        "cohomolab.engine:dual_tate",
        "cohomolab.engine:_lattice_hom_group",
        "cohomolab.engine:_finite_hom_group",
    ],
    # cells_per_s and cell_ms_tail on large-cells
    "intlinalg.smith": [
        "cohomolab.intlinalg:smith_diagonal",
        "cohomolab.intlinalg:_smith_diagonal_np",
        "cohomolab.intlinalg:_smith_eliminate",
    ],
    # cell_ms_tail on representatives (echelon_max_bits: the widest entry an
    # echelon returns)
    "intlinalg.echelon": [
        "cohomolab.intlinalg:echelon_rows",
        "cohomolab.intlinalg:_echelon_vectors",
        "cohomolab.intlinalg:_echelon_vectors_np",
        "cohomolab.intlinalg:_echelon_vectors_py",
        "cohomolab.intlinalg:column_hnf",
        "cohomolab.intlinalg:hermite_reduce",
    ],
    # the next four: cells_per_s on representatives and window-sweep
    "intlinalg.kernel": ["cohomolab.intlinalg:kernel_basis"],
    "intlinalg.presentation": [
        "cohomolab.intlinalg:quotient_presentation",
        "cohomolab.intlinalg:quotient_invariants",
    ],
    "intlinalg.congruence": [
        "cohomolab.intlinalg:congruence_kernel_columns",
        "cohomolab.intlinalg:_congruence_reduce_np",
        "cohomolab.intlinalg:quotient_invariants_mod",
        "cohomolab.intlinalg:_coords_in_span",
        "cohomolab.intlinalg:_coords_in_span_np",
    ],
    "intlinalg.cokernel": ["cohomolab.intlinalg:cokernel_torsion"],
    # cells_per_s on representatives
    "closed_forms.family": ["cohomolab.closed_forms:generator_family"],
}

# int64 fast paths that give up by raising; each call is an attempt, and the
# fallbacks should move cells_per_s on representatives and large-cells
INT64_PATHS = {
    "cohomolab.intlinalg:_echelon_vectors_np",
    "cohomolab.intlinalg:_smith_diagonal_np",
    "cohomolab.intlinalg:_coords_in_span_np",
}

CELL = "trace.unattributed"

# span fields
_NAME, _LAYER, _PARENT, _CELL, _START, _DUR, _CHILD = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cell = -1
        self.paused = True
        self.counts: Counter = Counter()
        self.diff_keys: set = set()
        self.max_bits = 0
        self.bookkeeping_s = 0.0
        self.missing: list[str] = []
        self.risk: tuple[type, ...] = (OverflowError,)

    def enter(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, layer, parent, self.cell, perf_counter(), 0.0, 0.0])
        self.stack.append(idx)
        return idx

    def leave(self, idx: int) -> float:
        span = self.spans[idx]
        dur = perf_counter() - span[_START]
        span[_DUR] += dur
        self.stack.pop()
        if span[_PARENT] >= 0:
            self.spans[span[_PARENT]][_CHILD] += dur
        return dur

    def outermost(self, idx: int) -> bool:
        """True when the span's parent belongs to another layer."""
        parent = self.spans[idx][_PARENT]
        return parent < 0 or self.spans[parent][_LAYER] != self.spans[idx][_LAYER]

    def bookkeep(self, fn, *args) -> None:
        t0 = perf_counter()
        fn(*args)
        dt = perf_counter() - t0
        self.bookkeeping_s += dt
        if self.stack:
            self.spans[self.stack[-1]][_CHILD] += dt

    # -- cells -------------------------------------------------------------

    def begin_cell(self, index: int) -> None:
        self.cell = index
        self.paused = False
        self._root = self.enter("cell", CELL)

    def end_cell(self) -> None:
        self.leave(self._root)
        self.paused = True
        self.cell = -1

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for idx, span in enumerate(self.spans):
            self_s[span[_LAYER]] += span[_DUR] - span[_CHILD]
            if self.outermost(idx):
                calls[span[_LAYER]] += 1
        out = {f"{layer}_s": self_s[layer] for layer in list(LAYERS) + [CELL]}
        out["modules.act_calls"] = calls["modules.act"]
        out["resolutions.diff_calls"] = calls["resolutions.diff"]
        out["intlinalg.smith_calls"] = calls["intlinalg.smith"]
        out["engine.assemble_calls"] = calls["engine.assemble"]
        out.update({k: v for k, v in self.counts.items()})
        out["resolutions.diff_keys"] = len(self.diff_keys)
        out["intlinalg.echelon_max_bits"] = self.max_bits
        out["trace.bookkeeping_s"] = self.bookkeeping_s
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "layer", "parent", "cell", "start", "dur", "child"],
                    "missing": self.missing,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


# ---------------------------------------------------------------------------
# Counters read off arguments and return values


def _matrix_counts(tracer: Tracer, mat) -> None:
    rows = getattr(mat, "data", mat)
    try:
        nnz = sum(len(r) - r.count(0) for r in rows)
        units = sum(r.count(1) + r.count(-1) for r in rows)
        cells = len(rows) * (len(rows[0]) if len(rows) else 0)
    except (TypeError, AttributeError):
        tracer.counts["engine.assemble_uncounted"] += 1
        return
    tracer.counts["engine.assemble_cells"] += cells
    tracer.counts["engine.assemble_nnz"] += nnz
    tracer.counts["engine.assemble_units"] += units


def _echelon_bits(tracer: Tracer, rows) -> None:
    top = 0
    for r in rows:
        if len(r):
            top = max(top, abs(int(max(r))), abs(int(min(r))))
    tracer.max_bits = max(tracer.max_bits, top.bit_length())


def _diff_key(qualname: str, args: dict) -> tuple:
    if qualname == "complete_diff":
        res = args["res"]
        return (res.spec.orders, f"complete-{res.kind}", args["n"])
    kind = "minimal" if qualname == "minimal_diff" else "bar"
    return (args["spec"].orders, kind, args["n"])


def _smith_cells(qualname: str, args: dict) -> int:
    if qualname == "_smith_eliminate":
        return args["el"].m * args["el"].n
    return args["m"] * args["n"]


# ---------------------------------------------------------------------------
# Wrapping


def _resolve(path: str):
    modname, attr = path.split(":")
    module = sys.modules.get(modname)
    if module is None:
        return None, None, None
    owner, name = module, attr
    if "." in attr:
        cls, name = attr.split(".")
        owner = getattr(module, cls, None)
    fn = getattr(owner, name, None) if owner is not None else None
    return owner, name, fn


def _make_wrapper(tracer: Tracer, path: str, layer: str, fn):
    qualname = path.split(":")[1].split(".")[-1]
    sig = inspect.signature(fn)
    if inspect.isgeneratorfunction(fn):
        return _make_generator_wrapper(tracer, layer, fn, qualname, sig)
    int64 = path in INT64_PATHS

    def after(idx: int, args, kwargs, out) -> None:
        if not tracer.outermost(idx):
            return
        if layer == "resolutions.diff":
            tracer.diff_keys.add(_diff_key(qualname, sig.bind(*args, **kwargs).arguments))
        elif layer == "intlinalg.smith":
            bound = sig.bind(*args, **kwargs).arguments
            tracer.counts["intlinalg.smith_cells"] += _smith_cells(qualname, bound)
        elif layer == "engine.assemble":
            _matrix_counts(tracer, out)
        elif layer == "intlinalg.echelon" and qualname != "hermite_reduce":
            _echelon_bits(tracer, out)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        idx = tracer.enter(qualname, layer)
        if int64:
            tracer.counts["intlinalg.int64_attempts"] += 1
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            dur = tracer.leave(idx)
            if int64 and isinstance(exc, tracer.risk):
                tracer.counts["intlinalg.int64_fallbacks"] += 1
                tracer.counts["intlinalg.int64_wasted_s"] += dur
            raise
        tracer.leave(idx)
        tracer.bookkeep(after, idx, args, kwargs, out)
        return out

    return traced


def _make_generator_wrapper(tracer: Tracer, layer: str, fn, qualname: str, sig):
    """Generators do their work when consumed, so each resumption is timed
    as part of one span that stays attached to the cell and layer it was
    created in; nested calls made while it runs become its children."""

    def count_row(row, ncols: int) -> None:
        tracer.counts["engine.assemble_cells"] += ncols
        tracer.counts["engine.assemble_nnz"] += len(row)
        tracer.counts["engine.assemble_units"] += sum(1 for _, c in row if c in (1, -1))

    def resumed(gen, idx: int, ncols: int):
        span = tracer.spans[idx]
        done = object()
        while True:
            t0 = perf_counter()
            tracer.stack.append(idx)
            try:
                row = next(gen, done)
            finally:
                tracer.stack.pop()
                dt = perf_counter() - t0
                span[_DUR] += dt
                tracer.spans[tracer.stack[-1]][_CHILD] += dt
            if row is done:
                return
            tracer.bookkeep(count_row, row, ncols)
            yield row

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        bound = sig.bind(*args, **kwargs).arguments
        # the hom side has one column per row of D, the tensor side per column
        D = bound["D"]
        ncols = bound["M"].rank * (D.rows if qualname == "_hom_constraint_rows" else D.cols)
        idx = tracer.enter(qualname, layer)
        gen = fn(*args, **kwargs)
        tracer.leave(idx)
        return resumed(gen, idx, ncols)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every function named in :data:`LAYERS` that the program still has.

    A name that no longer exists is reported in ``tracer.missing`` (and on
    stderr) instead of stopping the run, so the trace survives refactors.
    """
    intlinalg = sys.modules.get("cohomolab.intlinalg")
    risk = getattr(intlinalg, "_NumericRisk", None)
    if isinstance(risk, type):
        tracer.risk = (risk, OverflowError)
    for layer, paths in LAYERS.items():
        for path in paths:
            owner, name, fn = _resolve(path)
            if fn is None or not callable(fn):
                tracer.missing.append(path)
                continue
            wrapped = _make_wrapper(tracer, path, layer, fn)
            setattr(owner, name, wrapped)
            if owner is sys.modules[path.split(":")[0]]:
                for modname, module in list(sys.modules.items()):
                    if modname.startswith("cohomolab") and getattr(module, name, None) is fn:
                        setattr(module, name, wrapped)
    if tracer.missing:
        print(f"trace: not found, not traced: {', '.join(tracer.missing)}", file=sys.stderr)
