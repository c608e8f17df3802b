"""Running one cell against the program, and checking what it returned.

Only :func:`run_cell` is timed.  The checks recompute what they need with
their own arithmetic on the module's generator matrices, so a fault in the
program's block assembly or action code cannot also hide itself here.
"""

from __future__ import annotations

import itertools

from cohomolab.closed_forms import generating_cocycle
from cohomolab.engine import homology, ordinary_cohomology, tate_cohomology, to_factor_set
from cohomolab.group_ring import GroupSpec
from cohomolab.limits import EngineLimits
from cohomolab.modules import parse_module
from cohomolab.resolutions import complete_diff, make_resolution


class Setup:
    """Everything parsed before the first timed cell: groups, modules, limits."""

    def __init__(self, cells: list[dict]):
        self.groups: dict[tuple[int, ...], GroupSpec] = {}
        self.modules: dict[tuple[tuple[int, ...], str], object] = {}
        self.limits: dict[tuple, EngineLimits] = {}
        for cell in cells:
            orders = tuple(cell["group"])
            G = self.groups.setdefault(orders, GroupSpec(orders))
            key = tuple(sorted(cell["limits"].items()))
            if key not in self.limits:
                self.limits[key] = EngineLimits(**cell["limits"])
            if cell["kind"] != "factor-set" and (orders, cell["module"]) not in self.modules:
                self.modules[(orders, cell["module"])] = parse_module(cell["module"], G)

    def limits_of(self, cell: dict) -> EngineLimits:
        return self.limits[tuple(sorted(cell["limits"].items()))]


def run_cell(cell: dict, setup: Setup):
    """The timed call: one cohomology group, or one factor set plus its check."""
    limits = setup.limits_of(cell)
    orders = tuple(cell["group"])
    if cell["kind"] == "factor-set":
        gen = generating_cocycle(cell["case"], setup.groups[orders], tuple(cell["indices"]))
        fs = to_factor_set(gen.module, gen.cochain, limits=limits)
        return gen, fs, fs.cocycle_identity_holds()
    M = setup.modules[(orders, cell["module"])]
    n, reps = cell["degree"], cell["reps"]
    if cell["kind"] == "tate":
        return tate_cohomology(M, n, limits=limits, want_representatives=reps)
    compute = ordinary_cohomology if cell["kind"] == "ordinary" else homology
    return compute(
        M, n, resolution=cell["resolution"], limits=limits, want_representatives=reps
    )


def digest(cell: dict, out) -> str:
    """The part of a cell's output that must match the reference exactly."""
    if cell["kind"] == "factor-set":
        return f"identity={int(bool(out[2]))}"
    inv = out.invariants
    return f"{inv.free_rank}|{','.join(map(str, inv.torsion))}"


# ---------------------------------------------------------------------------
# Independent checks


def _matmul(a, b, mod):
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return [[x % mod for x in row] for row in out] if mod else out


class _Action:
    """Group elements and group-ring elements as matrices, from the module's
    generator matrices alone."""

    def __init__(self, M):
        self.M = M
        self.mod = M.modulus
        eye = [[int(i == j) for j in range(M.rank)] for i in range(M.rank)]
        self.powers = []
        for A, o in zip(M.actions, M.spec.orders):
            gen = [list(r) for r in A.data]
            pw = [eye]
            for _ in range(o - 1):
                pw.append(_matmul(pw[-1], gen, self.mod))
            self.powers.append(pw)
        self._elements: dict = {}
        self._ring: dict = {}

    def element(self, g):
        hit = self._elements.get(g)
        if hit is None:
            hit = self.powers[0][g[0]] if g else []
            for pw, e in zip(self.powers[1:], g[1:]):
                hit = _matmul(hit, pw[e], self.mod)
            self._elements[g] = hit
        return hit

    def ring(self, x, antipode: bool):
        key = (x, antipode)
        hit = self._ring.get(key)
        if hit is None:
            d = self.M.rank
            hit = [[0] * d for _ in range(d)]
            orders = self.M.spec.orders
            for g, c in x.items():
                if antipode:
                    g = tuple((-e) % o for e, o in zip(g, orders))
                m = self.element(g)
                for t in range(d):
                    for u in range(d):
                        hit[t][u] += c * m[t][u]
            self._ring[key] = hit
        return hit


class Checker:
    """Checks cell outputs against the reference and against their own
    defining properties; keeps differentials and actions between cells."""

    def __init__(self, setup: Setup):
        self.setup = setup
        self._actions: dict = {}
        self._diffs: dict = {}

    def _action(self, M) -> _Action:
        key = (M.spec.orders, M.rank, M.modulus, M.actions)
        if key not in self._actions:
            self._actions[key] = _Action(M)
        return self._actions[key]

    def _outgoing(self, cell: dict, limits):
        """The resolution differential a representative must be closed under,
        or None when the degree has no outgoing map."""
        n, kind = cell["degree"], cell["kind"]
        key = (tuple(cell["group"]), cell["resolution"], kind, n)
        if key not in self._diffs:
            res = make_resolution(self.setup.groups[key[0]], cell["resolution"], limits)
            if kind == "tate":
                D = complete_diff(res, n + 1)
            elif kind == "ordinary":
                D = res.diff(n + 1)
            else:
                D = res.diff(n) if n >= 1 else None
            self._diffs[key] = D
        return self._diffs[key]

    def _closed(self, act: _Action, D, values, tensor: bool) -> bool:
        d, mod = act.M.rank, act.mod
        width = D.rows if tensor else D.cols
        out = [[0] * d for _ in range(width)]
        for (i, j), x in D.entries.items():
            src, dst = (j, i) if tensor else (i, j)
            vec = values[src]
            if not any(vec):
                continue
            blk = act.ring(x, antipode=tensor)
            acc = out[dst]
            for t in range(d):
                acc[t] += sum(blk[t][u] * vec[u] for u in range(d))
        if mod:
            return all(x % mod == 0 for vec in out for x in vec)
        return not any(x for vec in out for x in vec)

    def check(self, cell: dict, expected: dict, out) -> str | None:
        """None when the output is right, otherwise the reason it is not."""
        got = digest(cell, out)
        if got != expected["output"]:
            return f"output {got} != reference {expected['output']}"
        if cell["kind"] == "factor-set":
            return self._check_factor_set(out, expected)
        reps = out.representatives
        if cell["reps"] and reps is None:
            return "representatives were requested but not returned"
        if reps is None:
            return None
        inv = out.invariants
        if len(reps) != len(inv.torsion) + inv.free_rank:
            return f"{len(reps)} representatives for {inv}"
        M = self.setup.modules[(tuple(cell["group"]), cell["module"])]
        D = self._outgoing(cell, self.setup.limits_of(cell))
        if D is not None:
            act = self._action(M)
            for k, rep in enumerate(reps):
                if not self._closed(act, D, rep.values, cell["kind"] == "homology"):
                    return f"representative {k} is not closed"
        if out.class_group_generated_by(reps) != inv:
            return "representatives do not generate the group"
        return None

    def _check_factor_set(self, out, expected: dict) -> str | None:
        gen, fs, _ = out
        spec = gen.module.spec
        act = self._action(gen.module)
        mod, d = act.mod, gen.module.rank
        ident = spec.identity()
        elems = spec.elements()
        table = fs.table
        if any(table[(g, ident)] != (0,) * d or table[(ident, g)] != (0,) * d for g in elems):
            return "factor set is not normalized"
        for g, h, k in itertools.product(elems, repeat=3):
            m = act.element(g)
            fhk = table[(h, k)]
            for t in range(d):
                v = (
                    sum(m[t][u] * fhk[u] for u in range(d))
                    - table[(spec.mul(g, h), k)][t]
                    + table[(g, spec.mul(h, k))][t]
                    - table[(g, h)][t]
                )
                if (v % mod if mod else v) != 0:
                    return f"pair-table identity fails at {(g, h, k)}"
        nonzero = any(any(v) for v in table.values())
        if nonzero != expected["nonzero"]:
            return f"table nonzero={nonzero}, reference says {expected['nonzero']}"
        return None
