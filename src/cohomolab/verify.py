"""Cross-checking suites that pit independent computation routes against
each other.

Each suite returns a flat list of check results so callers (CLI, tests)
can render or assert on them uniformly.  Four statuses exist:

* ``PASS`` / ``FAIL``: the ordinary outcomes.
* ``EXPECTED-FLAGGED``: a documented discrepancy between a published
  closed-form display and the recurrence it abbreviates.  The suite
  *requires* the mismatch; if the two ever agree the check fails, because
  that would mean the flag mechanism broke.
* ``CAPPED``: the computation hit a resource ceiling and was skipped.
  Capped cells are reported, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from cohomolab.closed_forms import (
    GENERATOR_CASES,
    generator_family,
    irreducible_homology_factors,
    irreducible_multiplicity,
    multiplicity_display,
    trivial_module_factors,
)
from cohomolab.engine import (
    VerificationError,
    _hom_rows,
    _leg_rows,
    _sigma_faces,
    homology,
    is_cocycle_1,
    is_cocycle_2,
    ordinary_cohomology,
    tate_cohomology,
)
from cohomolab.group_ring import GroupSpec
from cohomolab.intlinalg import IntMatrix
from cohomolab.limits import EngineLimits, ResourceCapExceeded
from cohomolab.modules import GModule, parse_module, star_dual, trivial_module

PASS = "PASS"
FAIL = "FAIL"
EXPECTED_FLAGGED = "EXPECTED-FLAGGED"
CAPPED = "CAPPED"

SUITE_NAMES = ("resolution", "sigma", "oracle", "closed-forms", "duality")

_GROUPS = [(2,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 2, 4), (2, 3)]
_SIGMA_GROUPS = [(2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 2, 4), (2, 2, 2, 2)]
_FAMILY_GROUPS = [(2, 2), (2, 4), (3, 3), (2, 2, 2)]


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != FAIL


def _verdict(name: str, problems: list[str], ok_text: str) -> CheckResult:
    """PASS with ``ok_text`` when ``problems`` is empty, else FAIL listing them."""
    return CheckResult(name, FAIL if problems else PASS, "; ".join(problems) or ok_text)


def _gname(orders: tuple[int, ...]) -> str:
    return ",".join(map(str, orders))


def _regular_module(spec: GroupSpec) -> GModule:
    """The group ring acting on itself by left multiplication."""
    elems = spec.elements()
    n = len(elems)
    actions = []
    for i in range(spec.ngens):
        x = spec.generator(i)
        rows = [[0] * n for _ in range(n)]
        for j, g in enumerate(elems):
            rows[spec.index(spec.mul(x, g))][j] = 1
        actions.append(IntMatrix(n, n, tuple(tuple(r) for r in rows)))
    return GModule(spec, n, 0, tuple(actions), label="regular")


# ---------------------------------------------------------------------------
# Suites


def _composite(
    first: Iterable[list[tuple[int, int]]], then: Iterable[list[tuple[int, int]]]
) -> list[dict[int, int]]:
    """The rows of the map ``then`` after ``first``, each map given by its
    Hom rows, as {column: value} dicts without zeros.

    Over the regular module this is the Hom leg of a product of group-ring
    matrices: the leg of A B is that of B after that of A (G is abelian),
    and Hom_G(-, Z[G]) is faithful on free modules, so a product vanishes,
    or two agree, exactly when their legs do.
    """
    inner = list(first)
    out = []
    for row in then:
        acc: dict[int, int] = {}
        for k, c in row:
            for u, x in inner[k]:
                acc[u] = acc.get(u, 0) + c * x
        out.append({u: x for u, x in acc.items() if x})
    return out


def _sigma_rows(M: GModule, m: int) -> Iterable[list[tuple[int, int]]]:
    """The Hom rows of the comparison map sigma_m, sigma_0 being the
    identity of P_0 = Z[G]."""
    if m:
        return _hom_rows(M.rank, _sigma_faces(M, m))
    return ([(t, 1)] for t in range(M.rank))


def resolution_suite(limits: EngineLimits | None = None) -> list[CheckResult]:
    limits = limits or EngineLimits.from_env()
    out = []
    regular = [_regular_module(GroupSpec.of(*orders)) for orders in _GROUPS]
    for orders, R in zip(_GROUPS, regular):
        for kind, top in (("minimal", 5), ("bar", 2)):
            if kind == "bar" and R.spec.order > 9:
                continue
            bad = [
                n
                for n in range(1, top + 1)
                if any(
                    _composite(
                        _leg_rows(R, kind, n, limits=limits),
                        _leg_rows(R, kind, n + 1, limits=limits),
                    )
                )
            ]
            out.append(
                CheckResult(
                    f"resolution/{kind}-squares/{_gname(orders)}",
                    FAIL if bad else PASS,
                    f"nonzero d.d at degrees {bad}" if bad else f"d.d = 0 for n <= {top}",
                )
            )
    for orders, R in zip(_GROUPS, regular):
        problems = []
        for n in range(5):
            # a broken leg may fail the engine's own checks: that is a FAIL too
            try:
                hn = homology(R, n, limits=limits).invariants
            except VerificationError as exc:
                problems.append(f"H_{n}: {exc}")
                continue
            if (hn.free_rank, hn.torsion) != (int(n == 0), ()):
                problems.append(f"H_{n} = {hn}")
        out.append(
            _verdict(
                f"resolution/regular-exactness/{_gname(orders)}",
                problems,
                "H_0 = Z, H_1..H_4 = 0",
            )
        )
    return out


def sigma_suite(limits: EngineLimits | None = None) -> list[CheckResult]:
    limits = limits or EngineLimits.from_env()
    groups = [GroupSpec.of(*orders) for orders in _SIGMA_GROUPS]
    for G in groups:
        limits.check_group_order(G.order)
    out = []
    for G in groups:
        R = _regular_module(G)
        # d_min sigma_m = sigma_(m-1) d_bar, as Hom legs over R
        ok1, ok2 = (
            _composite(_leg_rows(R, "minimal", m), _sigma_rows(R, m))
            == _composite(_sigma_rows(R, m - 1), _leg_rows(R, "bar", m, limits=limits))
            for m in (1, 2)
        )
        out.append(
            CheckResult(
                f"sigma/chain-map/{_gname(G.orders)}",
                PASS if ok1 and ok2 else FAIL,
                "degree-1 and degree-2 identities hold"
                if ok1 and ok2
                else f"degree 1 {'ok' if ok1 else 'BROKEN'}, degree 2 {'ok' if ok2 else 'BROKEN'}",
            )
        )
    return out


def _oracle_modules(orders: tuple[int, ...]) -> list[str]:
    texts = ["trivial", "reduce:4(trivial)"]
    primes = sorted({p for o in orders for p in (2, 3, 5) if o % p == 0})
    for p in primes:
        exps = ",".join("1" if o % p == 0 else "0" for o in orders)
        texts.append(f"cyclo:{p}:1:{exps}")
        if any(o % (p * p) == 0 for o in orders):
            exps2 = ",".join("1" if o % (p * p) == 0 else "0" for o in orders)
            texts.append(f"cyclo:{p}:2:{exps2}")
    texts.extend([f"star({t})" for t in texts if t.startswith("cyclo")])
    if orders == (2, 3):
        texts.append("tensor(cyclo:2:1:1,cyclo:3:1:1)")
    return texts


def oracle_suite(limits: EngineLimits | None = None) -> list[CheckResult]:
    limits = limits or EngineLimits.from_env()
    out = []
    for orders in _GROUPS:
        G = GroupSpec.of(*orders)
        if G.order > 16:
            continue
        for text in _oracle_modules(orders):
            M = parse_module(text, G)
            mismatches = []
            capped = []
            for n in range(4):
                a = ordinary_cohomology(M, n, limits=limits).invariants
                try:
                    b = ordinary_cohomology(
                        M, n, resolution="bar", limits=limits
                    ).invariants
                except ResourceCapExceeded:
                    capped.append(n)
                    continue
                if a != b:
                    mismatches.append(f"n={n}: minimal {a} vs bar {b}")
            name = f"oracle/{_gname(orders)}/{text}"
            if mismatches:
                out.append(CheckResult(name, FAIL, "; ".join(mismatches)))
            elif capped:
                out.append(
                    CheckResult(
                        name,
                        CAPPED,
                        f"bar side over the cell cap at degrees {capped}; "
                        "remaining degrees agree",
                    )
                )
            else:
                out.append(CheckResult(name, PASS, "degrees 0..3 agree"))
    return out


def closed_forms_suite(limits: EngineLimits | None = None) -> list[CheckResult]:
    limits = limits or EngineLimits.from_env()
    out = []

    for orders in _GROUPS:
        G = GroupSpec.of(*orders)
        Z = trivial_module(G)
        mismatches = []
        for n in range(-4, 5):
            got = tate_cohomology(Z, n, limits=limits).invariants
            want = trivial_module_factors(n, orders)
            if got != want:
                mismatches.append(f"n={n}: engine {got} vs derived {want}")
        out.append(
            _verdict(
                f"closed-forms/trivial-window/{_gname(orders)}",
                mismatches,
                "derived variant matches for |n| <= 4",
            )
        )

    printed, derived = (trivial_module_factors(2, (2, 2), v) for v in ("printed", "derived"))
    engine22 = tate_cohomology(
        trivial_module(GroupSpec.of(2, 2)), 2, limits=limits
    ).invariants
    if printed == derived or derived != engine22:
        out.append(
            CheckResult(
                "closed-forms/printed-tate-exponent",
                FAIL,
                f"expected a printed/derived split at degree 2 over (2,2); "
                f"printed {printed}, derived {derived}, engine {engine22}",
            )
        )
    else:
        out.append(
            CheckResult(
                "closed-forms/printed-tate-exponent",
                EXPECTED_FLAGGED,
                f"printed exponent variant gives {printed.as_list()} at degree 2 "
                f"over (2,2); engine and derived variant give {derived.as_list()}",
            )
        )

    display_bad = [
        s for s in range(1, 7) if multiplicity_display(2, s) == irreducible_multiplicity(2, s)
    ]
    if display_bad:
        out.append(
            CheckResult(
                "closed-forms/degree-2-display",
                FAIL,
                f"degree-2 display unexpectedly matches the recurrence at s={display_bad}",
            )
        )
    else:
        out.append(
            CheckResult(
                "closed-forms/degree-2-display",
                EXPECTED_FLAGGED,
                "degree-2 display exceeds the recurrence by s for every rank "
                "(e.g. 4 vs 2 at s=2); displays for degrees 0, 1, 3 agree",
            )
        )

    for orders, p in [((2, 2), 2), ((3, 3), 3), ((2, 4), 2), ((2, 2, 2), 2)]:
        G = GroupSpec.of(*orders)
        exps = ",".join(["1"] + ["0"] * (G.ngens - 1))
        M = parse_module(f"cyclo:{p}:1:{exps}", G)
        mismatches = []
        for n in range(5):
            got = homology(M, n, limits=limits).invariants
            want = irreducible_homology_factors(n, G.ngens, p)
            if got != want:
                mismatches.append(f"n={n}: {got} vs (Z/{p})^{len(want.torsion)}")
        out.append(
            _verdict(
                f"closed-forms/irreducible-homology/{_gname(orders)}",
                mismatches,
                "multiplicities match the recurrence, n <= 4",
            )
        )

    for case in GENERATOR_CASES:
        problems = []
        for orders in _FAMILY_GROUPS:
            G = GroupSpec.of(*orders)
            fam = generator_family(case, G)
            checker = is_cocycle_1 if fam.degree == 1 else is_cocycle_2
            for member in fam.members:
                chk = checker(member.module, member.cochain, limits=limits)
                if not chk:
                    problems.append(f"{_gname(orders)}{member.indices}: not a cocycle")
            result = ordinary_cohomology(
                fam.module, fam.degree, limits=limits, want_representatives=True
            )
            got = result.class_group_generated_by(m.cochain for m in fam.members)
            if got != fam.predicted:
                problems.append(
                    f"{_gname(orders)}: generated {got} vs predicted {fam.predicted}"
                )
        out.append(
            _verdict(
                f"closed-forms/family/{case}",
                problems,
                f"cocycle + independence checks pass on {len(_FAMILY_GROUPS)} groups",
            )
        )
    return out


def duality_suite(limits: EngineLimits | None = None) -> list[CheckResult]:
    limits = limits or EngineLimits.from_env()
    out = []
    for orders in _GROUPS:
        G = GroupSpec.of(*orders)
        # the oracle's trivial lattice and its cyclo:p:1 lattices
        texts = [
            t
            for t in _oracle_modules(orders)
            if t == "trivial" or (t.startswith("cyclo:") and t.split(":")[2] == "1")
        ]
        for text in texts:
            M = parse_module(text, G)
            Mstar = star_dual(M)
            mismatches = []
            for n in range(-3, 4):
                a = tate_cohomology(Mstar, n, limits=limits).invariants
                b = tate_cohomology(M, -n, limits=limits).invariants
                if a != b:
                    mismatches.append(f"n={n}: {a} vs {b}")
            out.append(
                _verdict(
                    f"duality/{_gname(orders)}/{text}",
                    mismatches,
                    "star dual mirrors degrees -3..3",
                )
            )
    return out


_SUITES = {
    "resolution": resolution_suite,
    "sigma": sigma_suite,
    "oracle": oracle_suite,
    "closed-forms": closed_forms_suite,
    "duality": duality_suite,
}


def run_suite(name: str, limits: EngineLimits | None = None) -> list[CheckResult]:
    if name == "all":
        return run_all(limits)
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {('all',) + SUITE_NAMES}")
    return _SUITES[name](limits)


def run_all(limits: EngineLimits | None = None) -> list[CheckResult]:
    out = []
    for name in SUITE_NAMES:
        out.extend(_SUITES[name](limits))
    return out
