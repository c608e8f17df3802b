"""Acceptance gate: the eleven package-level criteria, one test apiece.

Every test finishes by printing a single summary line, so a verbose run
shows one verdict per criterion next to pytest's own PASS/FAIL column.
All comparisons are exact equality of invariant-factor lists; the only
soft item is the criterion-11 timing, which is reported but not asserted.
"""

import time
from math import comb

from _reference import invariants_structure
from cohomolab.closed_forms import (
    GENERATOR_CASES,
    generator_family,
    irreducible_multiplicity,
)
from cohomolab.engine import (
    dual_tate,
    homology,
    is_cocycle_1,
    is_cocycle_2,
    ordinary_cohomology,
    tate_cohomology,
    to_factor_set,
)
from cohomolab.group_ring import GroupSpec
from cohomolab.intlinalg import AbelianInvariants, _factorize
from cohomolab.limits import EngineLimits
from cohomolab.modules import parse_module, star_dual, trivial_module
from cohomolab.resolutions import make_resolution
from cohomolab.verify import (
    CAPPED,
    EXPECTED_FLAGGED,
    PASS,
    closed_forms_suite,
    oracle_suite,
    resolution_suite,
    sigma_suite,
)

TEST_GROUPS = [(2,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 2, 4), (2, 3)]
P_GROUPS = [(g, 2) for g in [(2,), (4,), (2, 2), (2, 4), (2, 2, 2), (2, 2, 4)]] + [
    ((3, 3), 3)
]


def _say(k: int, text: str) -> None:
    print(f"criterion {k:02d} PASS: {text}")


def _faithful_cyclo(orders: tuple[int, ...], p: int) -> str:
    exps = ",".join(["1"] + ["0"] * (len(orders) - 1))
    return f"cyclo:{p}:1:{exps}"


def _merge(*parts: tuple[AbelianInvariants, int]) -> AbelianInvariants:
    free = 0
    diag = []
    for inv, mult in parts:
        free += inv.free_rank * mult
        diag.extend(inv.torsion * mult)
    return AbelianInvariants.from_diagonal(diag, free)


def test_criterion_01_resolution_exactness():
    t0 = time.perf_counter()
    results = resolution_suite()
    elapsed = time.perf_counter() - t0
    bad = [r for r in results if r.status != PASS]
    assert not bad, bad
    assert elapsed < 30, f"resolution checks took {elapsed:.1f}s"
    _say(1, f"{len(results)} resolution checks (squares + regular exactness) in {elapsed:.1f}s")


def test_criterion_02_comparison_chain_map():
    t0 = time.perf_counter()
    results = sigma_suite()
    elapsed = time.perf_counter() - t0
    assert all(r.status == PASS for r in results), results
    names = {r.name for r in results}
    assert "sigma/chain-map/2,2,2,2" in names  # four factors, beyond the hand cases
    assert elapsed < 60, f"chain-map checks took {elapsed:.1f}s"
    _say(2, f"degree-1/2 comparison identities on {len(results)} groups in {elapsed:.1f}s")


def test_criterion_03_bar_vs_minimal_oracle():
    results = oracle_suite()
    failures = [r for r in results if r.status not in (PASS, CAPPED)]
    assert not failures, failures
    capped = [r for r in results if r.status == CAPPED]
    assert [r.name for r in capped] == ["oracle/2,2,4/reduce:4(trivial)"]
    names = {r.name for r in results}
    assert "oracle/2,3/tensor(cyclo:2:1:1,cyclo:3:1:1)" in names
    assert "oracle/2,2/star(cyclo:2:1:1,1)" in names
    _say(
        3,
        f"{len(results) - 1} oracle cells agree across resolutions; "
        "1 cell capped (finite coefficients, order 16, bar degree 3)",
    )


def test_criterion_04_irreducible_homology_multiplicities():
    cells = 0
    for orders, p in [((2, 2), 2), ((3, 3), 3), ((2, 4), 2), ((2, 2, 2), 2)]:
        G = GroupSpec.of(*orders)
        M = parse_module(_faithful_cyclo(orders, p), G)
        for n in range(5):
            got = homology(M, n).invariants
            want = (p,) * irreducible_multiplicity(n, G.ngens)
            assert (got.free_rank, got.torsion) == (0, want), (orders, n, got)
            cells += 1
    _say(4, f"{cells} homology groups match the recurrence multiplicities")


def test_criterion_05_explicit_small_degree_structure():
    for orders in TEST_GROUPS:
        G = GroupSpec.of(*orders)
        Z = trivial_module(G)
        h1 = ordinary_cohomology(Z, 1).invariants
        assert (h1.free_rank, h1.torsion) == (0, ()), orders
        group_inv = AbelianInvariants.from_diagonal(orders)
        assert tate_cohomology(Z, 2).invariants == group_inv, orders
        assert tate_cohomology(Z, 0).invariants.as_list() == [G.order], orders
    for orders, p in P_GROUPS:
        G = GroupSpec.of(*orders)
        s = G.ngens
        ms = sorted((_factorize(o)[0][1] for o in orders), reverse=True)
        M = parse_module(_faithful_cyclo(orders, p), G)
        assert ordinary_cohomology(M, 1).invariants.as_list() == [p], orders
        assert ordinary_cohomology(M, 2).invariants.as_list() == [p] * (s - 1), orders
        Z = trivial_module(G)
        assert dual_tate(Z, 1).invariants == AbelianInvariants.from_diagonal(
            [p**m for m in ms]
        ), orders
        pairs = [p ** min(ms[i], ms[j]) for i in range(s) for j in range(i + 1, s)]
        assert dual_tate(Z, 2).invariants == AbelianInvariants.from_diagonal(pairs), orders
        assert dual_tate(M, 1).invariants.as_list() == [p] * (s - 1), orders
        count = (s * s - s + 2) // 2
        assert dual_tate(M, 2).invariants.as_list() == [p] * count, orders
    _say(5, "degree 0..2 structure (plain, twisted, and divisible-dual) on all test groups")


def test_criterion_06_generator_families():
    groups = [(2, 2), (2, 4), (3, 3), (2, 2, 2)]
    members = 0
    for orders in groups:
        G = GroupSpec.of(*orders)
        for case in GENERATOR_CASES:
            fam = generator_family(case, G)
            checker = is_cocycle_1 if fam.degree == 1 else is_cocycle_2
            for member in fam.members:
                assert checker(member.module, member.cochain), (orders, case, member.indices)
                members += 1
            result = ordinary_cohomology(
                fam.module, fam.degree, want_representatives=True
            )
            got = result.class_group_generated_by(m.cochain for m in fam.members)
            assert got == fam.predicted, (orders, case, got, fam.predicted)
    _say(
        6,
        f"{members} generating cocycles across {len(GENERATOR_CASES)} families "
        f"verified (cocycle condition + spanned subgroup)",
    )


def test_criterion_07_duality_window():
    checks = 0
    for orders in TEST_GROUPS:
        G = GroupSpec.of(*orders)
        texts = ["trivial"]
        primes = sorted({q for o in orders for q, _ in _factorize(o)})
        texts += [_faithful_cyclo(orders, p) for p in primes if orders[0] % p == 0]
        for text in texts:
            M = parse_module(text, G)
            Mstar = star_dual(M)
            for n in range(-3, 4):
                a = tate_cohomology(Mstar, n).invariants
                b = tate_cohomology(M, -n).invariants
                assert a == b, (orders, text, n, a, b)
                checks += 1
    _say(7, f"{checks} degree pairs confirm the dual-module reflection")


def test_criterion_08_coprime_splitting():
    cases = []
    for left_order in (2, 4):
        left_orders = (left_order,)
        m = 2 if left_order == 4 else 1
        left_cyclo = f"cyclo:2:{m}:1"
        cases.append((left_orders + (3,), left_cyclo, "cyclo:3:1:1"))
        cases.append((left_orders + (3,), "trivial", "cyclo:3:1:1"))
        cases.append((left_orders + (3,), left_cyclo, "trivial"))
    checks = 0
    for orders, left_text, right_text in cases:
        G = GroupSpec.of(*orders)
        G1 = GroupSpec.of(*orders[:-1])
        G2 = GroupSpec.of(orders[-1])
        M = parse_module(f"tensor({left_text},{right_text})", G)
        M1 = parse_module(left_text, G1)
        M2 = parse_module(right_text, G2)
        k1 = invariants_structure(M1).free_rank
        k2 = invariants_structure(M2).free_rank
        for n in range(4):
            got = tate_cohomology(M, n).invariants
            want = _merge(
                (tate_cohomology(M1, n).invariants, k2),
                (tate_cohomology(M2, n).invariants, k1),
            )
            assert got == want, (orders, left_text, right_text, n, got, want)
            checks += 1
    _say(8, f"{checks} outer-tensor cells split along the coprime factors")


def test_criterion_09_printed_variant_discrepancy():
    results = closed_forms_suite()
    failures = [r for r in results if r.status not in (PASS, EXPECTED_FLAGGED)]
    assert not failures, failures
    flagged = {r.name for r in results if r.status == EXPECTED_FLAGGED}
    assert flagged == {
        "closed-forms/printed-tate-exponent",
        "closed-forms/degree-2-display",
    }
    printed = next(r for r in results if r.name == "closed-forms/printed-tate-exponent")
    assert "[2, 2, 2]" in printed.detail and "[2, 2]" in printed.detail
    windows = [r for r in results if r.name.startswith("closed-forms/trivial-window/")]
    assert len(windows) == len(TEST_GROUPS)
    assert all(r.status == PASS for r in windows)
    _say(
        9,
        "derived closed form matches the engine on every group for |n| <= 4; "
        "the two printed-display discrepancies are flagged, not failed",
    )


def test_criterion_10_factor_set_identity():
    emitted = 0
    for orders, case, indices in [
        ((2,), "trivial-H2", (1,)),
        ((4,), "trivial-H2", (1,)),
        ((2, 2), "cyclo-H2", (2,)),
        ((2, 4), "torsion-H2", (1, 2)),
        ((3, 3), "trivial-H2", (2,)),
        ((2, 2, 2), "dual-cyclo-H2", (2, 3)),
        ((2, 2, 4), "trivial-H2", (3,)),
    ]:
        G = GroupSpec.of(*orders)
        fam = generator_family(case, G)
        member = next(m for m in fam.members if m.indices == indices)
        fs = to_factor_set(member.module, member.cochain)
        assert fs.cocycle_identity_holds(), (orders, case, indices)
        ident = G.identity()
        assert all(not any(fs(ident, g)) for g in G.elements())
        emitted += 1
    # mixed-order group: take the engine's own representative instead
    G = GroupSpec.of(2, 3)
    r = ordinary_cohomology(trivial_module(G), 2, want_representatives=True)
    assert r.invariants.as_list() == [6] and r.representatives
    fs = to_factor_set(trivial_module(G), r.representatives[0])
    assert fs.cocycle_identity_holds()
    emitted += 1
    _say(10, f"{emitted} factor sets pass the full triple-product identity")


def test_criterion_11_benchmark_sizes_and_timing():
    limits = EngineLimits.from_env()
    for orders, degree_top in [((2, 2, 2), 4), ((2, 4), 2)]:
        G = GroupSpec.of(*orders)
        minimal = make_resolution(G, "minimal", limits)
        bar = make_resolution(G, "bar", limits)
        s = G.ngens
        for n in range(degree_top + 1):
            assert minimal.rank(n) == comb(n + s - 1, n)
            assert bar.rank(n) == (G.order - 1) ** n
    G = GroupSpec.of(2, 2, 2)
    Z = trivial_module(G)
    t0 = time.perf_counter()
    for n in range(5):
        ordinary_cohomology(Z, n)
    minimal_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    ordinary_cohomology(Z, 3, resolution="bar")
    bar_s = time.perf_counter() - t0
    ratio = bar_s / minimal_s if minimal_s > 0 else float("inf")
    # soft criterion: report the ratio, do not assert on wall-clock noise
    _say(
        11,
        f"sizes exact; minimal n<=4 total {minimal_s * 1000:.1f}ms vs "
        f"bar n=3 {bar_s * 1000:.1f}ms ({ratio:.1f}x)",
    )
