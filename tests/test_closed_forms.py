"""Closed-form oracle checks.

Expected numbers come from evaluating the recurrences by hand (the small
grids are written out below), from classical facts (degree-1 integral
homology is the group itself, degree-2 is the exterior square), and from
the engine, which is exercised end to end in its own test module.  The
known-inconsistent printed displays must be reproduced, not corrected.
"""

import itertools
import re
import time
from concurrent.futures import ThreadPoolExecutor
from math import comb, gcd

import pytest

from cohomolab import closed_forms
from cohomolab.closed_forms import (
    GENERATOR_CASES,
    GeneratorFamily,
    generating_cocycle,
    generator_family,
    irreducible_homology_factors,
    irreducible_multiplicity,
    irreducible_tate_factors,
    multiplicity_display,
    predicted_invariants,
    trivial_module_factors,
)
from cohomolab.engine import (
    homology,
    is_cocycle_1,
    is_cocycle_2,
    ordinary_cohomology,
    tate_cohomology,
)
from cohomolab.group_ring import GroupSpec
from cohomolab.intlinalg import AbelianInvariants
from cohomolab.modules import parse_module, trivial_module

G22 = GroupSpec.of(2, 2)
G24 = GroupSpec.of(2, 4)
G33 = GroupSpec.of(3, 3)

# hand-evaluated recurrence grid, rows n = 0..5, columns s = 1..4
MULT_GRID = [
    [1, 1, 1, 1],
    [0, 1, 2, 3],
    [1, 2, 4, 7],
    [0, 2, 6, 13],
    [1, 3, 9, 22],
    [0, 3, 12, 34],
]

# hand-evaluated numbers of cyclic summands of H_n(G, Z) for G = (Z/p)^s,
# rows n = 1..4, columns s = 1..3
COUNT_GRID = [
    [1, 2, 3],
    [0, 1, 3],
    [1, 3, 7],
    [0, 2, 8],
]


def _alt_sum(n, s):
    return (-1) ** n * sum((-1) ** i * comb(s + i - 1, i) for i in range(n + 1))


# ---------------------------------------------------------------------------
# Multiplicities


def test_multiplicity_pins():
    assert irreducible_multiplicity(0, 4) == 1
    assert irreducible_multiplicity(1, 3) == 2
    assert irreducible_multiplicity(3, 2) == 2
    assert irreducible_multiplicity(2, 2) == 2


def test_multiplicity_matches_hand_grid():
    for n, row in enumerate(MULT_GRID):
        for s, want in enumerate(row, start=1):
            assert irreducible_multiplicity(n, s) == want


def test_multiplicity_recurrence_equals_closed_form():
    for n in range(11):
        for s in range(1, 9):
            assert irreducible_multiplicity(n, s) == _alt_sum(n, s)


def test_multiplicity_displays():
    for s in range(1, 11):
        assert multiplicity_display(0, s) == 1
        assert multiplicity_display(1, s) == s - 1 == irreducible_multiplicity(1, s)
        assert multiplicity_display(3, s) == irreducible_multiplicity(3, s)
        # the degree-2 display overshoots the recurrence by exactly s
        assert multiplicity_display(2, s) - irreducible_multiplicity(2, s) == s
    with pytest.raises(ValueError):
        multiplicity_display(4, 2)


def test_multiplicity_validation():
    with pytest.raises(ValueError):
        irreducible_multiplicity(-1, 2)
    with pytest.raises(ValueError):
        irreducible_multiplicity(2, 0)


def test_table_growth_beyond_defaults():
    assert irreducible_multiplicity(30, 14) == _alt_sum(30, 14)


def test_concurrent_reads_agree_with_sequential():
    queries = [(n, s) for n in range(0, 26, 5) for s in range(1, 14, 3)]
    sequential = [irreducible_multiplicity(n, s) for n, s in queries]
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(4):
            results = list(pool.map(lambda q: irreducible_multiplicity(*q), queries))
            assert results == sequential


# ---------------------------------------------------------------------------
# Summand counts: H_n(G, Z) is the Tate group in degree -(n+1)


def test_summand_count_matches_hand_grid():
    for n, row in enumerate(COUNT_GRID, start=1):
        for s, want in enumerate(row, start=1):
            for p in (2, 3):
                assert len(trivial_module_factors(-(n + 1), (p,) * s).torsion) == want


def test_summand_count_telescopes_into_multiplicities():
    # factors of distinct exponents of one prime never merge, so the count
    # is the sum of the per-factor multiplicities
    for n in range(1, 7):
        for s in range(1, 5):
            total = sum(irreducible_multiplicity(n - 1, k) for k in range(1, s + 1))
            orders = (3, 9, 27, 81)[:s]
            assert len(trivial_module_factors(-(n + 1), orders).torsion) == total


def test_summand_count_matches_engine_homology():
    for orders in [(2,), (4,), (2, 2), (2, 4), (3, 3), (2, 3), (2, 2, 2), (2, 2, 4)]:
        Z = trivial_module(GroupSpec.of(*orders))
        for n in range(1, 5):
            assert homology(Z, n).invariants == trivial_module_factors(-(n + 1), orders)


# ---------------------------------------------------------------------------
# Invariant-factor predictions


def test_irreducible_homology_factors_pins():
    assert irreducible_homology_factors(0, 3, 5).as_list() == [5]
    assert irreducible_homology_factors(1, 1, 2).as_list() == []
    assert irreducible_homology_factors(2, 2, 2).as_list() == [2, 2]
    with pytest.raises(ValueError):
        irreducible_homology_factors(1, 2, 4)


def test_irreducible_tate_factors_pins():
    assert irreducible_tate_factors(0, 2, 2).as_list() == []
    assert irreducible_tate_factors(-1, 2, 2).as_list() == [2]
    for s, p in [(1, 2), (2, 3), (4, 2)]:
        assert irreducible_tate_factors(1, s, p).as_list() == [p]
    assert irreducible_tate_factors(2, 3, 3).as_list() == [3, 3]


@pytest.mark.parametrize("predict", [irreducible_homology_factors, irreducible_tate_factors])
def test_irreducible_factors_refuse_a_composite_past_float_range(predict):
    # the primality check stays in integers: 10**400 is no float, and is
    # refused as composite, not by an OverflowError
    with pytest.raises(ValueError, match="is not prime"):
        predict(1, 1, 10**400)


@pytest.mark.parametrize("predict", [irreducible_homology_factors, irreducible_tate_factors])
def test_irreducible_factors_decide_a_large_prime_at_once(predict):
    # Miller-Rabin, not trial division: the Mersenne prime 2**61 - 1 is
    # accepted in well under a second
    p = 2**61 - 1
    start = time.perf_counter()
    assert predict(1, 1, p).torsion == (p,) * len(predict(1, 1, 3).torsion)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p", [561, 2047, 3215031751])
def test_irreducible_factors_refuse_pseudoprimes(p):
    # a Carmichael number, and strong pseudoprimes to base 2 and to the
    # bases 2, 3, 5 and 7
    for predict in (irreducible_homology_factors, irreducible_tate_factors):
        with pytest.raises(ValueError, match="is not prime"):
            predict(1, 1, p)


def test_irreducible_factors_refuse_a_prime_past_the_exact_bound():
    # the Mersenne prime 2**89 - 1 passes every base, but past the bound a
    # pass is no proof
    with pytest.raises(ValueError, match="bound of the exact primality test"):
        irreducible_homology_factors(1, 1, 2**89 - 1)


def test_trivial_module_factors_grid():
    want22 = {0: [4], 1: [], 2: [2, 2], 3: [2], 4: [2, 2, 2], -1: [], -2: [2, 2]}
    for n, factors in want22.items():
        assert trivial_module_factors(n, (2, 2)).as_list() == factors
    assert trivial_module_factors(2, (2, 4)).as_list() == [2, 4]
    assert trivial_module_factors(3, (2, 4)).as_list() == [2]
    assert trivial_module_factors(2, (2, 2, 4)).as_list() == [2, 2, 4]
    assert trivial_module_factors(0, (2, 3)).as_list() == [6]
    assert trivial_module_factors(2, (6,)).as_list() == [6]
    assert trivial_module_factors(0, (2, 4)).as_list() == [8]


def test_trivial_module_descending_exponent_pairing():
    # the smaller factor must receive the larger multiplicity index
    assert trivial_module_factors(3, (4, 2)).as_list() == [2]
    assert trivial_module_factors(3, (2, 4)).as_list() == [2]


def test_trivial_module_printed_variant_discrepancy():
    def both(n, orders):
        return tuple(trivial_module_factors(n, orders, v) for v in ("printed", "derived"))

    assert trivial_module_factors(2, (2, 2), "printed").as_list() == [2, 2, 2]
    printed, derived = both(2, (2, 2))
    assert printed != derived
    assert derived.as_list() == [2, 2]
    # at odd degrees the variants coincide for two factors but not three
    printed, derived = both(3, (2, 2))
    assert printed == derived
    printed3, derived3 = both(3, (2, 2, 2))
    assert printed3 != derived3
    assert printed3.as_list() == [2, 2, 2, 2]
    assert derived3.as_list() == [2, 2, 2]


def test_trivial_module_validation():
    with pytest.raises(ValueError):
        trivial_module_factors(2, (2, 2), "guessed")
    with pytest.raises(ValueError):
        trivial_module_factors(2, (1, 2))


def test_trivial_module_matches_engine_window():
    for orders in [(2, 2), (2, 4), (3, 3), (2, 3)]:
        G = GroupSpec.of(*orders)
        Z = trivial_module(G)
        for n in range(-4, 5):
            got = tate_cohomology(Z, n).invariants
            assert got == trivial_module_factors(n, orders), (orders, n)


def test_predicted_invariants_dispatch():
    assert predicted_invariants("trivial", G22, 0).as_list() == [4]
    assert predicted_invariants("trivial", G22, 0, kind="ordinary") == AbelianInvariants(1, ())
    assert predicted_invariants("trivial", G22, 2, kind="ordinary").as_list() == [2, 2]
    assert predicted_invariants("cyclo:2:1:1,0", G22, -1).as_list() == [2]
    assert predicted_invariants("cyclo:2:1:1,0", G22, 0, kind="ordinary").as_list() == []
    assert predicted_invariants("star(cyclo:2:1:1,0)", G22, 2).as_list() == [2]
    assert predicted_invariants("star(trivial)", G22, 0).as_list() == [4]
    assert predicted_invariants("cyclo:2:2:2,1", G24, 1).as_list() == [2]
    assert predicted_invariants("reduce:4(trivial)", G22, 2) is None
    assert predicted_invariants("tensor(trivial,trivial)", G22, 2) is None
    with pytest.raises(ValueError):
        predicted_invariants("trivial", G22, 1, kind="complete")


def test_predicted_invariants_mixed_group_uses_p_part_rank():
    G6 = GroupSpec.of(2, 3)
    # the 2-part has a single factor, so degree 2 predicts multiplicity
    # zero and degree 1 a single Z/2
    assert predicted_invariants("cyclo:2:1:1,0", G6, 2).as_list() == []
    assert predicted_invariants("cyclo:2:1:1,0", G6, 1).as_list() == [2]
    got = tate_cohomology(parse_module("cyclo:2:1:1,0", G6), 2).invariants
    assert got.as_list() == []


# the closed-form contract's groups: twenty groups of order at most 27,
# cyclic and with two or three factors, over the primes 2, 3, 5 and 7
_CONTRACT_GROUPS = [
    (2,), (3,), (4,), (5,), (7,), (8,), (9,), (2, 2), (2, 3), (2, 4), (3, 3), (2, 6),
    (2, 2, 2), (2, 8), (4, 4), (2, 2, 4), (3, 6), (2, 2, 6), (5, 5), (3, 9),
]


def _contract_modules(orders):
    """The trivial lattice, then every irreducible cyclo:p:m:e of rank
    (p - 1) p^(m - 1) <= 12 with m <= 2, p one of the groups' primes, and
    its dual: each e_i < p^m with p^m | e_i o_i, and gcd(e, p^m) = 1, so
    the action reaches a primitive root of unity."""
    yield "trivial"
    for p, m in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)]:
        q = p**m
        choices = [[e for e in range(q) if e * o % q == 0] for o in orders]
        for exps in itertools.product(*choices):
            if gcd(*exps, q) == 1:
                text = f"cyclo:{p}:{m}:{','.join(map(str, exps))}"
                yield text
                yield f"star({text})"


@pytest.mark.parametrize("orders", _CONTRACT_GROUPS)
def test_tate_cohomology_meets_the_closed_forms(orders):
    # the paper's closed forms as a contract: over the 20 groups this grid
    # is 3150 cells, each the engine's invariants against the prediction
    G = GroupSpec.of(*orders)
    for text in _contract_modules(orders):
        M = parse_module(text, G)
        for n in range(-4, 5):
            got = tate_cohomology(M, n, want_representatives=False).invariants
            assert got == predicted_invariants(text, G, n, kind="tate"), (text, n)


# ---------------------------------------------------------------------------
# Explicit generators


def _check_family(fam: GeneratorFamily):
    checker = is_cocycle_1 if fam.degree == 1 else is_cocycle_2
    for member in fam.members:
        chk = checker(member.module, member.cochain)
        assert chk, (fam.case, member.indices, chk.violations[:3])
    result = ordinary_cohomology(fam.module, fam.degree, want_representatives=True)
    got = result.class_group_generated_by(m.cochain for m in fam.members)
    assert got == fam.predicted, (fam.case, got, fam.predicted)


@pytest.mark.parametrize("orders", [(2, 2), (2, 4), (3, 3)])
@pytest.mark.parametrize("case", GENERATOR_CASES)
def test_families_are_cocycles_and_generate(case, orders):
    _check_family(generator_family(case, GroupSpec.of(*orders)))


def test_family_sizes_on_rank_three():
    G = GroupSpec.of(2, 2, 2)
    assert len(generator_family("trivial-H2", G).members) == 3
    assert len(generator_family("torsion-H2", G).members) == 3
    assert len(generator_family("cyclo-H2", G).members) == 2
    assert len(generator_family("dual-cyclo-H1", G).members) == 2
    fam = generator_family("dual-cyclo-H2", G)
    assert len(fam.members) == 4  # (s^2-s+2)/2
    assert fam.predicted.as_list() == [2, 2, 2, 2]


def test_families_on_cyclic_group():
    G = GroupSpec.of(4)
    assert generator_family("torsion-H2", G).members == ()
    assert generator_family("cyclo-H2", G).members == ()
    assert generator_family("dual-cyclo-H1", G).members == ()
    assert len(generator_family("dual-cyclo-H2", G).members) == 1
    _check_family(generator_family("trivial-H2", G))
    _check_family(generator_family("dual-cyclo-H2", G))


def test_cyclo_h2_solved_diagonal_value():
    g = generating_cocycle("cyclo-H2", G22, (2,))
    assert g.cochain.values == ((0,), (1,), (-1,))  # x1^2, x1*x2, x2^2
    assert g.class_order == 2
    g24 = generating_cocycle("cyclo-H2", G24, (2,))
    assert g24.cochain.values == ((0,), (1,), (-2,))  # (zeta-1)v = 4 forces v = -2


def test_truncation_data_recorded():
    xi = generating_cocycle("torsion-H1", G24, (2,))
    assert xi.truncation_exponent == 3  # p^K with K = 1 + 2
    assert xi.cochain.values == ((0,), (2,))  # order-4 point of Z/8
    assert xi.class_order == 4
    dual = generating_cocycle("dual-cyclo-H2", G24, (1,))
    assert dual.truncation_exponent == 4
    assert dual.socle_generator == (8,)
    assert dual.module.modulus == 16


def test_socle_generator_is_normalized():
    # the mod-p kernel vector is scaled to a first nonzero residue of 1
    dual = generating_cocycle("dual-cyclo-H2", GroupSpec.of(9), (1,))
    assert dual.socle_generator == (27,) * 6
    assert dual.cochain.values == ((27,) * 6,)
    for orders, p in [((9,), 3), ((5,), 5), ((25,), 5), ((5, 5), 5), ((3, 3), 3), ((2, 4), 2)]:
        g = generating_cocycle("dual-cyclo-H2", GroupSpec.of(*orders), (1,))
        u, M = g.socle_generator, g.module
        q = M.modulus
        A = M.actions[0].data
        # killed by a_1 - 1, of order p, first nonzero entry p^(K-1)
        moved = [sum(A[r][c] * u[c] for c in range(M.rank)) - u[r] for r in range(M.rank)]
        assert all(x % q == 0 for x in moved), orders
        assert any(x % q for x in u) and all(p * x % q == 0 for x in u), orders
        assert next(x for x in u if x) == q // p, orders


def test_generating_cocycle_rejects_bad_indices():
    with pytest.raises(ValueError):
        generating_cocycle("trivial-H2", G22, (3,))
    with pytest.raises(ValueError):
        generating_cocycle("torsion-H2", G22, (2, 1))
    with pytest.raises(ValueError):
        generating_cocycle("cyclo-H2", G22, (1,))  # the root factor has no mixed pair
    with pytest.raises(ValueError):
        generator_family("unknown-case", G22)


@pytest.mark.parametrize("case", GENERATOR_CASES)
def test_generating_cocycle_builds_only_its_member(monkeypatch, case):
    # each member equals its family's, built alone: one cochain per call,
    # and the invalid-indices message lists the family's indices in order
    G = GroupSpec.of(2, 2, 4)
    family = generator_family(case, G)
    built = []
    for name in ("_deg1_cochain", "_deg2_cochain"):
        real = getattr(closed_forms, name)
        monkeypatch.setattr(
            closed_forms, name, lambda *a, _real=real: built.append(a) or _real(*a)
        )
    for member in family.members:
        built.clear()
        assert generating_cocycle(case, G, list(member.indices)) == member
        assert len(built) == 1, (case, member.indices)
    valid = [m.indices for m in family.members]
    message = f"invalid indices (9,) for {case}; valid: {valid}"
    with pytest.raises(ValueError, match=re.escape(message)):
        generating_cocycle(case, G, (9,))


def test_generator_family_needs_p_group():
    with pytest.raises(ValueError):
        generator_family("trivial-H2", GroupSpec.of(2, 3))
