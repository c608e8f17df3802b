"""Engine-level checks: Hom/tensor complexes, Tate groups, representatives.

Expected values come from three independent sources: hand-evaluated small
maps, classical identities (H_1 with trivial integer coefficients is the
group itself; degree-3 integral cohomology is the exterior square), and the
cross-resolution oracle (the standard resolution knows nothing about the
monomial one, so agreement pins both).
"""

import itertools
import random

import pytest

from cohomolab.engine import (
    Cochain,
    VerificationError,
    coboundary_0,
    coboundary_1,
    dual_tate,
    hom_complex_map,
    homology,
    is_cocycle_1,
    is_cocycle_2,
    ordinary_cohomology,
    tate_cohomology,
    to_factor_set,
)
from cohomolab.group_ring import GroupSpec
from cohomolab.intlinalg import AbelianInvariants
from cohomolab.limits import EngineLimits, ResourceCapExceeded
from cohomolab.modules import (
    DualDivisible,
    invariants_structure,
    parse_module,
    star_dual,
    trivial_module,
)
from cohomolab.resolutions import make_resolution

G2 = GroupSpec.of(2)
G22 = GroupSpec.of(2, 2)
G24 = GroupSpec.of(2, 4)
G33 = GroupSpec.of(3, 3)
G6 = GroupSpec.of(2, 3)

TEST_GROUPS = [(2,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 2, 4), (2, 3)]


def _cyclo22():
    return parse_module("cyclo:2:1:1,0", G22)


def _inv(result):
    return (result.invariants.free_rank, list(result.invariants.torsion))


# ---------------------------------------------------------------------------
# Hom complex assembly


def test_hom_complex_map_pinned_example():
    res = make_resolution(G24, "minimal")
    H = hom_complex_map(trivial_module(G24), res, 1)
    assert H.data == ((2, 0), (0, 0), (0, 4))


def test_hom_complex_map_block_dimensions():
    M = parse_module("cyclo:2:1:1,0", G22)  # rank 1
    res = make_resolution(G22, "minimal")
    H = hom_complex_map(M, res, 1)
    assert (H.rows, H.cols) == (3, 2)
    M2 = parse_module("trivial:3", G33)
    res33 = make_resolution(G33, "minimal")
    H2 = hom_complex_map(M2, res33, 2)
    # bases grow linearly in two variables: 3 then 4 monomials
    assert (H2.rows, H2.cols) == (12, 9)


def test_hom_complex_maps_compose_to_zero():
    for orders in [(2,), (2, 2), (2, 4), (3, 3), (2, 3)]:
        G = GroupSpec.of(*orders)
        mods = [trivial_module(G), parse_module("reduce:4(trivial)", G)]
        if orders == (2, 2):
            mods.append(_cyclo22())
        for kind in ("minimal", "bar"):
            res = make_resolution(G, kind)
            for M in mods:
                for n in (0, 1):
                    A = hom_complex_map(M, res, n)
                    B = hom_complex_map(M, res, n + 1)
                    P = B.mul(A)
                    if M.modulus:
                        assert all(
                            x % M.modulus == 0 for row in P.data for x in row
                        ), (orders, kind, M.label, n)
                    else:
                        assert P.is_zero(), (orders, kind, M.label, n)


# ---------------------------------------------------------------------------
# Cochain plumbing


def test_cochain_flat_roundtrip():
    c = Cochain(2, ((1, 2), (3, 4), (5, 6)))
    assert c.flat() == [1, 2, 3, 4, 5, 6]
    assert Cochain.from_flat(2, c.flat(), 3, 2) == c


def test_cochain_validation():
    with pytest.raises(ValueError):
        Cochain(1, ((1, 2), (3,)))
    with pytest.raises(ValueError):
        Cochain.from_flat(1, [1, 2, 3], 2, 2)


# ---------------------------------------------------------------------------
# Ordinary cohomology


def test_degree_zero_is_the_invariants_submodule():
    assert _inv(ordinary_cohomology(_cyclo22(), 0)) == (0, [])  # twisted line has no fixed points
    assert _inv(ordinary_cohomology(trivial_module(G24), 0)) == (1, [])
    assert _inv(ordinary_cohomology(parse_module("reduce:4(trivial)", G24), 0)) == (0, [4])
    # engine degree 0 must agree with the direct fixed-point computation
    for orders in [(2, 2), (2, 4), (2, 3)]:
        G = GroupSpec.of(*orders)
        texts = ["trivial", "trivial:2", "reduce:4(trivial)"]
        if orders == (2, 2):
            texts.append("cyclo:2:1:1,0")
        for text in texts:
            M = parse_module(text, G)
            assert ordinary_cohomology(M, 0).invariants == invariants_structure(M)


def test_second_cohomology_trivial_coefficients_is_the_group():
    # classical: H^2(G, Z) classifies central extensions by Z, i.e. G itself
    expected = {
        (2,): [2],
        (4,): [4],
        (2, 2): [2, 2],
        (2, 4): [2, 4],
        (3, 3): [3, 3],
        (2, 2, 2): [2, 2, 2],
        (2, 2, 4): [2, 2, 4],
        (2, 3): [6],
    }
    for orders, want in expected.items():
        G = GroupSpec.of(*orders)
        r = ordinary_cohomology(trivial_module(G), 2)
        assert _inv(r) == (0, want), orders


def test_third_cohomology_trivial_coefficients_is_the_exterior_square():
    # H^3(G, Z) = H_2(G, Z) = the exterior square of G
    expected = {
        (2,): [],
        (4,): [],
        (2, 2): [2],
        (2, 4): [2],
        (3, 3): [3],
        (2, 2, 2): [2, 2, 2],
        (2, 2, 4): [2, 2, 2],
        (2, 3): [],
    }
    for orders, want in expected.items():
        G = GroupSpec.of(*orders)
        r = ordinary_cohomology(trivial_module(G), 3)
        assert _inv(r) == (0, want), orders


def test_route_selection_and_equality():
    G = GroupSpec.of(2, 2, 2)
    Z = trivial_module(G)
    fast = ordinary_cohomology(Z, 3, resolution="bar")
    assert fast.route == "cokernel-torsion"
    assert fast.representatives is None
    slow = ordinary_cohomology(Z, 3, resolution="bar", want_representatives=True)
    assert slow.route == "kernel"
    assert slow.invariants == fast.invariants
    small = ordinary_cohomology(Z, 3, resolution="minimal")
    assert small.route == "kernel"
    assert small.invariants == fast.invariants
    # every entry point, coefficient type and representative setting goes
    # through one group function; pin the route it picks for each
    entry_points = {
        "ordinary": ordinary_cohomology,
        "tate": tate_cohomology,
        "homology": homology,
    }
    routes = {  # module -> route without / with representatives
        "cyclo:2:1:1,1": ("cokernel-torsion", "kernel"),
        "reduce:4(trivial)": ("congruence", "congruence"),
    }
    for (kind, fn), (text, pinned), orders in itertools.product(
        entry_points.items(), routes.items(), [(2, 2), (2, 4)]
    ):
        case = (kind, text, orders)
        M = parse_module(text, GroupSpec.of(*orders))
        fast = fn(M, 2, want_representatives=False)
        slow = fn(M, 2, want_representatives=True)
        assert (fast.route, slow.route) == pinned, case
        assert fast.representatives is None, case
        assert slow.invariants == fast.invariants, case
        assert slow.class_group_generated_by(slow.representatives) == slow.invariants, case


def test_finite_invariants_only_route_matches_presentation():
    G = GroupSpec.of(2, 4)
    M = parse_module("reduce:8(trivial)", G)
    a = ordinary_cohomology(M, 2, resolution="bar", want_representatives=False)
    b = ordinary_cohomology(M, 2, resolution="bar", want_representatives=True)
    assert a.invariants == b.invariants
    assert a.representatives is None and b.representatives is not None


def test_ordinary_rejects_negative_degree_and_window():
    Z = trivial_module(G22)
    with pytest.raises(ValueError):
        ordinary_cohomology(Z, -1)
    with pytest.raises(ValueError):
        ordinary_cohomology(Z, 7)


def test_group_order_cap():
    G = GroupSpec.of(4, 4, 4)
    with pytest.raises(ValueError):
        ordinary_cohomology(trivial_module(G), 1)


def test_cell_cap_raises():
    G = GroupSpec.of(3, 3)
    M = parse_module("reduce:4(trivial)", G)
    with pytest.raises(ResourceCapExceeded):
        ordinary_cohomology(M, 2, resolution="bar", limits=EngineLimits(max_cells=100))


@pytest.mark.parametrize(
    "compute, text, n, what",
    [
        (tate_cohomology, "trivial:60", 2, "cokernel-torsion image"),
        (homology, "trivial:30", 0, "kernel image"),
        (homology, "reduce:4(trivial:30)", 0, "congruence image"),
    ],
)
def test_cell_cap_binds_on_every_assembled_matrix(compute, text, n, what):
    M = parse_module(text, G22)
    with pytest.raises(ResourceCapExceeded, match=what):
        compute(M, n, limits=EngineLimits(max_cells=1000))


# ---------------------------------------------------------------------------
# Tate cohomology


def test_tate_degree_zero_is_fixed_points_modulo_norms():
    assert _inv(tate_cohomology(trivial_module(G24), 0)) == (0, [8])
    assert _inv(tate_cohomology(trivial_module(G22), 0)) == (0, [4])
    # finite coefficients, degree 0: norm of (2,2) acts as 4 = 0 on Z/4
    M4 = parse_module("reduce:4(trivial)", G22)
    assert _inv(tate_cohomology(M4, 0)) == (0, [4])


def test_tate_degree_one_vanishes_with_trivial_integer_coefficients():
    for orders in TEST_GROUPS:
        G = GroupSpec.of(*orders)
        assert _inv(tate_cohomology(trivial_module(G), 1)) == (0, []), orders


def test_tate_pinned_window_for_klein_group():
    Z = trivial_module(G22)
    got = [list(tate_cohomology(Z, n).invariants.torsion) for n in range(4)]
    assert got == [[4], [], [2, 2], [2]]


def test_tate_negative_degree_lattice():
    assert _inv(tate_cohomology(_cyclo22(), -1)) == (0, [2])
    # norm splice: degree -1 with trivial Z coefficients is always 0
    for orders in [(2,), (2, 2), (3, 3), (2, 3)]:
        G = GroupSpec.of(*orders)
        assert _inv(tate_cohomology(trivial_module(G), -1)) == (0, []), orders


def test_tate_rejects_out_of_window_and_finite_negative():
    Z = trivial_module(G22)
    with pytest.raises(ValueError):
        tate_cohomology(Z, 7)
    with pytest.raises(ValueError):
        tate_cohomology(Z, -7)
    M4 = parse_module("reduce:4(trivial)", G22)
    with pytest.raises(ValueError):
        tate_cohomology(M4, -1)


def test_tate_agrees_with_ordinary_in_positive_degrees():
    for M in [trivial_module(G24), _cyclo22(), parse_module("reduce:4(trivial)", G33)]:
        for n in (1, 2, 3):
            t = tate_cohomology(M, n)
            o = ordinary_cohomology(M, n)
            assert t.invariants == o.invariants, (M.label, n)


def test_tate_duality_invariant_factors():
    # complete cohomology of the dual lattice in degree n matches degree -n
    for G, text in [(G22, "cyclo:2:1:1,0"), (G22, "trivial"), (G24, "cyclo:2:2:2,1")]:
        M = parse_module(text, G)
        Mstar = star_dual(M)
        for n in range(-3, 4):
            a = tate_cohomology(Mstar, n).invariants
            b = tate_cohomology(M, -n).invariants
            assert a == b, (G.orders, text, n)


def test_genus_invariance_for_cyclotomic_lattices():
    for G, text in [(G22, "cyclo:2:1:1,0"), (G24, "cyclo:2:2:2,1"), (G33, "cyclo:3:1:1,1")]:
        M = parse_module(text, G)
        Mstar = star_dual(M)
        for n in range(-2, 4):
            assert (
                tate_cohomology(M, n).invariants
                == tate_cohomology(Mstar, n).invariants
            ), (G.orders, text, n)


def test_coprime_splitting_over_z6():
    # outer product coefficients over Z/2 x Z/3 split degreewise
    M1 = parse_module("cyclo:2:1:1", GroupSpec.of(2))
    M2 = trivial_module(GroupSpec.of(3))
    M = parse_module("tensor(cyclo:2:1:1,trivial)", G6)
    f1 = invariants_structure(M1).free_rank
    f2 = invariants_structure(M2).free_rank
    for n in range(-2, 4):
        whole = tate_cohomology(M, n).invariants
        left = tate_cohomology(M1, n).invariants.repeated(f2)
        right = tate_cohomology(M2, n).invariants.repeated(f1)
        assert whole == left.direct_sum(right), n


def test_degree_order_independence():
    Z = trivial_module(G24)
    degrees = list(range(-3, 4))
    rng = random.Random(9)
    shuffled = degrees[:]
    rng.shuffle(shuffled)
    first = {n: tate_cohomology(Z, n).invariants for n in shuffled}
    second = {n: tate_cohomology(Z, n).invariants for n in degrees}
    assert first == second


# ---------------------------------------------------------------------------
# Homology


def test_homology_degree_zero_is_coinvariants():
    assert _inv(homology(trivial_module(G22), 0)) == (1, [])
    assert _inv(homology(_cyclo22(), 0)) == (0, [2])


def test_first_homology_trivial_coefficients_is_the_group():
    expected = {
        (2,): [2],
        (4,): [4],
        (2, 2): [2, 2],
        (2, 4): [2, 4],
        (3, 3): [3, 3],
        (2, 2, 4): [2, 2, 4],
        (2, 3): [6],
    }
    for orders, want in expected.items():
        G = GroupSpec.of(*orders)
        assert _inv(homology(trivial_module(G), 1)) == (0, want), orders


def test_second_homology_pinned():
    assert _inv(homology(_cyclo22(), 2)) == (0, [2, 2])
    assert _inv(homology(trivial_module(G24), 2)) == (0, [2])


def test_homology_bar_oracle():
    for orders in [(2,), (2, 2), (2, 3)]:
        G = GroupSpec.of(*orders)
        for M in [trivial_module(G), parse_module("reduce:4(trivial)", G)]:
            for n in range(3):
                a = homology(M, n, resolution="minimal").invariants
                b = homology(M, n, resolution="bar").invariants
                assert a == b, (orders, M.label, n)


def test_homology_rejects_negative_degree():
    with pytest.raises(ValueError):
        homology(trivial_module(G22), -1)


# ---------------------------------------------------------------------------
# Divisible duals


def test_dual_tate_pinned():
    assert _inv(dual_tate(trivial_module(G24), 1)) == (0, [2, 4])
    assert _inv(dual_tate(trivial_module(G22), 2)) == (0, [2])
    assert _inv(dual_tate(_cyclo22(), 2)) == (0, [2, 2])


def test_dual_marker_routes_to_dual_tate():
    inner = _cyclo22()
    marker = DualDivisible(inner, label="dualD(test)")
    for n in (-2, 1, 2):
        assert tate_cohomology(marker, n).invariants == dual_tate(inner, n).invariants
    with pytest.raises(ValueError):
        ordinary_cohomology(marker, 0)


def test_dual_tate_reports_shifted_route():
    r = dual_tate(trivial_module(G22), 2)
    assert r.route == "dual-shift"
    assert r.representatives is None
    assert r.degree == 2


# ---------------------------------------------------------------------------
# Representatives


def test_representatives_are_cocycles_and_stable_under_coboundaries():
    rng = random.Random(17)
    for M in [trivial_module(G24), _cyclo22(), parse_module("reduce:4(trivial)", G22)]:
        r = ordinary_cohomology(M, 2, want_representatives=True)
        assert r.representatives is not None
        assert len(r.representatives) == len(r.invariants.torsion)
        count, rank = r._count, r._rank
        for rep in r.representatives:
            assert is_cocycle_2(M, rep), (M.label, rep)
            # shifting by a coboundary must not move the canonical residue
            xi_vals = [
                [rng.randint(-3, 3) for _ in range(rank)] for _ in range(2)
            ]
            xi = Cochain(1, tuple(tuple(v) for v in xi_vals))
            shift = coboundary_1(M, xi)
            moved = Cochain.from_flat(
                2,
                [a + b for a, b in zip(rep.flat(), shift.flat())],
                count,
                rank,
            )
            assert r.reduce_cocycle(moved) == r.reduce_cocycle(rep)


def test_class_coordinates_of_representatives():
    Z = trivial_module(G22)
    r = ordinary_cohomology(Z, 2, want_representatives=True)
    assert list(r.invariants.torsion) == [2, 2]
    coords = [r.class_coordinates(rep) for rep in r.representatives]
    # each representative generates its own summand
    nonzero_positions = [tuple(i for i, c in enumerate(co) if c) for co in coords]
    assert len(set(nonzero_positions)) == len(coords)


def test_representative_verification_cannot_be_disabled_silently():
    # the checker runs on every extraction; a non-cocycle would raise
    Z = trivial_module(G33)
    r = ordinary_cohomology(Z, 2, want_representatives=True)
    assert all(is_cocycle_2(Z, rep) for rep in r.representatives)


# ---------------------------------------------------------------------------
# Cocycle predicates and coboundaries


def test_is_cocycle_1_norm_violation_reported():
    Z = trivial_module(G22)
    xi = Cochain(1, ((1,), (0,)))
    check = is_cocycle_1(Z, xi)
    assert not check
    assert any("x1^2" in v for v in check.violations)


def test_is_cocycle_1_accepts_torsion_points():
    # with Z/4 coefficients over (2,4): 2*xi(x1) = 0 and 4*xi(x2) = 0 mod 4
    M = parse_module("reduce:4(trivial)", G24)
    assert is_cocycle_1(M, Cochain(1, ((2,), (1,))))
    assert not is_cocycle_1(M, Cochain(1, ((1,), (0,))))


def test_is_cocycle_2_trivial_square_family():
    Z = trivial_module(G22)
    for k in range(2):
        vals = [[0], [0], [0]]
        vals[[0, 2][k]] = [1]  # squares sit at positions 0 and 2 of the basis
        assert is_cocycle_2(Z, Cochain(2, tuple(tuple(v) for v in vals)))
    # a bare mixed entry is not a cocycle over the Klein group
    assert not is_cocycle_2(Z, Cochain(2, ((0,), (1,), (0,))))


def test_is_cocycle_2_violation_names_degree_three_monomials():
    Z = trivial_module(G22)
    check = is_cocycle_2(Z, Cochain(2, ((0,), (1,), (0,))))
    assert check.violations
    assert any("x1" in v and "x2" in v for v in check.violations)


def test_coboundary_pinned_and_kills_itself():
    M = _cyclo22()
    cb = coboundary_0(M, [1])
    assert cb.values == ((-2,), (0,))
    assert is_cocycle_1(M, cb)
    assert all(x == 0 for x in coboundary_1(M, cb).flat())


def test_coboundaries_are_cocycles_random():
    rng = random.Random(53)
    for M in [trivial_module(G24), _cyclo22(), parse_module("reduce:8(trivial)", G24)]:
        for _ in range(5):
            u = [rng.randint(-4, 4) for _ in range(M.rank)]
            xi = coboundary_0(M, u)
            assert is_cocycle_1(M, xi)
            gamma = coboundary_1(M, xi)
            assert all(x == 0 for x in gamma.flat()) or is_cocycle_2(M, gamma)


def test_trivial_module_coboundary_0_vanishes():
    Z = trivial_module(G22)
    assert coboundary_0(Z, [5]).values == ((0,), (0,))


# ---------------------------------------------------------------------------
# Factor sets


def test_factor_set_cyclic_two_pinned_table():
    f = to_factor_set(trivial_module(G2), Cochain(2, ((1,),)))
    e, a = (0,), (1,)
    assert f(e, e) == (0,)
    assert f(e, a) == (0,)
    assert f(a, e) == (0,)
    assert f(a, a) == (1,)  # carries exactly when both inputs are the generator


def test_factor_set_normalization_and_identity():
    Z = trivial_module(G22)
    gamma = Cochain(2, ((1,), (0,), (0,)))
    f = to_factor_set(Z, gamma)
    for g in G22.elements():
        assert f(G22.identity(), g) == (0,)
        assert f(g, G22.identity()) == (0,)
    assert f.cocycle_identity_holds()


def test_factor_set_twisted_coefficients():
    M = _cyclo22()
    r = ordinary_cohomology(M, 2, want_representatives=True)
    assert r.representatives
    f = to_factor_set(M, r.representatives[0])
    assert f.cocycle_identity_holds()


def test_factor_set_rejects_non_cocycle():
    Z = trivial_module(G22)
    with pytest.raises(ValueError):
        to_factor_set(Z, Cochain(2, ((0,), (1,), (0,))))
