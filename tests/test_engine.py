"""Engine-level checks: Hom/tensor complexes, Tate groups, representatives.

Expected values come from three independent sources: hand-evaluated small
maps, classical identities (H_1 with trivial integer coefficients is the
group itself; degree-3 integral cohomology is the exterior square), and the
cross-resolution oracle (the standard resolution knows nothing about the
monomial one, so agreement pins both).
"""

import hashlib
import itertools
import random
from functools import partial
from math import comb
from typing import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _reference import antipode_block as reference_antipode_block
from _reference import bar_pivots as reference_bar_pivots
from _reference import cocycle_identity_holds as reference_identity_holds
from _reference import column_hnf, hom_constraint_rows, invariants_structure, sigma
from _reference import minimal_faces as reference_minimal_faces
from _reference import minimal_rows as reference_minimal_rows
from _reference import monomial_skeleton as reference_monomial_skeleton
from _reference import norm_block as reference_norm_block
from _reference import morse_splits as reference_morse_splits
from _reference import schur_complement as reference_complement
from cohomolab import engine, group_ring, intlinalg, resolutions, verify
from cohomolab.closed_forms import generator_family
from cohomolab.engine import (
    Cochain,
    VerificationError,
    _apply,
    _columns,
    _leg_rows,
    coboundary_0,
    coboundary_1,
    dual_tate,
    homology,
    is_cocycle_1,
    is_cocycle_2,
    ordinary_cohomology,
    tate_cohomology,
    to_factor_set,
)
from cohomolab.group_ring import GroupSpec
from cohomolab.intlinalg import AbelianInvariants, IntMatrix, _densify, smith_diagonal
from cohomolab.limits import EngineLimits, ResourceCapExceeded
from cohomolab.modules import (
    DualDivisible,
    GModule,
    parse_module,
    reduce_mod,
    star_dual,
    trivial_module,
    zmod_module,
)
from cohomolab.resolutions import complete_diff, make_resolution
from cohomolab.verify import (
    CAPPED,
    PASS,
    _oracle_modules,
    oracle_suite,
    resolution_suite,
    sigma_suite,
)

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


def _dense_rows(M, rows, width):
    """Streamed {column: value} Hom rows as dense rows of the given width,
    reduced mod the module's modulus."""
    N = M.modulus
    out = []
    for sparse in rows:
        row = [0] * width
        for k, c in sparse.items():
            row[k] += c
        out.append([x % N for x in row] if N else row)
    return out


def _hom_map(M, res, n):
    """The degree-n to degree-(n+1) map of Hom(res, M), dense."""
    return _dense_rows(M, _leg_rows(M, res.kind, n + 1), M.rank * res.rank(n))


def test_hom_complex_map_pinned_example():
    res = make_resolution(G24, "minimal")
    assert _hom_map(trivial_module(G24), res, 1) == [[2, 0], [0, 0], [0, 4]]


def test_hom_complex_map_block_dimensions():
    M = parse_module("cyclo:2:1:1,0", G22)  # rank 1
    H = _hom_map(M, make_resolution(G22, "minimal"), 1)
    assert (len(H), len(H[0])) == (3, 2)
    M2 = parse_module("trivial:3", G33)
    H2 = _hom_map(M2, make_resolution(G33, "minimal"), 2)
    # bases grow linearly in two variables: 3 then 4 monomials
    assert (len(H2), len(H2[0])) == (12, 9)


def test_hom_complex_maps_compose_to_zero():
    # each basis cochain of degree n, through the legs leaving n and n + 1
    for orders in [(2,), (2, 2), (2, 4), (3, 3), (2, 3)]:
        G = GroupSpec.of(*orders)
        mods = [trivial_module(G), parse_module("reduce:4(trivial)", G)]
        if orders == (2, 2):
            mods.append(_cyclo22())
        for kind in ("minimal", "bar"):
            res = make_resolution(G, kind)
            for M in mods:
                for n in (0, 1):
                    first = list(_leg_rows(M, kind, n + 1))
                    then = list(_leg_rows(M, kind, n + 2))
                    width = M.rank * res.rank(n)
                    for j in range(width):
                        e = [int(k == j) for k in range(width)]
                        out = _apply(M, then, _apply(M, first, e))
                        assert not any(out), (orders, kind, M.label, n, j)


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
        "reduce:4(trivial)": ("universal-coefficients", "congruence"),
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
    # degree 0 has no incoming map in cohomology and no outgoing one in
    # homology; without representatives the Smith branch reads the free rank
    # off the ranks of the maps that exist
    for orders in [(2, 2), (2, 4), (3, 3)]:
        for text in _lattice_texts(orders):
            M = parse_module(text, GroupSpec.of(*orders))
            for fn, resolution in itertools.product(
                [ordinary_cohomology, homology], ["minimal", "bar"]
            ):
                case = (fn.__name__, resolution, text, orders)
                fast = fn(M, 0, resolution=resolution, want_representatives=False)
                slow = fn(M, 0, resolution=resolution, want_representatives=True)
                assert (fast.route, slow.route) == ("cokernel-torsion", "kernel"), case
                assert slow.invariants == fast.invariants, case
                reps = slow.representatives
                assert slow.class_group_generated_by(reps) == slow.invariants, case


def test_only_the_smith_branch_skips_the_outgoing_cap(monkeypatch):
    # with representatives the outgoing map is built, so its cap binds even
    # where the image and the dim x dim presentation fit under it
    Z = trivial_module(GroupSpec.of(2, 2))
    monkeypatch.setenv("COHOMOLAB_MAX_CELLS", "5")
    # degree 1: image 2 x 1, presentation 2 x 2, outgoing map 3 x 2
    with pytest.raises(ResourceCapExceeded, match="kernel outgoing map needs a 3 x 2"):
        ordinary_cohomology(Z, 1, want_representatives=True)
    # over Z in a degree with both maps the Smith branch never builds it
    assert ordinary_cohomology(Z, 1, want_representatives=False).route == "cokernel-torsion"
    # degree 0 on the bar resolution: presentation 1 x 1, outgoing map 3 x 1
    monkeypatch.setenv("COHOMOLAB_MAX_CELLS", "2")
    with pytest.raises(ResourceCapExceeded, match="kernel outgoing map needs a 3 x 1"):
        ordinary_cohomology(Z, 0, resolution="bar", want_representatives=True)


@pytest.mark.parametrize("reps", [False, True])
@pytest.mark.parametrize("compute", [ordinary_cohomology, tate_cohomology, homology])
def test_incoming_map_is_capped_before_it_is_built(monkeypatch, compute, reps):
    # both maps are sized from the resolution ranks and capped before either
    # is built, so a degree whose image is over the cap builds no leg
    built = []
    real = engine._leg_rows
    monkeypatch.setattr(
        engine,
        "_leg_rows",
        lambda M, res, m, *rest: built.append((res, m)) or real(M, res, m, *rest),
    )
    real_diff = resolutions.minimal_diff
    monkeypatch.setattr(
        resolutions, "minimal_diff", lambda spec, n: built.append(n) or real_diff(spec, n)
    )
    Z = trivial_module(GroupSpec.of(2, 2, 2, 2))
    limits = EngineLimits(max_cells=1000, max_tate_degree=40)
    with pytest.raises(ResourceCapExceeded, match="image needs"):
        compute(Z, 40, limits=limits, want_representatives=reps)
    assert built == []


@pytest.mark.parametrize(
    "text, reps, route",
    [
        ("trivial", False, "cokernel-torsion"),
        ("trivial", True, "kernel"),
        ("reduce:4(trivial)", False, "universal-coefficients"),
        ("reduce:4(trivial)", True, "congruence"),
    ],
)
@pytest.mark.parametrize(
    "compute, resolution",
    [
        (ordinary_cohomology, "minimal"),
        (ordinary_cohomology, "bar"),
        (homology, "minimal"),
        (homology, "bar"),
        (tate_cohomology, None),
    ],
)
def test_each_differential_is_built_at_most_once(
    monkeypatch, compute, resolution, text, reps, route
):
    # legs are recorded by the resolution and the degree they leave: "bar"
    # where a standard-resolution leg is listed (every listing, plain or
    # dual, reads _bar_rows), "monomial" where a
    # monomial leg is built (every monomial read, the Smith input and the
    # quotient's image and rows alike, goes through _minimal_rows, whose
    # rows _leg_rows only iterates), "morse" where a standard-resolution
    # leg is read off the Morse complex, or "runs" where one is read run by
    # run; a call builds each of its one or two maps at most once, the
    # cokernel-torsion route over Z only the incoming one wherever both
    # exist, and no call builds a minimal_diff or bar_diff RingMatrix
    built, reference = [], []
    real_rows = engine._bar_rows
    monkeypatch.setattr(
        engine, "_bar_rows", lambda M, m, *rest: built.append(("bar", m)) or real_rows(M, m, *rest)
    )
    real_minimal_rows = engine._minimal_rows
    monkeypatch.setattr(
        engine,
        "_minimal_rows",
        lambda M, m, *rest: built.append(("monomial", m)) or real_minimal_rows(M, m, *rest),
    )
    # every Smith diagonal of a standard-resolution leg, plain or dual, and
    # the Morse complex of ordinary cohomology read it off the Morse complex
    # through _morse_leg, and the representatives check reads a plain one
    # run by run; none lists its rows.  Each Morse read says whether it
    # builds every pivot: a Smith diagonal builds those its critical cells
    # reach, and so does the Morse complex for leg n, but every pivot of
    # leg n + 1, which its lift reads.  Leg n - 1's guards are read through
    # _morse_reach alone, which every _morse_leg read calls for its own leg
    builds, reached = {}, []
    real_leg, real_reach = engine._morse_leg, engine._morse_reach

    def morse_leg(M, m, tables, limits, mod, every):
        built.append(("morse", m))
        builds[m] = every
        return real_leg(M, m, tables, limits, mod, every)

    monkeypatch.setattr(engine, "_morse_leg", morse_leg)
    monkeypatch.setattr(
        engine, "_morse_reach", lambda orders, m: reached.append(m) or real_reach(orders, m)
    )
    real_values = engine._bar_values
    monkeypatch.setattr(
        engine,
        "_bar_values",
        lambda M, m, *rest, **kw: built.append(("runs", m)) or real_values(M, m, *rest, **kw),
    )
    real_bar = resolutions.bar_diff
    monkeypatch.setattr(
        resolutions,
        "bar_diff",
        lambda spec, k, *rest: reference.append(k) or real_bar(spec, k, *rest),
    )
    real_diff = resolutions.minimal_diff
    monkeypatch.setattr(
        resolutions, "minimal_diff", lambda spec, k: reference.append(k) or real_diff(spec, k)
    )
    M = parse_module(text, G22)
    kw = {} if resolution is None else {"resolution": resolution}
    tate = compute is tate_cohomology
    for n in [-2, -1, 0, 1, 2] if tate and M.is_lattice else [0, 1, 2]:
        built.clear()
        builds.clear()
        reached.clear()
        r = compute(M, n, want_representatives=reps, **kw)
        assert r.route == route
        assert len(built) == len(set(built)), (n, built)
        assert reference == [], (n, reference)
        if route == "cokernel-torsion" and (tate or n > 0):
            # Tate degree 0's incoming leg is the norm, which leaves degree 0
            incoming = n + 1 if compute is homology else n
            leg = "morse" if resolution == "bar" else "monomial"
            assert built == [(leg, incoming)], (n, built)
        if reps and resolution == "bar" and compute is ordinary_cohomology:
            # on the Morse complex: the guards of leg n - 1, then the pivots
            # of legs n and n + 1, the outgoing leg read run by run for the
            # check, and no leg listed
            morse = [("morse", m) for m in range(max(n, 1), n + 2)]
            runs = [("runs", n + 1)] if r.representatives else []
            assert built == morse + runs, (n, built)
            assert builds == {m: m > n for _, m in morse}, (n, builds)
            assert reached == list(range(max(n - 1, 1), n + 2)), (n, reached)
        elif not reps and resolution == "bar":
            # each Smith diagonal's leg read off the Morse complex, once, and
            # no row listed or run read
            assert built and all(res == "morse" for res, _ in built), (n, built)
            assert set(builds.values()) == {False}, (n, builds)
            assert reached == [m for _, m in built], (n, reached)
        elif resolution == "bar":
            # homology with representatives lists its dual legs
            assert built and all(res == "bar" for res, _ in built), (n, built)
        else:
            # each monomial leg read off its skeleton, once, whether for its
            # Smith diagonal or for the quotient, and no row listed
            assert built and all(res == "monomial" for res, _ in built), (n, built)


def test_group_tables_are_built_once_per_group():
    # the product table and the merged table of nonidentity elements are
    # built once per group, however many standard-resolution legs, sigma
    # blocks and factor-set checks read them
    tables = (engine._product_table, engine._merged_table)
    for table in tables:
        table.cache_clear()
    groups = [(2, 4), (3, 3)]
    for orders in groups:
        M = trivial_module(GroupSpec(orders))
        for n, reps in itertools.product((1, 2, 3), (False, True)):
            ordinary_cohomology(M, n, resolution="bar", want_representatives=reps)
        homology(M, 1, resolution="bar", want_representatives=True)
        for gamma in ordinary_cohomology(M, 2, want_representatives=True).representatives:
            assert to_factor_set(M, gamma).cocycle_identity_holds()
    for table in tables:
        info = table.cache_info()
        assert info.misses == info.currsize == len(groups) and info.hits, (table, info)


def test_factor_sets_and_the_resolution_checks_build_no_ring_matrix(monkeypatch):
    # factor sets and the resolution and sigma suites read their rows from
    # the faces functions alone
    def refuse(self, *args, **kwargs):
        raise AssertionError("a RingMatrix was built")

    monkeypatch.setattr(group_ring.RingMatrix, "__init__", refuse)
    for text in ("trivial", "cyclo:2:2:0,1"):
        M = parse_module(text, G24)
        gamma = ordinary_cohomology(M, 2, want_representatives=True).representatives[0]
        assert to_factor_set(M, gamma).cocycle_identity_holds(), text
    assert all(r.status == PASS for r in resolution_suite() + sigma_suite())


@pytest.mark.parametrize("reps", [False, True])
@pytest.mark.parametrize("text", ["trivial", "reduce:4(trivial)"])
@pytest.mark.parametrize("compute", [ordinary_cohomology, homology])
def test_bar_degree_window_binds_on_every_route(compute, text, reps):
    # the window is |n| <= 3 whether or not a route builds the degree-(n+1) map
    M = parse_module(text, G2)
    with pytest.raises(
        ResourceCapExceeded,
        match="standard-resolution degree 5 exceeds the configured maximum 4",
    ):
        compute(M, 4, resolution="bar", want_representatives=reps)
    assert compute(M, 3, resolution="bar", want_representatives=reps).degree == 3


@pytest.mark.parametrize("compute, n", [(ordinary_cohomology, 3), (homology, 2)])
def test_bar_cell_cap_binds_on_a_rank_zero_module(compute, n):
    # the engine's own caps read dim = 0 and pass; the leg's reader still
    # refuses the (|G| - 1)^m tuple walk before it reads anything: the
    # Smith diagonal's Morse read without representatives, and with them
    # the Morse complex's (ordinary cohomology) or the plain-shaped rows of
    # the dual leg (homology)
    M = parse_module("trivial:0", GroupSpec.of(36))
    msg = "standard-resolution differential needs a 1225 x 42875 matrix"
    with_reps = {"_bar_rows", "_bar_leg"}
    if compute is ordinary_cohomology:
        with_reps = {"_morse_complex", "_bar_leg"}
    _clear_bar_tables()
    engine._monomial_skeleton.cache_clear()
    for reps, readers in ((False, {"diagonal", "_morse_leg"}), (True, with_reps)):
        with pytest.raises(ResourceCapExceeded, match=msg) as err:
            compute(M, n, resolution="bar", want_representatives=reps)
        names = {entry.name for entry in err.traceback}
        assert readers <= names
        # the Morse complex prices leg 3 itself, before it reads leg 2
        assert not (reps and compute is ordinary_cohomology and "_morse_leg" in names)
    for dual in (False, True):
        with pytest.raises(ResourceCapExceeded, match=msg):
            next(engine._leg_rows(M, "bar", 3, dual))
    # only a priced leg tables anything: the Morse complex of ordinary
    # cohomology prices legs 2, 3 and 4 before it reads any, so the
    # refused leg 3 leaves every skeleton table empty
    for table in (engine._monomial_skeleton, engine._morse_splits, engine._morse_reach):
        assert table.cache_info().currsize == 0, table
    assert not _was_tabled((36,), 3)


def _clear_bar_tables():
    """Empty both bar tables, which hold the guards' verdicts."""
    engine._morse_splits.cache_clear()
    engine._morse_reach.cache_clear()


def _was_tabled(orders, m, table=engine._morse_splits) -> bool:
    """Whether the bar ``table`` held the key (orders, m): a lookup that
    does not miss."""
    misses = table.cache_info().misses
    table(orders, m)
    return table.cache_info().misses == misses


def test_skeleton_tables_stay_under_their_bound():
    # the monomial keys (s, m) and bar keys (orders, m) that the resolution
    # and oracle suites read fit in the tables without eviction.  A bar
    # table of (orders, m) holds a pair per cell of degree m - 1, which the
    # reader prices as the columns of a leg first: the oracle's (2,2,4) H^3
    # reads leg 3, whose partition guard of degree 3 tables m = 4 and whose
    # reach tables m = 3, and its capped leg leaving degree 4 tables
    # nothing above that
    tables = (engine._monomial_skeleton, engine._morse_splits, engine._morse_reach)
    for table in tables:
        table.cache_clear()
    assert {r.status for r in resolution_suite() + oracle_suite()} == {PASS, CAPPED}
    for table in tables:
        info = table.cache_info()
        assert 0 < info.currsize < info.maxsize == engine._SKELETON_TABLES, info
    assert _was_tabled((2, 2, 4), 4) and not _was_tabled((2, 2, 4), 5)
    reach = engine._morse_reach
    assert _was_tabled((2, 2, 4), 3, reach) and not _was_tabled((2, 2, 4), 4, reach)


def test_hom_complex_map_checks_every_cap(monkeypatch):
    # a standard-resolution leg is sized and capped before a row is built:
    # cells (from the environment or ``limits``) and the degree window; the
    # entry points check the group order first, on either resolution
    Z = trivial_module(G22)
    monkeypatch.setenv("COHOMOLAB_MAX_CELLS", "10")
    with pytest.raises(ResourceCapExceeded, match="9 x 27 matrix"):
        next(_leg_rows(Z, "bar", 3))
    monkeypatch.delenv("COHOMOLAB_MAX_CELLS")
    C40 = GroupSpec.of(40)
    for kind in ("minimal", "bar"):
        with pytest.raises(ResourceCapExceeded, match="group order 40"):
            ordinary_cohomology(trivial_module(C40), 1, resolution=kind)
    with pytest.raises(ResourceCapExceeded, match="standard-resolution degree 5"):
        next(_leg_rows(Z, "bar", 5))
    with pytest.raises(ResourceCapExceeded, match="9 x 27 matrix"):
        next(_leg_rows(Z, "bar", 3, limits=EngineLimits(max_cells=26 * 9)))
    assert len(list(_leg_rows(Z, "bar", 3, limits=EngineLimits(max_cells=27 * 9)))) == 27


@pytest.mark.parametrize("text", ["trivial:0", "reduce:3(trivial:0)"])
def test_rank_zero_module_with_representatives(text):
    # the zero module: no coordinates, so every group and representative is empty
    M = parse_module(text, G22)
    for n in range(3):
        r = ordinary_cohomology(M, n, want_representatives=True)
        assert r.invariants == AbelianInvariants(0, ()) and r.representatives == ()


def test_finite_invariants_only_route_matches_presentation():
    G = GroupSpec.of(2, 4)
    M = parse_module("reduce:8(trivial)", G)
    a = ordinary_cohomology(M, 2, resolution="bar", want_representatives=False)
    b = ordinary_cohomology(M, 2, resolution="bar", want_representatives=True)
    assert a.invariants == b.invariants
    assert a.representatives is None and b.representatives is not None


def _lattice_texts(orders):
    return [t for t in _oracle_modules(orders) if not t.startswith("reduce")]


def _bar_degrees(orders, text):
    # the congruence route with representatives grows fast on the bar
    # resolution, so degree 3 is checked for trivial over (2, 2) only
    if orders != (2, 2):
        return range(2)
    return range(4) if text == "trivial" else range(3)


@pytest.mark.parametrize("orders", [(2, 2), (2, 4), (3, 3)])
def test_universal_coefficients_matches_congruence(orders):
    # reduce:N(L) without representatives takes two Smith diagonals mod N;
    # with them, the congruence route; both must give the same group
    G = GroupSpec.of(*orders)
    for text, N in itertools.product(_lattice_texts(orders), (2, 4, 6, 9)):
        M = parse_module(f"reduce:{N}({text})", G)
        calls = [(tate_cohomology, {}, range(4))]
        for fn in (ordinary_cohomology, homology):
            calls.append((fn, {"resolution": "minimal"}, range(4)))
            calls.append((fn, {"resolution": "bar"}, _bar_degrees(orders, text)))
        for fn, kw, degrees in calls:
            for n in degrees:
                case = (text, N, fn.__name__, kw, n)
                fast = fn(M, n, want_representatives=False, **kw)
                slow = fn(M, n, want_representatives=True, **kw)
                assert (fast.route, slow.route) == ("universal-coefficients", "congruence"), case
                assert fast.invariants == slow.invariants, case


@pytest.mark.parametrize(
    "N, action",
    [(4, [[1, 2], [0, 1]]), (8, [[1, 4], [0, 1]])],
)
def test_universal_coefficients_needs_a_lattice_lift(N, action):
    # A has order 2 mod N but not over Z, so no lift with d o d = 0 is
    # known: in degree 1 the two mod-N Smith diagonals hold three entries on
    # a 2-dimensional space ((2), (2, 2) mod 4; (4), (2, 2) mod 8), against
    # the true H^1 = Z/2, so every such call stays on congruence
    M = zmod_module(G2, N, [IntMatrix.from_rows(action)])
    assert not M.lifts_to_lattice
    assert not M.relabel("renamed").lifts_to_lattice
    calls = [(tate_cohomology, {})]
    for fn, res in itertools.product((ordinary_cohomology, homology), ("minimal", "bar")):
        calls.append((fn, {"resolution": res}))
    for (fn, kw), want in itertools.product(calls, (False, True, None)):
        r = fn(M, 1, want_representatives=want, **kw)
        assert r.route == "congruence", (fn.__name__, kw, want)
        assert _inv(r) == (0, [2]), (fn.__name__, kw, want)


def test_lattice_lift_flag_is_set_by_reduction_alone():
    L = parse_module("cyclo:2:1:1,1", G22)
    R = reduce_mod(L, 4)
    assert R.lifts_to_lattice and R.relabel("x").lifts_to_lattice
    assert parse_module("reduce:4(cyclo:2:1:1,1)", G22).lifts_to_lattice
    assert not L.lifts_to_lattice
    # a tensor with a reduction is L/NL too, but nothing marks it
    T = parse_module("tensor(reduce:4(trivial),cyclo:2:1:1,1)", G22)
    assert T.modulus == 4 and not T.lifts_to_lattice
    assert R == GModule(R.spec, R.rank, R.modulus, R.actions, R.label)


def _dense_columns(H):
    """The nonzero columns of dense rows, in the {row: value} form
    :func:`_columns` returns."""
    return [{r: x for r, x in enumerate(c) if x} for c in zip(*H) if any(c)]


def _listed_columns(rows, width):
    """The nonzero columns of a map of ``width`` columns given by its
    reference rows, (column, value) lists: :func:`_columns` of the rows as
    dicts, the empty columns dropped."""
    return [c for c in _columns(map(dict, rows), width) if c]


@pytest.mark.parametrize(
    "text, orders, resolution",
    [
        ("cyclo:2:1:1,1", (2, 2), "minimal"),
        ("star(cyclo:2:2:0,1)", (2, 4), "bar"),
        ("reduce:4(cyclo:3:1:1,1)", (3, 3), "minimal"),
        ("reduce:6(star(cyclo:2:2:0,1))", (2, 4), "bar"),
    ],
)
def test_streamed_image_columns_match_the_dense_map(text, orders, resolution):
    G = GroupSpec.of(*orders)
    M = parse_module(text, G)
    res = make_resolution(G, resolution)
    d = M.rank
    for n in (0, 1, 2):
        # cohomology: the image in degree n + 1 (on the minimal resolution
        # the library's leg reads the rows off monomial indices instead)
        D = res.diff(n + 1)
        got = _listed_columns(hom_constraint_rows(M, D), d * D.rows)
        assert got == _dense_columns(_hom_map(M, res, n)), n
        # homology: the antipode-transposed leg into degree n, whose rows
        # are wider (degree n + 1) than the degree-n chains
        T = D.antipode_transpose()
        assert T.rows > T.cols
        got = _listed_columns(hom_constraint_rows(M, T), d * T.rows)
        dense = _dense_rows(M, map(dict, hom_constraint_rows(M, T)), d * T.rows)
        assert got == _dense_columns(dense), n


_ROW_GROUPS = [(2,), (3,), (4,), (2, 2), (2, 4), (3, 3), (2, 3), (2, 2, 2), (2, 2, 4), (2, 2, 2, 2)]


def _row_modules(orders, directory) -> list[str]:
    """Module texts over the group: lattices, duals, tensors, reductions and
    a Z/6 module read from a matrix file."""
    texts = ["trivial", "trivial:2"]
    for p, m in ((2, 1), (2, 2), (3, 1)):
        exps = [int(o % p**m == 0) for o in orders]
        if any(exps):
            c = f"cyclo:{p}:{m}:{','.join(map(str, exps))}"
            texts += [c, f"star({c})", f"tensor({c},trivial:2)", f"reduce:4({c})"]
    # generator 0 swaps (even order) or rotates (order 3k) a rank-2 module
    first = "0 1\n1 0" if orders[0] % 2 == 0 else "0 -1\n1 -1"
    path = directory / ("zmod_" + "_".join(map(str, orders)) + ".txt")
    path.write_text("\n\n".join([first] + ["1 0\n0 1"] * (len(orders) - 1)) + "\n")
    return texts + [f"zmod:6:@{path}"]


@pytest.fixture(scope="module")
def row_modules(tmp_path_factory):
    directory = tmp_path_factory.mktemp("zmod")
    return {orders: _row_modules(orders, directory) for orders in _ROW_GROUPS}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(_ROW_GROUPS), st.data(), st.integers(-7, 7), st.booleans())
def test_minimal_rows_equal_the_ring_matrix_rows(row_modules, orders, data, m, dual):
    # the index-arithmetic row source against blocks of act() over the
    # RingMatrix differential, as lists: pair order included
    G = GroupSpec(orders)
    text = data.draw(st.sampled_from(row_modules[orders]))
    M = parse_module(text, G)
    res = make_resolution(G, "minimal")
    for k in (m, 0):  # degree 0 is the norm N_G
        D = complete_diff(res, k)
        if dual:
            D = D.antipode_transpose()
        got = [list(row.items()) for row in engine._leg_rows(M, "minimal", k, dual)]
        assert got == list(hom_constraint_rows(M, D)), (text, k, dual)
    # every block kind: N_G, both parities, plain and dual legs
    for k in range(-2, 3):
        for flip in (False, True):
            list(engine._leg_rows(M, "minimal", k, flip))
    assert len(M._blocks) <= 6 * G.ngens + 1


def test_norm_and_antipode_blocks_equal_the_element_sums(row_modules):
    # N_i(A) by doubling and A_i^(o_i - 1) - I by repeated squaring, both
    # signs, against the sum of the o_i powers and the power read through
    # the element table, for every row module: lattices and finite modules,
    # orders 2, 3 and 4
    for orders in _ROW_GROUPS:
        G = GroupSpec(orders)
        for text in row_modules[orders]:
            M = parse_module(text, G)
            for i, o in enumerate(orders):
                norm, antipode = reference_norm_block(M, i), reference_antipode_block(M, i)
                assert M.block_rows(i, 0) == norm, (orders, text, i)
                assert M.block_rows(i, o - 1) == antipode, (orders, text, i)
                negated = [[(u, -c % M.modulus if M.modulus else -c) for u, c in row] for row in norm]
                assert M.block_rows(i, 0, True) == negated, (orders, text, i)


_BAR_ROW_GROUPS = [orders for orders in _ROW_GROUPS if GroupSpec(orders).order <= 9]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_BAR_ROW_GROUPS), st.data(), st.integers(1, 3), st.booleans())
def test_bar_rows_equal_the_ring_matrix_rows(row_modules, orders, data, m, dual):
    # the tuple-arithmetic row source against blocks of act() over the
    # bar_diff RingMatrix, as lists: pair order included.  Every leg has
    # the sources [g|...|g], whose first and last faces meet in act(g +- 1)
    G = GroupSpec(orders)
    text = data.draw(st.sampled_from(row_modules[orders]))
    M = parse_module(text, G)
    D = resolutions.bar_diff(G, m)
    if dual:
        D = D.antipode_transpose()
    got = [list(row.items()) for row in engine._leg_rows(M, "bar", m, dual)]
    assert got == list(hom_constraint_rows(M, D)), (text, m, dual)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(_BAR_ROW_GROUPS), st.data(), st.integers(1, 3))
def test_dual_bar_image_is_the_plain_shaped_rows(row_modules, orders, data, m):
    # homology's image of a dual standard-resolution leg, the nonzero rows
    # of the plain shape its dual tables read, against the columns of the
    # listed dual leg: the same dicts in the same order
    M = parse_module(data.draw(st.sampled_from(row_modules[orders])), GroupSpec(orders))
    plain = engine._bar_rows(M, m, None, engine._bar_tables(M, True))
    got = [row for row in plain if row]
    width = M.rank * (M.spec.order - 1) ** m
    assert got == [c for c in _columns(engine._leg_rows(M, "bar", m, True), width) if c], m


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(_ROW_GROUPS), st.data(), st.integers(1, 7), st.booleans())
def test_minimal_faces_equal_the_basis_listing(row_modules, orders, data, m, dual):
    # the rows read from the (s, m) table, blocks looked up per call,
    # against the Hom rows of the faces listed from the monomial bases, as
    # lists: pair order included, and on the column side the nonzero
    # columns and the number of columns, for s = 1..4, lattices and finite
    # modules alike
    G = GroupSpec(orders)
    M = parse_module(data.draw(st.sampled_from(row_modules[orders])), G)
    sources, targets = reference_minimal_faces(M, m, dual)
    listed = reference_minimal_rows(M, m, dual)
    rows = engine._minimal_rows(M, m, dual, False)
    columns = engine._minimal_rows(M, m, dual, True)
    assert [list(row.items()) for row in rows] == listed
    assert [c for c in columns if c] == _listed_columns(listed, len(columns))
    assert len(columns) == M.rank * (len(sources) if dual else targets)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 17))
@example(5, 17)
def test_prefix_built_skeleton_equals_the_basis_listing(s, m):
    # the (s, m) table grown from the tables of s - 1 variables, all built
    # afresh, against the listing from both monomial bases: each source's
    # faces in pair order, their targets and kinds, the kinds met and the
    # number of targets
    engine._monomial_skeleton.cache_clear()
    table, kinds, targets = engine._monomial_skeleton(s, m)
    listed, listed_kinds, listed_targets = reference_monomial_skeleton(s, m)
    assert targets == listed_targets
    assert sorted(kinds) == sorted(listed_kinds)
    got = [[(k, kinds[b]) for k, b in faces] for faces in table]
    assert got == [[(k, listed_kinds[b]) for k, b in faces] for faces in listed]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(_ROW_GROUPS), st.data(), st.integers(-7, 7), st.booleans())
def test_minimal_smith_rows_equal_the_listed_rows(row_modules, orders, data, m, dual):
    # the rows of a monomial leg read off its skeleton against the Hom rows
    # of the same leg listed from the monomial bases, plain or dual, the
    # norm at degree 0 and dual legs at negative degrees: on the row side
    # the same rows, on the column side their nonzero columns, and either
    # side's Smith diagonal that of the listed rows, over Z and mod N
    G = GroupSpec(orders)
    text = data.draw(st.sampled_from(row_modules[orders]))
    M = parse_module(text, G)
    for k in (m, 0):
        listed = reference_minimal_rows(M, k, dual)
        rows = engine._minimal_rows(M, k, dual, False)
        columns = engine._minimal_rows(M, k, dual, True)
        assert rows == [dict(row) for row in listed], (text, k, dual)
        assert [c for c in columns if c] == _listed_columns(listed, len(columns)), (text, k, dual)
        for mod in {None, M.modulus or G.order}:
            want = smith_diagonal(map(dict, listed), 0, 0, mod=mod)
            assert smith_diagonal(rows, 0, 0, mod=mod) == want, (text, k, dual, mod)
            assert smith_diagonal(columns, 0, 0, mod=mod) == want, (text, k, dual, mod)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(_BAR_ROW_GROUPS), st.data(), st.integers(1, 4), st.booleans())
def test_bar_pivots_equal_the_morse_partner_walk(row_modules, orders, data, m, dual):
    # the pivots and their rows from the (orders, m) table of splits
    # against the walk of _morse_partner over every cell of degree m - 1,
    # through plain and dual tables, over Z and mod N: insertion order
    # included, which the complement's and the solve's walks follow
    G = GroupSpec(orders)
    M = parse_module(data.draw(st.sampled_from(row_modules[orders])), G)
    tables = engine._bar_tables(M, dual)
    got = engine._bar_pivots(M, m, tables, engine._morse_splits(orders, m))
    want = reference_bar_pivots(M, m, tables)
    assert [list(d.items()) for d in got] == [list(d.items()) for d in want]


_SPLIT_GROUPS = [orders for orders in _ROW_GROUPS if GroupSpec(orders).order <= 16]
_SPLIT_GROUPS += [(4, 4), (2, 8), (16,), (3, 5)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(_SPLIT_GROUPS), st.integers(1, 4))
@example((2, 2, 4), 4)
@example((2, 4), 5)
def test_prefix_built_splits_equal_the_partner_walk(orders, m):
    # each table grown from the one below it, from a cold cache, against
    # the walk of _morse_partner over every cell of degree m - 1, pair for
    # pair and in order; and every degree up to m - 1 passes the partition
    # guard on the grown tables, which raises otherwise, each table below m
    # equal to the walk too
    engine._morse_splits.cache_clear()
    assert engine._morse_splits(orders, m) == reference_morse_splits(orders, m)
    for k in range(1, m):
        assert engine._morse_splits(orders, k) == reference_morse_splits(orders, k), k


def _plain_shape(M, m, rows, dual):
    """The listed ``rows`` of the standard-resolution leg leaving degree m,
    transposed when ``dual``: the plain leg's shape."""
    return _columns(rows, M.rank * (M.spec.order - 1) ** m) if dual else rows


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(_BAR_ROW_GROUPS), st.data(), st.integers(1, 3), st.booleans())
def test_bar_run_values_equal_the_row_products(row_modules, orders, data, m, dual):
    # phi . D read off the prefix runs, for a few cochains at once, against
    # the products with the Hom rows: per run, cochain and coordinate the
    # run's values, which interleave into the source order of the rows.
    # With ``dual`` D is the transposed dual leg, read through the
    # transposed antipode blocks
    G = GroupSpec(orders)
    text = data.draw(st.sampled_from(row_modules[orders]))
    M = parse_module(text, G)
    d, size = M.rank, G.order - 1
    width = d * size ** (m - 1)
    entry = st.integers(-5, 5) | st.just(0)
    vec = st.lists(entry, min_size=width, max_size=width)
    vecs = data.draw(st.lists(vec, min_size=1, max_size=3))
    vecs.append([0] * width)
    values = engine._bar_values(M, m, engine._bar_tables(M, dual), vecs)
    got = [[] for _ in vecs]
    for _ in range(size ** (m - 1)):
        for out in got:
            per_t = [next(values) for _ in range(d)]
            assert all(len(v) == size for v in per_t)
            out += [x for column in zip(*per_t) for x in column]
    assert next(values, None) is None
    N = M.modulus
    rows = _plain_shape(M, m, list(engine._leg_rows(M, "bar", m, dual)), dual)
    for vec, out in zip(vecs, got):
        want = engine._apply(M, rows, vec)
        assert ([x % N for x in out] if N else out) == want, (text, m, dual)


def _morse_read(M, m, tables, mod, every=False):
    """What the Smith branch reads of the standard-resolution leg leaving
    degree m off the Morse complex: the number of pivots it eliminates, d
    per pair of the (orders, m) table, the critical complement of
    :func:`engine._morse_complement` on the pivots that
    :func:`engine._morse_leg` builds and its shape."""
    leg = engine._morse_leg(M, m, tables, None, mod, every)
    complement = engine._morse_complement(M, m, tables, leg, mod)[1]
    units = M.rank * len(engine._morse_splits(M.spec.orders, m))
    return units, complement, len(complement), len(leg[3])


def _check_morse_diagonal(M, m, dual, mod):
    """The Smith diagonal the Smith branch reads off the Morse complex
    (:func:`_morse_read`), a 1 per pivot plus the searched diagonal of the
    critical complement, against the searched diagonal of the listed leg, and
    against a 1 per pivot plus the searched diagonal of the reference's
    complement of every row the pivots leave.  The built pivot rows are the
    listed ones, and the complement has a row per critical coordinate of
    degree m and columns in the critical coordinates of degree m - 1.
    Returns the pivots."""
    rows = list(engine._leg_rows(M, "bar", m, dual))
    plain = _plain_shape(M, m, rows, dual)
    tables = engine._bar_tables(M, dual)
    pivots, built = engine._bar_pivots(M, m, tables, engine._morse_splits(M.spec.orders, m))
    assert built == {r: plain[r] for r in built}
    units, complement, height, width = _morse_read(M, m, tables, mod)
    s = M.spec.ngens
    assert units == len(pivots)
    assert (height, width) == (M.rank * comb(m + s - 1, m), M.rank * comb(m + s - 2, m - 1))
    assert len(complement) == height and all(k < width for row in complement for k in row)
    got = [1] * units + smith_diagonal(complement, height, width, mod=mod)
    cols = M.rank * (M.spec.order - 1) ** (m if dual else m - 1)
    assert got == smith_diagonal(rows, len(rows), cols, mod=mod)
    whole = reference_complement([list(row.items()) for row in plain], pivots, mod)
    assert got == [1] * len(pivots) + smith_diagonal(whole, len(whole), cols, mod=mod)
    return pivots


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_BAR_ROW_GROUPS), st.data(), st.integers(1, 3), st.booleans())
def test_matched_diagonal_equals_the_searched_one(row_modules, orders, data, m, dual):
    # the Morse pivots of a standard-resolution leg pass every guard, and a
    # 1 per pivot plus the searched diagonal of the critical complement is
    # the searched diagonal of the listed rows: over Z and mod N in
    # {2, 4, 6} for a lattice, mod its own N for a finite module
    G = GroupSpec(orders)
    text = data.draw(st.sampled_from(row_modules[orders]))
    M = parse_module(text, G)
    mods = [M.modulus] if M.modulus else [None, data.draw(st.sampled_from((2, 4, 6)))]
    for mod in mods:
        _check_morse_diagonal(M, m, dual, mod)


@pytest.mark.parametrize("dual", [False, True], ids=["plain", "dual"])
@pytest.mark.parametrize("orders, m", [((2,), 3), ((2, 2), 1)])
def test_morse_read_of_a_leg_without_pivots(orders, m, dual):
    # C2 has no pivot in any degree, and no leg leaving degree 1 has one
    M = parse_module("cyclo:2:1:1" if orders == (2,) else "trivial", GroupSpec(orders))
    for mod in (None, 4):
        assert _check_morse_diagonal(M, m, dual, mod) == {}


@pytest.mark.parametrize("compute", [ordinary_cohomology, homology, tate_cohomology])
def test_rank_zero_module_reads_no_value(compute):
    # a module with no coordinates: no pivot, row or value, every group 0
    M = parse_module("trivial:0", G22)
    kw = {} if compute is tate_cohomology else {"resolution": "bar"}
    for n in range(3):
        for reps in (False, True):
            r = compute(M, n, want_representatives=reps, **kw)
            assert r.invariants == AbelianInvariants(0, ()), (n, reps)
    for m, dual, mod in itertools.product((1, 2, 3), (False, True), (None, 4)):
        read = _morse_read(M, m, engine._bar_tables(M, dual), mod)
        assert read == (0, [], 0, 0)


@pytest.mark.parametrize("dual", [False, True], ids=["plain", "dual"])
@pytest.mark.parametrize("m", [2, 3])
def test_schur_complement_runs_over_the_short_side(monkeypatch, row_modules, m, dual):
    # the critical complement of a leg leaving degree m has d C(m+s-1, s-1)
    # rows and d C(m+s-2, s-1) columns, never more columns than rows, so
    # the Smith branch searches it as its columns: no search is fed more
    # vectors than the length of each.  Invariants only, every group and
    # row module that lifts to a lattice, in a degree that reads leg m:
    # H^m over a lattice, H^(m-1) over a reduction (plain legs), H_(m-1)
    # (dual legs)
    shapes = []
    real = engine.smith_diagonal

    def recorded(rows, m, n, mod=None):
        rows = list(rows)
        shapes.append((len(rows), n))
        return real(rows, m, n, mod=mod)

    monkeypatch.setattr(engine, "smith_diagonal", recorded)
    compute = homology if dual else ordinary_cohomology
    for orders in _BAR_ROW_GROUPS:
        G = GroupSpec(orders)
        for text in row_modules[orders]:
            M = parse_module(text, G)
            if M.modulus and not M.lifts_to_lattice:
                continue
            tables = engine._bar_tables(M, dual)
            read = _morse_read(M, m, tables, M.modulus or None)
            _, complement, height, width = read
            assert height >= width and len(complement) == height, (orders, text)
            n = m - 1 if dual or M.modulus else m
            compute(M, n, resolution="bar", want_representatives=False)
    assert shapes and all(fed <= length for fed, length in shapes), shapes


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(_BAR_ROW_GROUPS), st.data(), st.integers(1, 4), st.booleans())
def test_reached_pivots_read_the_same_complement(row_modules, orders, data, m, dual):
    # the Smith branch builds only the pivots that the critical cells of
    # degree m reach (every=False), and reads the same critical complement,
    # row for row, and the same unit count as a read of every pivot
    # (every=True): plain and dual legs, over Z and mod N in {2, 4, 6} for
    # a lattice, mod its own N for a finite module
    G = GroupSpec(orders)
    M = parse_module(data.draw(st.sampled_from(row_modules[orders])), G)
    tables = engine._bar_tables(M, dual)
    mods = [M.modulus] if M.modulus else [None, data.draw(st.sampled_from((2, 4, 6)))]
    for mod in mods:
        every = engine._morse_leg(M, m, tables, None, mod, True)
        reached = engine._morse_leg(M, m, tables, None, mod, False)
        assert len(every[0]) == M.rank * len(engine._morse_splits(orders, m))
        assert len(reached[0]) == M.rank * len(engine._morse_reach(orders, m))
        read = _morse_read(M, m, tables, mod)
        assert read == _morse_read(M, m, tables, mod, True), (orders, m, dual, mod)
        assert read[0] == len(every[0])


def test_smith_read_builds_only_the_reached_pivots(monkeypatch):
    # (2,2,4) H^3 with trivial coefficients reads leg 3 on the Smith route:
    # it eliminates all 207 pairs of the leg's pivot block, but builds the
    # rows of the 31 that its 10 critical cells reach
    built = []
    real = engine._bar_pivots

    def recorded(M, m, *rest):
        pivots, rows = real(M, m, *rest)
        built.append((m, len(rows)))
        return pivots, rows

    monkeypatch.setattr(engine, "_bar_pivots", recorded)
    Z = trivial_module(GroupSpec.of(2, 2, 4))
    r = ordinary_cohomology(Z, 3, resolution="bar", want_representatives=False)
    assert r.route == "cokernel-torsion"
    assert built == [(3, 31)]
    assert len(engine._morse_splits((2, 2, 4), 3)) == 207
    assert r.invariants == ordinary_cohomology(Z, 3, want_representatives=False).invariants


# the pairs of leg 2 over C4, each set failing one module-free guard; the
# true pairs take [x^2] into [x|x] and [x^3] into [x|x^2], whose first face
# is [x^2]
_UNTRUSTED_CELL_PAIRS = {
    # [x^3|x^3] meets [x^2] through its merge face alone, but [x^2] and
    # [x^3] then need each other: a cycle in the cell graph
    "cycle": ((1, (2, 2)), (2, (0, 1))),
    # [x^2|x^3] meets [x^3] through its first face, not a merge face
    "first face": ((1, (0, 0)), (2, (1, 2))),
}


@pytest.mark.parametrize("guard", sorted(_UNTRUSTED_CELL_PAIRS))
def test_a_bad_cell_graph_raises_verification_error(monkeypatch, guard):
    # the pairs pass the partition guard, but the reach of leg 2 raises,
    # naming the group and the degree, and so does every call that reads
    # the leg, listing none of it
    orders = (4,)
    M = trivial_module(GroupSpec(orders))
    cases = [
        (ordinary_cohomology, 2, False),
        (ordinary_cohomology, 1, True),
        (homology, 1, False),
    ]
    _clear_bar_tables()
    real = engine._morse_splits
    assert real(orders, 2) == ((1, (0, 0)), (2, (0, 1)))
    real(orders, 3)  # the partition guard of degree 2, on the true pairs
    untrusted = _UNTRUSTED_CELL_PAIRS[guard]
    message = "Morse pivots leaving degree 2 over \\(4,\\)"
    with monkeypatch.context() as patch:
        patch.setattr(
            engine, "_morse_splits", lambda o, k: untrusted if k == 2 else real(o, k)
        )
        patch.setattr(engine, "_leg_rows", lambda *a, **k: pytest.fail("listed a leg"))
        try:
            with pytest.raises(VerificationError, match=message):
                engine._morse_reach(orders, 2)
            assert engine._morse_reach(orders, 1) == ()
            for compute, n, reps in cases:
                with pytest.raises(VerificationError, match=message):
                    compute(M, n, resolution="bar", want_representatives=reps)
        finally:
            real.cache_clear()
            engine._morse_reach.cache_clear()


@pytest.mark.parametrize("orders", verify._GROUPS, ids=str)
def test_morse_matching_leaves_the_monomial_ranks_critical(orders):
    # the paper's comparison: the matching pairs each cell with one a degree
    # away that pairs back, and the cells left unmatched in degree n number
    # C(n+s-1, s-1), the monomial resolution's rank
    G = GroupSpec(orders)
    s = G.ngens
    for n in (1, 2, 3):
        critical = 0
        for cell in itertools.product(G.nonidentity_elements(), repeat=n):
            partner = engine._morse_partner(orders, cell)
            if partner is None:
                critical += 1
                continue
            assert len(partner) in (n - 1, n + 1), cell
            assert engine._morse_partner(orders, partner) == cell, cell
        assert critical == comb(n + s - 1, s - 1) == make_resolution(G, "minimal").rank(n)


# pivots of the 9 x 3 leg of H^2 over (2, 2) on the bar resolution, each set
# failing one guard; the leg's Morse pivot is {2: 3}, and row 0, of [g|g],
# is {0: 2}
_UNTRUSTED_PIVOTS = {
    "non-unit": {2: 3, 0: 0},
    "reused row": {2: 3, 1: 3},
    "cycle": {2: 3, 1: 1},
}


# what each guard's VerificationError says, after the leg or degree it names
_GUARD_MESSAGES = {
    "non-unit": "the pivot of column 0 is 2, no unit",
    "reused row": "R\\(\\d+\\) needs itself",
    "cycle": "R\\(\\d+\\) needs itself",
    "partition": "no partition",
}


@pytest.mark.parametrize(
    "text", ["trivial", "reduce:4(trivial)", "tensor(reduce:4(trivial),trivial)"]
)
@pytest.mark.parametrize("guard", sorted(_UNTRUSTED_PIVOTS) + ["partition"])
def test_untrusted_pivots_raise_verification_error(monkeypatch, request, guard, text):
    # where the pivots of leg 2 fail a guard, every call that builds them
    # raises VerificationError, naming the group and the degree, and lists
    # no leg in their place.  These are a Smith diagonal of leg 2 (H^2, H_1
    # over a lattice or a reduction, and H_2 over a reduction, which reads
    # leg 2 as its outgoing map) and the Morse complex of H^1 and H^2, with
    # or without representatives.  The Morse complex of H^3 reads leg 2's
    # module-free guards alone and no pivot, so it gives the same answer;
    # so do the calls that list dual legs (homology with representatives or
    # on the congruence route) and invariants-only H_2 over Z, which reads
    # leg 3 alone.  With "partition" the pivots are trusted, but the
    # critical cells of degree 2 take in a cell matched downward, so every
    # table from (orders, 3) up fails the partition guard of degree 2, and
    # every case below that reads a leg off the Morse complex raises: all
    # but homology on the congruence route
    M = parse_module(text, G22)
    lifts = not M.modulus or M.lifts_to_lattice
    if guard == "partition":
        cases = [(ordinary_cohomology, 2, False)] + [(homology, n, False) for n in (1, 2)]
        if not lifts:
            cases.append((ordinary_cohomology, 1, False))
        raises = {case for case in cases if lifts or case[0] is ordinary_cohomology}
    else:
        cases = [(ordinary_cohomology, 2, False)]
        cases += [(ordinary_cohomology, n, True) for n in (1, 2, 3)]
        cases += [(homology, n, reps) for n in (1, 2) for reps in (False, True)]
        if not lifts:
            cases += [(ordinary_cohomology, n, False) for n in (1, 3)]
        # the cases that build leg 2's pivots
        raises = {(ordinary_cohomology, n, reps) for n, reps in ((2, False), (1, True), (2, True))}
        raises.add((homology, 1, False) if lifts else (ordinary_cohomology, 1, False))
        if M.modulus and lifts:
            raises.add((homology, 2, False))
    # the tables these cases read are built here, from the true cells
    want = {
        (compute, n, reps): compute(M, n, resolution="bar", want_representatives=reps)
        for compute, n, reps in cases
    }
    if guard == "partition":
        real_cells = engine._critical_cells

        def shifted(orders, k):
            cells = real_cells(orders, k)
            return [list(engine._morse_splits(orders, 2)[0][1])] + cells[1:] if k == 2 else cells

        monkeypatch.setattr(engine, "_critical_cells", shifted)
        # the tables hold the guard's verdict: rebuild them on the shifted
        # cells now, and on the true ones after the test
        _clear_bar_tables()
        request.addfinalizer(_clear_bar_tables)
        message = "Morse cells of degree 2 over \\(2, 2\\): " + _GUARD_MESSAGES[guard]
    else:
        pivots, rows = _UNTRUSTED_PIVOTS[guard], list(engine._leg_rows(M, "bar", 2))
        untrusted = pivots, {r: rows[r] for r in pivots.values()}
        real = engine._bar_pivots
        monkeypatch.setattr(
            engine,
            "_bar_pivots",
            lambda M, m, tables, pairs: untrusted if m == 2 else real(M, m, tables, pairs),
        )
        message = "Morse pivots leaving degree 2 over \\(2, 2\\): " + _GUARD_MESSAGES[guard]
    listed = []
    real_rows = engine._leg_rows
    monkeypatch.setattr(
        engine,
        "_leg_rows",
        lambda M, res, m, dual=False, *rest: (
            listed.append((m, dual)) or real_rows(M, res, m, dual, *rest)
        ),
    )
    for (compute, n, reps), w in want.items():
        listed.clear()
        case = (compute.__name__, n, reps)
        if (compute, n, reps) in raises:
            with pytest.raises(VerificationError, match=message):
                compute(M, n, resolution="bar", want_representatives=reps)
            assert listed == [], case
            continue
        got = compute(M, n, resolution="bar", want_representatives=reps)
        assert got.route == w.route and got.invariants == w.invariants, case
        assert all(dual for _, dual in listed), case
        if reps:
            assert got.class_group_generated_by(got.representatives) == got.invariants
    assert raises <= set(want)


def test_trusted_pivots_never_search_a_transpose(monkeypatch):
    # every Smith diagonal of a standard-resolution leg takes its pivots and
    # reads the leg off the Morse complex, listing none of its rows: the
    # only transposes searched are critical complements, of at most 10 rows
    # where the leg has 225 or 3375; the oracle cells of the benchmark's
    # largest group, both routes, plain and dual legs
    searched = []
    real_columns = engine._columns

    def recorded(rows, width):
        rows = list(rows)
        searched.append(len(rows))
        return real_columns(rows, width)

    monkeypatch.setattr(engine, "_columns", recorded)
    monkeypatch.setattr(engine, "_leg_rows", lambda *a, **k: pytest.fail("listed a leg"))
    G = GroupSpec.of(2, 2, 4)
    for text, n in (("trivial", 3), ("reduce:4(trivial)", 2)):
        M = parse_module(text, G)
        for compute, k in ((ordinary_cohomology, n), (homology, 2)):
            r = compute(M, k, resolution="bar")
            assert r.route in ("cokernel-torsion", "universal-coefficients")
    assert searched and max(searched) <= 10, searched


@pytest.mark.parametrize("orders", [(2, 2), (4,), (3, 3)], ids=str)
def test_no_plain_standard_resolution_leg_is_listed(monkeypatch, orders):
    # ordinary cohomology on the standard resolution, every route, reads
    # its legs off the Morse complex alone, and so does every Smith
    # diagonal, homology's dual legs included: no call lists a plain leg,
    # and each agrees with the minimal resolution.  Only homology's
    # quotients list legs, dual ones
    real_rows = engine._leg_rows

    def refuse_plain(M, resolution, m, dual=False, *rest):
        if resolution == "bar" and not dual:
            pytest.fail(f"listed the plain standard-resolution leg leaving degree {m}")
        return real_rows(M, resolution, m, dual, *rest)

    G = GroupSpec(orders)
    N = G.order
    computes = (ordinary_cohomology, homology)
    for text in ["trivial", f"reduce:{N}(trivial)", f"tensor(reduce:{N}(trivial),trivial)"]:
        M = parse_module(text, G)
        for compute, n, reps in itertools.product(computes, range(3), (False, True)):
            want = compute(M, n, want_representatives=reps).invariants
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_leg_rows", refuse_plain)
                got = compute(M, n, resolution="bar", want_representatives=reps)
            assert got.invariants == want, (text, compute.__name__, n, reps)


@pytest.mark.parametrize("text", ["trivial", "trivial:2"])
def test_a_killed_smith_cell_reads_its_incoming_leg_alone(monkeypatch, text):
    # over Z with both maps |G| kills H, so a Smith cell reads d_in alone,
    # leg n for H^n and leg n + 1 for H_n: every row it builds, pivot or
    # critical, is one of that leg's (_cell_rows and _morse_leg never meet
    # another degree, leg n + 1 of H^n in particular), and no run is read
    degrees = []
    real_rows, real_leg = engine._cell_rows, engine._morse_leg
    monkeypatch.setattr(
        engine, "_cell_rows", lambda M, m, *rest: degrees.append(m) or real_rows(M, m, *rest)
    )
    monkeypatch.setattr(
        engine, "_morse_leg", lambda M, m, *rest: degrees.append(m) or real_leg(M, m, *rest)
    )
    monkeypatch.setattr(engine, "_bar_values", lambda *a, **k: pytest.fail("read a run"))
    cases = [(ordinary_cohomology, n, n) for n in (1, 2, 3)]
    cases += [(homology, n, n + 1) for n in (1, 2)]
    for orders in ((2, 2), (2, 4), (3, 3)):
        M = parse_module(text, GroupSpec(orders))
        for compute, n, leg in cases:
            degrees.clear()
            r = compute(M, n, resolution="bar", want_representatives=False)
            assert r.route == "cokernel-torsion", (orders, n)
            assert degrees and set(degrees) == {leg}, (orders, compute.__name__, n, degrees)
            assert r.invariants == compute(M, n, want_representatives=False).invariants


def test_smith_route_fits_the_default_caps(monkeypatch):
    # under the default caps the (2,2,4) legs leaving degree 3 take the
    # Smith route, trivial H^3 and H_2 alike, and agree with the monomial
    # resolution; a reduction's H^3 still prices its outgoing map dense and
    # is refused before any leg is read or table filled (the oracle keeps
    # reporting it CAPPED); and a lower cell cap refuses the image of H^3
    # itself
    G = GroupSpec.of(2, 2, 4)
    Z = trivial_module(G)
    for compute, n in ((ordinary_cohomology, 3), (homology, 2)):
        r = compute(Z, n, resolution="bar", want_representatives=False)
        assert r.route == "cokernel-torsion"
        assert r.invariants == compute(Z, n, want_representatives=False).invariants
    assert ordinary_cohomology(Z, 3, resolution="bar").invariant_factors() == [2, 2, 2]
    engine._morse_splits.cache_clear()
    with pytest.raises(
        ResourceCapExceeded, match="universal-coefficients outgoing map needs a 50625 x 3375"
    ):
        ordinary_cohomology(parse_module("reduce:4(trivial)", G), 3, resolution="bar")
    assert not any(_was_tabled((2, 2, 4), m) for m in range(1, 5))
    monkeypatch.setenv("COHOMOLAB_MAX_CELLS", "100000")
    with pytest.raises(ResourceCapExceeded, match="cokernel-torsion image needs a 3375 x 225"):
        ordinary_cohomology(Z, 3, resolution="bar", want_representatives=False)


# finite modules that do not lift to a lattice, with the degrees they are
# read in: invariants only, they take the congruence route
_CONGRUENCE_CELLS = [
    ((2, 4), "tensor(reduce:4(trivial),trivial)", range(4)),
    ((3, 3), "tensor(reduce:3(cyclo:3:1:1,0),trivial)", range(3)),
]


def test_invariants_only_congruence_reads_the_morse_complex(monkeypatch):
    # ordinary cohomology on the standard resolution with coefficients that
    # are not a reduction L/NL reads the Morse complex without
    # representatives too, listing no leg, and agrees with the monomial
    # resolution and with the call that wants representatives
    real_rows = engine._leg_rows

    def refuse_bar(M, resolution, *args, **kwargs):
        if resolution == "bar":
            pytest.fail("listed a standard-resolution leg")
        return real_rows(M, resolution, *args, **kwargs)

    for orders, text, degrees in _CONGRUENCE_CELLS:
        M = parse_module(text, GroupSpec(orders))
        assert not M.lifts_to_lattice, text
        for n in degrees:
            want = ordinary_cohomology(M, n, want_representatives=False).invariants
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_leg_rows", refuse_bar)
                got = ordinary_cohomology(M, n, resolution="bar", want_representatives=False)
                reps = ordinary_cohomology(M, n, resolution="bar", want_representatives=True)
            assert got.route == reps.route == "congruence", (text, n)
            assert got.invariants == reps.invariants == want, (text, n)
    # the caps still bind first: the outgoing map's dense estimate refuses
    # H^3 over (2,2,4) before any Morse leg is priced or tabled
    M = parse_module("tensor(reduce:4(trivial),trivial)", GroupSpec.of(2, 2, 4))
    engine._morse_splits.cache_clear()
    with pytest.raises(ResourceCapExceeded, match="congruence outgoing map needs a 50625 x 3375"):
        ordinary_cohomology(M, 3, resolution="bar", want_representatives=False)
    assert not any(_was_tabled((2, 2, 4), m) for m in range(1, 5))


def _agree_up_to_cell_signs(got, want, d, mod):
    """Whether two maps, as {column: value} rows over d coordinates
    per cell, agree mod N with ``mod`` up to one sign per row cell and one
    per column cell: block (i, j) of ``got`` is e_i f_j times block (i, j)
    of ``want``, for signs e and f that every block pins alike."""
    N = mod or 0

    def blocks(rows, sign=1):
        out = {}
        for r, row in enumerate(rows):
            for k, x in row.items():
                blk = out.setdefault((r // d, k // d), {})
                blk[r % d, k % d] = blk.get((r % d, k % d), 0) + sign * x
        return {key: {u: y for u, x in blk.items() if (y := x % N if N else x)}
                for key, blk in out.items()}

    plus, minus, mine = blocks(want), blocks(want, -1), blocks(got)
    links = {}  # cell -> [(cell, whether the two signs differ)]
    for i, j in set(mine) | set(plus):
        a, b, c = mine.get((i, j), {}), plus.get((i, j), {}), minus.get((i, j), {})
        if a != b and a != c:
            return False
        if b != c:  # the block pins the sign e_i f_j
            links.setdefault(("row", i), []).append((("col", j), a == c))
            links.setdefault(("col", j), []).append((("row", i), a == c))
    flip = {}
    for start in links:
        if start in flip:
            continue
        flip[start], todo = False, [start]
        while todo:
            cell = todo.pop()
            for other, odd in links[cell]:
                if other not in flip:
                    flip[other] = flip[cell] ^ odd
                    todo.append(other)
                elif flip[other] != flip[cell] ^ odd:
                    return False
    return True


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(_BAR_ROW_GROUPS), st.data(), st.integers(1, 3), st.booleans())
def test_critical_complement_is_the_monomial_leg_up_to_cell_signs(
    row_modules, orders, data, m, dual
):
    # the monomial resolution is the Morse complex of the standard one,
    # entry for entry: the Schur complement of a leg's Morse pivots at its
    # critical rows and columns is the monomial leg of the same degree, in
    # the plain shape, up to one sign per cell; over Z and mod N in
    # {2, 4, 6} for a lattice, mod its own N for a finite module.  The
    # critical cells are the ones _morse_partner leaves unmatched, and the
    # i-th has the letters per generator of the i-th monomial
    G = GroupSpec(orders)
    letter = {e: i for e, g in enumerate(G.nonidentity_elements()) for i, x in enumerate(g) if x}
    for k in (m - 1, m):
        cells = engine._critical_cells(orders, k)
        unmatched = [
            [G.nonidentity_elements().index(g) for g in cell]
            for cell in itertools.product(G.nonidentity_elements(), repeat=k)
            if engine._morse_partner(orders, cell) is None
        ]
        assert sorted(cells) == sorted(unmatched)
        counts = [tuple(sum(letter[e] == i for e in c) for i in range(G.ngens)) for c in cells]
        assert counts == resolutions.monomial_basis(G.ngens, k)
    text = data.draw(st.sampled_from(row_modules[orders]))
    M = parse_module(text, G)
    d = M.rank
    mono = list(engine._leg_rows(M, "minimal", m, dual))
    if dual:  # transposed into the plain shape
        mono = _columns(mono, d * comb(m + G.ngens - 1, m))
    mods = [M.modulus] if M.modulus else [None, data.draw(st.sampled_from((2, 4, 6)))]
    tables = engine._bar_tables(M, dual)
    for mod in mods:
        leg = engine._morse_leg(M, m, tables, None, mod, False)
        _, got = engine._morse_complement(M, m, tables, leg, mod)
        assert len(got) == len(mono)
        assert _agree_up_to_cell_signs(got, mono, d, mod), (text, m, dual, mod)


@pytest.mark.parametrize("orders", [(2, 2), (4,), (3, 3)], ids=str)
def test_bar_residues_are_canonical_under_coboundaries(orders):
    # representatives on the Morse complex, kernel and congruence routes:
    # adding a random coboundary, leg n of a random degree-(n - 1) cochain,
    # to each one moves neither its canonical residue nor its coordinates
    rng = random.Random(26)
    G = GroupSpec.of(*orders)
    routes = set()
    for text in _oracle_modules(orders):
        M = parse_module(text, G)
        for n in range(3):
            r = ordinary_cohomology(M, n, resolution="bar", want_representatives=True)
            routes.add(r.route)
            width = M.rank * (G.order - 1) ** (n - 1) if n else 0
            for rep in r.representatives:
                flat = rep.flat()
                if n:
                    y = [rng.randint(-3, 3) for _ in range(width)]
                    flat = [a + b for a, b in zip(flat, _apply(M, _leg_rows(M, "bar", n), y))]
                moved = Cochain.from_flat(n, flat, r._count, r._rank)
                assert r.reduce_cocycle(moved) == r.reduce_cocycle(rep) == rep, (text, n)
                assert r.class_coordinates(moved) == r.class_coordinates(rep), (text, n)
            assert r.class_group_generated_by(r.representatives) == r.invariants
    assert routes == {"kernel", "congruence"}


def test_bar_representatives_stay_on_the_critical_coordinates(monkeypatch):
    # with representatives no plain standard-resolution leg is listed, and
    # the image, the saturation, the kernel and the presentation are all
    # taken on the d * C(n+s-1, s-1) critical coordinates of degree n
    sizes = []

    def recorded(name, size):
        real = getattr(engine, name)

        def call(*args, **kwargs):
            args = [list(a) if isinstance(a, Iterator) else a for a in args]
            sizes.append(size(*args))
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, name, call)

    recorded("_columns", lambda rows, width: len(rows))
    recorded("saturation_columns", lambda cols: 1 + max((k for c in cols for k in c), default=-1))
    recorded("kernel_columns", lambda rows, n, *rest: n)
    recorded("quotient_presentation", lambda basis, relations, dim, *rest: dim)
    monkeypatch.setattr(engine, "_leg_rows", lambda *a, **k: pytest.fail("listed a leg"))
    for orders in [(2, 2), (4,), (2, 4), (3, 3)]:
        G = GroupSpec.of(*orders)
        for text in _oracle_modules(orders):
            M = parse_module(text, G)
            for n in range(3):
                sizes.clear()
                r = ordinary_cohomology(M, n, resolution="bar", want_representatives=True)
                critical = M.rank * comb(n + G.ngens - 1, n)
                assert sizes and max(sizes) <= critical, (orders, text, n, sizes)
                assert r.class_group_generated_by(r.representatives) == r.invariants


@pytest.mark.parametrize(
    "orders, text",
    [((9,), "cyclo:3:1:1"), ((2, 2, 4), "cyclo:2:2:0,0,1"), ((2, 2, 4), "star(cyclo:2:2:0,0,1)")],
)
def test_benchmark_excluded_representative_cells(orders, text):
    # the benchmark's KNOWN_EXCLUDED still calls these minutes long; on the
    # Morse complex each takes milliseconds and agrees with the monomial side
    M = parse_module(text, GroupSpec.of(*orders))
    r = ordinary_cohomology(M, 2, resolution="bar", want_representatives=True)
    assert r.invariants == ordinary_cohomology(M, 2, want_representatives=False).invariants
    assert r.class_group_generated_by(r.representatives) == r.invariants


_SIGMA_ROW_GROUPS = [(2,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 3)]


@pytest.mark.parametrize("orders", _SIGMA_ROW_GROUPS, ids=str)
def test_sigma_rows_equal_the_ring_matrix_rows(row_modules, orders):
    # the comparison map's rows against blocks of act() over the sigma
    # RingMatrix, as lists: entry order included
    G = GroupSpec(orders)
    for text in row_modules[orders]:
        M = parse_module(text, G)
        for m in (0, 1, 2):
            got = [list(row.items()) for row in engine._sigma_rows(M, m)]
            assert got == list(hom_constraint_rows(M, sigma(G, m))), (text, m)


def test_bar_rows_merge_first_and_last_face():
    # over C3 = {1, g, g^2}: [g|g] meets [g] through act(g + 1) and [g^2]
    # through -I; act(g + 1) = 2 vanishes mod 2, and -1 reads 1 there
    G = GroupSpec.of(3)
    Z = trivial_module(G)
    assert list(engine._leg_rows(Z, "bar", 1)) == [{}, {}]
    assert list(list(engine._leg_rows(Z, "bar", 2))[0].items()) == [(0, 2), (1, -1)]
    Z2 = parse_module("reduce:2(trivial)", G)
    assert list(engine._leg_rows(Z2, "bar", 2))[0] == {1: 1}


def test_ordinary_rejects_negative_degree_and_window():
    Z = trivial_module(G22)
    with pytest.raises(ValueError):
        ordinary_cohomology(Z, -1)
    with pytest.raises(ValueError):
        ordinary_cohomology(Z, 7)


def test_group_order_cap():
    # a cap, like the cell cap, so the CLI exits 3 on every verb
    G = GroupSpec.of(4, 4, 4)
    with pytest.raises(ResourceCapExceeded, match="group order 64 exceeds"):
        ordinary_cohomology(trivial_module(G), 1)
    with pytest.raises(ResourceCapExceeded, match="group order 64 exceeds"):
        is_cocycle_1(trivial_module(G), Cochain(1, ((0,), (0,), (0,))))


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
        # a direct sum of f copies, f the rank of the other free factor
        parts = [tate_cohomology(M1, n).invariants] * f2 + [tate_cohomology(M2, n).invariants] * f1
        diag = [t for inv in parts for t in inv.torsion]
        assert whole == AbelianInvariants.from_diagonal(diag, sum(inv.free_rank for inv in parts)), n


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
    # the dual standard-resolution legs, listed: invariants against the
    # monomial side, and representatives that generate H and vanish on the
    # reference's antipode-transposed bar_diff
    for orders in [(2,), (4,), (2, 2), (3, 3), (2, 3)]:
        G = GroupSpec.of(*orders)
        for text in _oracle_modules(orders):
            M = parse_module(text, G)
            for n in range(3):
                a = homology(M, n, resolution="minimal").invariants
                b = homology(M, n, resolution="bar").invariants
                assert a == b, (orders, text, n)
                r = homology(M, n, resolution="bar", want_representatives=True)
                assert r.invariants == a, (orders, text, n)
                assert r.class_group_generated_by(r.representatives) == a, (orders, text, n)
                if n:
                    D = resolutions.bar_diff(G, n).antipode_transpose()
                    rows = list(map(dict, hom_constraint_rows(M, D)))
                    for rep in r.representatives:
                        assert not any(_apply(M, rows, rep.flat())), (orders, text, n)


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


@pytest.mark.parametrize("text", ["dualD(trivial)", "dualD(cyclo:2:1:1,0)"])
def test_ordinary_dual_shift_runs_on_the_requested_resolution(text):
    # H^n(dualD(L)) is H^(n+1)(L*) on the resolution asked for, and reports
    # it; on the bar resolution degree 3 needs the degree-5 differential
    M = parse_module(text, G22)
    for n in (1, 2):
        minimal = ordinary_cohomology(M, n)
        bar = ordinary_cohomology(M, n, resolution="bar")
        assert (minimal.resolution, bar.resolution) == ("minimal", "bar"), n
        assert bar.route == minimal.route == "dual-shift", n
        assert bar.invariants == minimal.invariants == dual_tate(M.inner, n).invariants, n
    with pytest.raises(ResourceCapExceeded, match="standard-resolution degree 5"):
        ordinary_cohomology(M, 3, resolution="bar")
    # degree 0 is not finite, and a negative degree is no ordinary degree
    for n, message in ((0, "not finite"), (-1, "degrees >= 0")):
        for resolution in ("minimal", "bar"):
            with pytest.raises(ValueError, match=message):
                ordinary_cohomology(M, n, resolution=resolution)


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
            if M.modulus:
                # a lift shifted by N*Z^dim reduces into [0, N) all the same
                N = M.modulus
                lifted = [x - N * rng.randint(-9, 9) for x in rep.flat()]
                lifted = Cochain.from_flat(2, lifted, count, rank)
                assert r.reduce_cocycle(lifted) == r.reduce_cocycle(rep) == rep


@pytest.mark.parametrize(
    "values",
    [
        ((1,), (0,), (0,), (5,)),  # one value too many
        ((1,), (0,)),  # one too few
        ((1, 0), (0, 0), (0, 0)),  # too wide
    ],
)
def test_result_methods_reject_cochains_of_the_wrong_shape(values):
    r = ordinary_cohomology(trivial_module(G22), 2, want_representatives=True)
    assert r._count == 3 and r._rank == 1
    for c in (Cochain(2, values), Cochain(1, ((1,), (0,), (0,)))):
        with pytest.raises(ValueError, match="degree-2 cochain of 3 value vectors of width 1"):
            r.reduce_cocycle(c)
        with pytest.raises(ValueError, match="degree-2 cochain of 3 value vectors of width 1"):
            r.class_coordinates(c)
        with pytest.raises(ValueError, match="degree-2 cochain of 3 value vectors of width 1"):
            r.class_group_generated_by([c])


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


@pytest.mark.parametrize(
    "text, resolution",
    [
        ("trivial", "minimal"),
        ("reduce:4(trivial)", "minimal"),
        ("trivial", "bar"),
        ("reduce:4(trivial)", "bar"),
    ],
    ids=["trivial", "reduce:4(trivial)", "bar-trivial", "bar-reduce:4(trivial)"],
)
def test_representative_checker_rejects_a_non_cocycle(monkeypatch, text, resolution):
    # kernel and congruence routes: a residue moved off the cocycles raises,
    # on the standard resolution from its runs (after the saturation over
    # Z, after the kernel of the streamed rows mod 4)
    real = engine.QuotientPresentation.residue
    monkeypatch.setattr(
        engine.QuotientPresentation, "residue", lambda self, v: [x + 1 for x in real(self, v)]
    )
    with pytest.raises(VerificationError):
        ordinary_cohomology(
            parse_module(text, G22), 2, resolution=resolution, want_representatives=True
        )


def _times_three(pres):
    pres.diagonal = [3 * d for d in pres.diagonal]
    return pres


@pytest.mark.parametrize(
    "route, name, corrupt, saturate",
    [
        ("cokernel-torsion", "smith_diagonal", lambda out: [3 * d for d in out], True),
        ("kernel", "saturation_presentation", _times_three, True),
        ("kernel", "quotient_presentation", _times_three, False),
    ],
    ids=["smith", "saturation", "fallback"],
)
@pytest.mark.parametrize("compute, n", [(ordinary_cohomology, 2), (tate_cohomology, -2)])
def test_a_group_not_killed_by_the_order_raises(
    monkeypatch, compute, n, route, name, corrupt, saturate
):
    # H^2(C2 x C2, Z) and its Tate degree -2 are (Z/2)^2, killed by |G| = 4;
    # each route's diagonal, every entry times 3, must not pass
    real = getattr(engine, name)
    monkeypatch.setattr(engine, name, lambda *a, **k: corrupt(real(*a, **k)))
    if not saturate:
        monkeypatch.setattr(engine, "saturation_columns", lambda cols: None)
    with pytest.raises(VerificationError, match="not killed by"):
        compute(trivial_module(G22), n, want_representatives=route == "kernel")


def test_kernel_route_never_eliminates_the_outgoing_map(monkeypatch):
    # H is killed by |G| at bar n=3, so ker d_out is the saturation of the
    # image; the 2401 x 343 outgoing map only checks the representatives
    calls = []
    real = engine.kernel_columns
    monkeypatch.setattr(
        engine, "kernel_columns", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    M = parse_module("cyclo:2:1:1,1,1", GroupSpec.of(2, 2, 2))
    r = ordinary_cohomology(M, 3, resolution="bar", want_representatives=True)
    assert calls == []
    assert r.route == "kernel" and r.invariants == ordinary_cohomology(M, 3).invariants
    assert r.class_group_generated_by(r.representatives) == r.invariants


def test_a_residual_falls_back_to_the_kernel_of_the_outgoing_map(monkeypatch):
    # the Tate degree-2 image of cyclo:3:1:0,1 over (2,6) leaves a residual:
    # the kernel is then kernel_columns' answer on d_out, the degree-3 leg
    seen, kernels = [], []
    real_sat, real_ker = engine.saturation_columns, engine.kernel_columns
    monkeypatch.setattr(
        engine, "saturation_columns", lambda *a: seen.append(real_sat(*a)) or seen[-1]
    )
    monkeypatch.setattr(
        engine, "kernel_columns", lambda *a, **k: kernels.append(real_ker(*a, **k)) or kernels[-1]
    )
    M = parse_module("cyclo:3:1:0,1", GroupSpec.of(2, 6))
    r = tate_cohomology(M, 2, want_representatives=True)
    dim = M.rank * 3
    assert seen == [None]
    assert kernels == [real_ker(engine._leg_rows(M, "minimal", 3), dim)]
    assert _densify(r._presentation._basis, dim) == column_hnf(kernels[0], dim)
    assert r.class_group_generated_by(r.representatives) == r.invariants


_SATURATION_GROUPS = [(2,), (3,), (4,), (2, 2), (2, 4), (3, 3)]
_SATURATION_CALLS = [
    (compute, n, {"resolution": res})
    for compute in (ordinary_cohomology, homology)
    for n in (1, 2)
    for res in ("minimal", "bar")
] + [(tate_cohomology, n, {}) for n in (-2, 0, 2)]


@pytest.mark.parametrize("orders", _SATURATION_GROUPS, ids=str)
def test_saturation_and_kernel_give_the_same_presentation(monkeypatch, orders):
    # the saturation of the image and the kernel of d_out are one lattice:
    # read off the saturation's pivots or through both Hermite bases, the
    # group is the same, and each route's representatives generate it in
    # the other route's coordinates
    G = GroupSpec.of(*orders)
    found = []
    real = engine.saturation_columns
    monkeypatch.setattr(engine, "saturation_columns", lambda *a: found.append(real(*a)) or found[-1])
    for text in _oracle_modules(orders):
        M = parse_module(text, G)
        if not M.is_lattice:
            continue
        for compute, n, kw in _SATURATION_CALLS:
            a = compute(M, n, want_representatives=True, **kw)
            with monkeypatch.context() as m:
                m.setattr(engine, "saturation_columns", lambda cols: None)
                b = compute(M, n, want_representatives=True, **kw)
            assert a.invariants == b.invariants, (text, compute.__name__, n, kw)
            for x, y in ((a, b), (b, a)):
                assert y.class_group_generated_by(x.representatives) == y.invariants, (
                    text, compute.__name__, n, kw
                )
    # every call took the saturation, or the comparison is empty
    assert found and None not in found


def test_killed_calls_read_the_saturation_pivots(monkeypatch):
    # where |G| kills H the presentation comes off the one sparse
    # elimination that saturates the image, on monomial legs and on the
    # Morse complex alike: no Hermite basis, no dense Smith
    monkeypatch.setattr(
        engine, "quotient_presentation", lambda *a, **k: pytest.fail("quotient_presentation")
    )
    calls = []
    real = intlinalg._sparse_eliminate
    monkeypatch.setattr(intlinalg, "_sparse_eliminate", lambda *a: calls.append(a) or real(*a))
    for orders in _SATURATION_GROUPS:
        G = GroupSpec.of(*orders)
        for text in _lattice_texts(orders):
            M = parse_module(text, G)
            runs = [partial(tate_cohomology, M, n) for n in range(-2, 3)]
            runs += [
                partial(compute, M, n, resolution=res)
                for compute in (ordinary_cohomology, homology)
                for n in (1, 2)
                for res in ("minimal", "bar")
            ]
            for run in runs:
                calls.clear()
                r = run(want_representatives=True)
                assert len(calls) == 1, (orders, text, run)
                assert r.class_group_generated_by(r.representatives) == r.invariants


def test_coprime_gains_merge_into_one_generator(monkeypatch):
    # over C2 x C3 the Tate groups of Z in even degrees are Z/6; in degrees
    # -2 and 2 the saturation's gains 2 and 3 are merged by a Smith form
    # (degree 0 has the norm's one gain 6), so each group has one
    # representative, and it generates
    gains = []
    real = engine.saturation_columns
    monkeypatch.setattr(
        engine, "saturation_columns", lambda *a: gains.append([g for g, _, _ in real(*a)]) or real(*a)
    )
    for n in (-2, 0, 2):
        r = tate_cohomology(trivial_module(G6), n, want_representatives=True)
        assert r.invariant_factors() == [6] and len(r.representatives) == 1, n
        assert r.class_group_generated_by(r.representatives) == r.invariants, n
    assert [sorted(g for g in gs if g > 1) for gs in gains] == [[2, 3], [6], [2, 3]]


def _bits(rows) -> int:
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


def test_presentation_entries_stay_small_on_the_oracle_lattices():
    # the Hermite bases, the transforms and the representatives of every
    # oracle group (orders <= 16) in degrees 1..3 on both resolutions; the
    # bar cells over the cell cap are skipped
    capped = []
    for orders in verify._GROUPS:
        G = GroupSpec.of(*orders)
        for text in _lattice_texts(orders):
            M = parse_module(text, G)
            for resolution in ("minimal", "bar"):
                for n in (1, 2, 3):
                    try:
                        r = ordinary_cohomology(
                            M, n, resolution=resolution, want_representatives=True
                        )
                    except ResourceCapExceeded:
                        capped.append((resolution, n))
                        continue
                    p = r._presentation
                    reps = [v for c in r.representatives for v in c.values]
                    bases = [[c.values() for _, c in b] for b in (p._basis, p._relations)]
                    for rows in (*bases, p.u, p.uinv, reps):
                        assert _bits(rows) <= 8, (orders, text, resolution, n)
    assert set(capped) == {("bar", 3)}


# sha256 over (group, module, degree, route, invariants, representatives) of
# every cell of test_representatives_are_pinned, in order; the killed
# degrees read their representatives off the saturation's pivots
_PINNED_REPRESENTATIVES = "3f116f789d1eb42b1fd42facd5b37462b3f57253a3f41a4e7466554dcbb054a9"


def test_representatives_are_pinned():
    # Tate degrees -6..6 on every oracle lattice of (2,4) and (3,3), 0..6 on
    # reduce:4(trivial): a change to any representative changes the digest
    digest = hashlib.sha256()
    for orders in [(2, 4), (3, 3)]:
        G = GroupSpec.of(*orders)
        for text in _oracle_modules(orders):
            M = parse_module(text, G)
            for n in range(-6 if M.is_lattice else 0, 7):
                r = tate_cohomology(M, n, want_representatives=True)
                reps = tuple(c.values for c in r.representatives)
                inv = r.invariants
                cell = (orders, text, n, r.route, inv.free_rank, inv.torsion, reps)
                digest.update(repr(cell).encode())
    assert digest.hexdigest() == _PINNED_REPRESENTATIVES


def test_bar_representatives_without_coefficient_blowup():
    # the kernel of a 3825 x 450 bar matrix: minutes under a dense gcd
    # echelon of the whole matrix, under a second with sparse elimination
    M = parse_module("cyclo:2:2:1,1", GroupSpec.of(4, 4))
    r = ordinary_cohomology(M, 2, resolution="bar", want_representatives=True)
    assert r.invariants == ordinary_cohomology(M, 2).invariants
    assert r.invariants.as_list() == [2] and r.free_rank == 0
    assert r.class_group_generated_by(r.representatives) == r.invariants


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


def test_cochains_of_the_wrong_width_are_rejected():
    # every value vector is read, so a wider or narrower one is an input
    # error naming the expected shape, not a check of its first coordinates
    Z = trivial_module(G2)
    Z2 = parse_module("trivial:2", G2)
    msg = "degree-{} cochain of 1 value vectors of width {}"
    with pytest.raises(ValueError, match=msg.format(1, 1)):
        is_cocycle_1(Z, Cochain(1, ((0, 5),)))
    with pytest.raises(ValueError, match=msg.format(2, 1)):
        is_cocycle_2(Z, Cochain(2, ((1, 9),)))
    with pytest.raises(ValueError, match=msg.format(2, 1)):
        to_factor_set(Z, Cochain(2, ((1, 9),)))
    with pytest.raises(ValueError, match=msg.format(1, 2)):
        is_cocycle_1(Z2, Cochain(1, ((0,),)))
    with pytest.raises(ValueError, match=msg.format(1, 2)):
        coboundary_1(Z2, Cochain(1, ((0,),)))
    with pytest.raises(ValueError, match=msg.format(1, 1)):
        coboundary_1(Z, Cochain(1, ((0,), (0,))))
    # the right width passes: over C2 the norm 2 is the only obstruction
    assert is_cocycle_1(Z2, Cochain(1, ((0, 0),)))
    assert is_cocycle_1(Z2, Cochain(1, ((0, 1),))).violations == ("x1^2: obstruction (0, 2)",)
    assert coboundary_1(Z2, Cochain(1, ((1, 3),))).values == ((2, 6),)


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


@pytest.mark.parametrize(
    "text, step, holds",
    [("trivial", 1, False), ("reduce:4(trivial)", 1, False), ("reduce:4(trivial)", 4, True)],
)
def test_factor_set_identity_fails_on_a_raised_entry(text, step, holds):
    # f + the indicator of (a, b) is no cocycle: at (a, b, b) the identity
    # reads -1; raised by the modulus, the table is the same mod N
    M = parse_module(text, G22)
    f = to_factor_set(M, Cochain(2, ((1,), (0,), (0,))))
    assert f.cocycle_identity_holds()
    a, b = (1, 0), (0, 1)
    table = dict(f.table)
    table[(a, b)] = (table[(a, b)][0] + step,)
    assert engine.FactorSet(M, table).cocycle_identity_holds() is holds


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda t, p: t.update({p: t[p] + (0,)}), "is not a tuple of 1 ints"),
        (lambda t, p: t.update({k: () for k in t}), "is not a tuple of 1 ints"),
        (lambda t, p: t.update({p: [1]}), "is not a tuple of 1 ints"),
        (lambda t, p: t.update({p: (1.0,)}), "is not a tuple of 1 ints"),
        (lambda t, p: t.pop(p), r"no entry for the pair \(\(1, 0\), \(0, 1\)\)"),
        (lambda t, p: t.update({((2, 0), (0, 1)): (0,)}), "not a pair of elements"),
    ],
    ids=["too-wide", "empty", "list", "float", "missing", "extra"],
)
def test_factor_set_rejects_a_malformed_table(change, message):
    # every pair of G, each with a tuple of rank ints: a wider vector would
    # pass the identity unread, a missing or empty one fail on lookup
    M = trivial_module(G22)
    table = dict(to_factor_set(M, Cochain(2, ((1,), (0,), (0,)))).table)
    change(table, ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match=message):
        engine.FactorSet(M, table)


_IDENTITY_MODULES = {
    (2,): ["trivial", "reduce:4(trivial)", "cyclo:2:1:1"],
    (4,): ["trivial", "reduce:4(trivial)", "star(cyclo:2:2:1)"],
    (2, 2): ["trivial", "reduce:4(trivial)", "tensor(cyclo:2:1:1,0,trivial:2)"],
    (2, 4): ["trivial", "reduce:4(trivial)", "cyclo:2:2:0,1", "star(cyclo:2:2:0,1)"],
    (3, 3): ["trivial", "reduce:4(trivial)", "cyclo:3:1:1,0", "star(cyclo:3:1:1,1)"],
    (2, 2, 2): ["trivial", "reduce:4(trivial)", "cyclo:2:1:1,1,1"],
}
_IDENTITY_CASES: dict = {}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_IDENTITY_MODULES)), st.data())
def test_factor_set_identity_matches_the_triple_loop(orders, data):
    # a cocycle (representatives plus a coboundary) as a factor set, then
    # perhaps one entry raised by 1, by the modulus or by a random amount:
    # the library and the triple-by-triple reference agree on the identity
    G = GroupSpec(orders)
    text = data.draw(st.sampled_from(_IDENTITY_MODULES[orders]))
    key = (orders, text)
    if key not in _IDENTITY_CASES:
        M = parse_module(text, G)
        _IDENTITY_CASES[key] = (M, ordinary_cohomology(M, 2, want_representatives=True))
    M, r = _IDENTITY_CASES[key]
    d, N = M.rank, M.modulus
    size = G.ngens * d
    values = data.draw(st.lists(st.integers(-5, 5), min_size=size, max_size=size))
    xi = Cochain.from_flat(1, values, G.ngens, d)
    flat = coboundary_1(M, xi).flat()
    for rep in r.representatives:
        c = data.draw(st.integers(-3, 3))
        flat = [x + c * y for x, y in zip(flat, rep.flat())]
    gamma = Cochain.from_flat(2, [x % N for x in flat] if N else flat, len(flat) // d, d)
    fs = to_factor_set(M, gamma)
    raise_by = data.draw(st.sampled_from(["none", "one", "modulus", "random"]))
    if raise_by != "none":
        pair = data.draw(st.sampled_from(sorted(fs.table)))
        t = data.draw(st.integers(0, d - 1))
        if raise_by == "random":
            step = data.draw(st.integers(-40, 40))
        else:
            step = 1 if raise_by == "one" else N
        vec = list(fs.table[pair])
        vec[t] += step
        fs = engine.FactorSet(M, {**fs.table, pair: tuple(vec)})
    holds = fs.cocycle_identity_holds()
    assert holds is reference_identity_holds(fs), (text, raise_by)
    assert holds or raise_by != "none"


def test_factor_set_tables_of_the_generator_families_are_pinned():
    # the 42 factor sets of the generator families over these groups, tables
    # and identity flags, as computed before the identity check became
    # vector arithmetic and each comparison-map block was built once
    groups = [(4,), (8,), (9,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (4, 4)]
    cases = ("trivial-H2", "torsion-H2", "cyclo-H2", "dual-cyclo-H2")
    digest = hashlib.sha256()
    count = 0
    for case, orders in itertools.product(cases, groups):
        for member in generator_family(case, GroupSpec(orders)).members:
            fs = to_factor_set(member.module, member.cochain)
            line = f"{case}|{orders}|{member.indices}|{sorted(fs.table.items())}"
            digest.update(f"{line}|{fs.cocycle_identity_holds()}\n".encode())
            count += 1
    assert count == 42
    assert digest.hexdigest() == (
        "8bad5d443c4032bfbe9643b478edbf75a6c322d74db26620f7217694b6e8b030"
    )
