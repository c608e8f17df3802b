"""Coefficient module constructions and the description grammar."""

import random
import time
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import (
    act,
    action_power,
    columns,
    invariants_structure,
    invariants_submodule,
    mul,
    zeros,
)
from cohomolab import verify
from cohomolab.group_ring import GroupSpec, RingElement, full_norm, partial_norm
from cohomolab.intlinalg import AbelianInvariants, IntMatrix
from cohomolab.limits import EngineLimits, ResourceCapExceeded
from cohomolab.modules import (
    CyclotomicSpec,
    DualDivisible,
    GModule,
    coinvariants,
    cyclotomic_module,
    parse_module,
    reduce_mod,
    star_dual,
    tensor_diagonal,
    tensor_outer,
    trivial_module,
    zmod_module,
)


def _cyclo(spec, p, m, exps):
    return cyclotomic_module(CyclotomicSpec(spec, p, m, tuple(exps)))


def test_trivial_module_actions():
    M = trivial_module(GroupSpec.of(2, 2), 1)
    assert M.rank == 1
    assert all(A == IntMatrix.identity(1) for A in M.actions)


def test_act_on_trivial_lattice():
    G = GroupSpec.of(2, 4)
    M = trivial_module(G)
    for i, o in enumerate(G.orders):
        # the full generator sum acts as multiplication by the factor order
        assert act(M, partial_norm(G, i, o)) == IntMatrix.from_rows([[o]])
        gen = RingElement.generator(G, i) - RingElement.one(G)
        assert act(M, gen) == zeros(1, 1)


def test_act_cyclotomic_rank_one():
    G = GroupSpec.of(2)
    M = _cyclo(G, 2, 1, [1])
    gen = RingElement.generator(G, 0) - RingElement.one(G)
    assert act(M, gen) == IntMatrix.from_rows([[-2]])


def test_cyclotomic_companion_p3():
    G = GroupSpec.of(3, 3)
    M = _cyclo(G, 3, 1, [1, 0])
    assert M.rank == 2
    assert M.actions[0] == IntMatrix.from_rows([[0, -1], [1, -1]])
    assert M.actions[1] == IntMatrix.identity(2)


def test_cyclotomic_companion_satisfies_its_polynomial():
    # p=2, m=2: Phi(t) = t^2 + 1, root of order 4
    G = GroupSpec.of(4)
    M = _cyclo(G, 2, 2, [1])
    C = M.actions[0]
    C2 = mul(C, C)
    assert C2 == IntMatrix.from_rows([[-1, 0], [0, -1]])
    assert mul(C2, C2) == IntMatrix.identity(2)


def test_cyclotomic_rejects_trivial_exponents():
    with pytest.raises(ValueError):
        _cyclo(GroupSpec.of(2, 2), 2, 1, [0, 0])


def test_cyclotomic_rejects_incompatible_order():
    # root of order 4 cannot be an action of a generator of order 2
    with pytest.raises(ValueError):
        _cyclo(GroupSpec.of(2), 2, 2, [1])


def test_zmod_module_accepts_valid_action():
    G = GroupSpec.of(2)
    M = zmod_module(G, 4, [IntMatrix.from_rows([[3]])])
    assert M.modulus == 4
    assert act(M, RingElement.generator(G, 0)) == IntMatrix.from_rows([[3]])


def test_zmod_module_rejects_noninvertible_action():
    G = GroupSpec.of(2)
    with pytest.raises(ValueError):
        zmod_module(G, 4, [IntMatrix.from_rows([[2]])])


def test_module_rejects_noncommuting_actions():
    G = GroupSpec.of(2, 2)
    A = IntMatrix.from_rows([[0, 1], [1, 0]])
    B = IntMatrix.from_rows([[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        GModule(G, 2, 0, (A, B))


def test_module_rejects_wrong_order():
    G = GroupSpec.of(3)
    with pytest.raises(ValueError):
        GModule(G, 1, 0, (IntMatrix.from_rows([[-1]]),))


def test_module_validation_is_sparse():
    # order and commutation are checked with sparse products: a dense
    # O(rank^3) check took about 7 s here
    G = GroupSpec.of(2)
    start = time.perf_counter()
    M = parse_module("trivial:300", G)
    assert time.perf_counter() - start < 1.0
    assert M.rank == 300
    # a 300-cycle has order 300, not 2 or 3
    cycle = IntMatrix.from_rows([[int(j == (i + 1) % 300) for j in range(300)] for i in range(300)])
    for orders in ((2,), (3,)):
        with pytest.raises(ValueError, match="order"):
            GModule(GroupSpec.of(*orders), 300, 0, (cycle,))
    assert GModule(GroupSpec.of(300), 300, 0, (cycle,)).rank == 300
    flip = IntMatrix.from_rows([[1, 0], [0, -1]])
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="commute"):
        GModule(GroupSpec.of(2, 2), 2, 0, (flip, swap))
    # mod 2 the two commute (-1 = 1), and mod 3 the order of [[1, 1], [0, 1]] is 3
    assert GModule(GroupSpec.of(2, 2), 2, 2, (flip, swap)).modulus == 2
    shear = IntMatrix.from_rows([[1, 1], [0, 1]])
    assert GModule(GroupSpec.of(3), 2, 3, (shear,)).modulus == 3
    with pytest.raises(ValueError, match="order"):
        GModule(GroupSpec.of(3), 2, 0, (shear,))


def test_relabel_copies_the_validated_module(monkeypatch):
    # every star, reduce:N and tensor text relabels a module it has just
    # built: the copy is not validated again, keeps lifts_to_lattice and
    # gets tables of its own; the star and the reduction are derived from
    # the lattice, so only it is checked; a module built from actions is
    # still checked
    built = []
    real = GModule.__post_init__
    monkeypatch.setattr(GModule, "__post_init__", lambda self: built.append(self.label) or real(self))
    G = GroupSpec.of(4, 2)
    text = "reduce:4(star(cyclo:2:2:1,0))"
    M = parse_module(text, G)
    assert built == ["cyclo:2:2:1,0"]
    M.element_rows((1, 1))
    R = M.relabel("renamed")
    assert len(built) == 1
    assert (R.label, R.actions, R.modulus, R.rank) == ("renamed", M.actions, 4, 2)
    assert R.lifts_to_lattice and M.label == text
    assert R._elements == {} and R.element_rows((1, 1)) == M.element_rows((1, 1))
    assert R._elements is not M._elements and R._blocks is not M._blocks
    with pytest.raises(ValueError, match="order"):
        GModule(G, 2, 4, (IntMatrix.from_rows([[0, 1], [-1, 0]]),) * 2)


@pytest.mark.parametrize("orders", verify._GROUPS, ids=str)
def test_dual_and_reduction_equal_the_validated_construction(orders):
    # star_dual and reduce_mod build their module without the checks; the
    # validating constructor, given the same actions (the dual's from the
    # element table, unreduced for the reduction), accepts them and builds
    # an equal module, while only the reduction lifts to a lattice
    G = GroupSpec.of(*orders)
    for text in verify._oracle_modules(orders):
        L = parse_module(text, G)
        if not L.is_lattice:
            continue
        D = star_dual(L)
        inverses = [action_power(L, i, o - 1).transpose() for i, o in enumerate(G.orders)]
        assert D == GModule(G, L.rank, 0, tuple(inverses), f"star({text})")
        assert not D.lifts_to_lattice and D._elements is not L._elements
        for M in (L, D):
            for N in (2, 4, 6):
                R = reduce_mod(M, N)
                want = GModule(G, M.rank, N, M.actions, f"reduce:{N}({M.label})")
                assert R == want and R.actions == want.actions, (text, N)
                assert R.lifts_to_lattice and not want.lifts_to_lattice
                assert R._elements is not M._elements and R._blocks is not M._blocks


def test_power_table_belongs_to_the_module():
    G = GroupSpec.of(2, 4)
    M = parse_module("cyclo:2:2:0,1", G)
    twin = parse_module("cyclo:2:2:0,1", G)
    action_power(M, 1, 3)
    # the element table is filled per instance, only as far as it is used,
    # and takes no part in equality
    assert M == twin and hash(M) == hash(twin)
    assert sorted(M._elements) == [(0, k) for k in range(4)] and not twin._elements
    assert action_power(twin, 1, 3) == action_power(M, 1, 3)


@lru_cache(maxsize=None)
def _dense_powers(M):
    """Every A_i^k, 0 <= k < o_i, by repeated dense products, mod N after
    each one; computed once per module."""
    table = {}
    for i, o in enumerate(M.spec.orders):
        out = IntMatrix.identity(M.rank)
        for k in range(o):
            table[(i, k)] = out
            out = mul(out, M.actions[i])
            if M.modulus:
                out = out.mod(M.modulus)
    return table


def _dense_power(M, i, k):
    return _dense_powers(M)[(i, k)]


@pytest.mark.parametrize("module", ["lattice", "mod"])
def test_action_power_table_any_call_order(module):
    G = GroupSpec.of(5, 25)
    M = _cyclo(G, 5, 2, [0, 1])
    if module == "mod":
        M = reduce_mod(star_dual(M), 6)
    # generator powers and whole group elements, the identity included,
    # asked for in one shuffled order
    calls = [(k, None) for k in range(-30, 60)] + [(None, g) for g in G.elements()]
    random.Random(3).shuffle(calls)
    for k, g in calls:
        if g is None:
            for i, o in enumerate(G.orders):
                assert action_power(M, i, k) == _dense_power(M, i, k % o)
        else:
            # the stored rows are the reference's nonzero entries, in order
            ref = _act_reference(M, RingElement.of_element(G, g))
            assert M.element_rows(g) == [[(u, a) for u, a in enumerate(r) if a] for r in ref.data]


def _act_reference(M, x):
    """The sum over the support of x of c * prod_i A_i^(g_i), mod N."""
    d = M.rank
    out = [[0] * d for _ in range(d)]
    for g, c in x.items():
        m = IntMatrix.identity(d)
        for i, e in enumerate(g):
            m = mul(m, _dense_power(M, i, e))
        for row, mrow in zip(out, m.data):
            row[:] = [a + c * b for a, b in zip(row, mrow)]
    ref = IntMatrix.from_rows(out, cols=d)
    return ref.mod(M.modulus) if M.modulus else ref


_ACT_MODULES = {
    "cyclo(5,25)": ((5, 25), "cyclo:5:2:0,1"),
    "reduce-star(5,25)": ((5, 25), "reduce:6(star(cyclo:5:2:0,1))"),
    "outer(2,4,8)": ((2, 4, 8), "tensor(cyclo:2:1:1,tensor(cyclo:2:2:1,cyclo:2:3:1))"),
}


@lru_cache(maxsize=None)
def _act_module(name):
    orders, text = _ACT_MODULES[name]
    return parse_module(text, GroupSpec(orders))


@pytest.mark.parametrize("name", sorted(_ACT_MODULES))
def test_act_matches_dense_reference_on_resolution_entries(name):
    M = _act_module(name)
    G = M.spec
    one = RingElement.one(G)
    xs = [RingElement.zero(G), one, -one.scale(3), full_norm(G)]
    for i, o in enumerate(G.orders):
        xs += [partial_norm(G, i, o), RingElement.generator(G, i) - one]
        xs += [-partial_norm(G, i, o), one - RingElement.generator(G, i)]
    for x in xs:
        assert act(M, x) == _act_reference(M, x), x


@pytest.mark.parametrize("name", sorted(_ACT_MODULES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_act_matches_dense_reference_on_shared_tails(name, data):
    # several heads (exponents of generator 0) over one sub-element, others
    # over a multiple of it, plus loose terms: many elements that share
    # their tail exponents, each of which act adds in from the element
    # table with its own coefficient
    M = _act_module(name)
    G = M.spec
    o0, rest = G.orders[0], G.orders[1:]
    head = st.integers(0, o0 - 1)
    tail = st.tuples(*(st.integers(0, o - 1) for o in rest))
    coeff = st.integers(-3, 3).filter(bool)
    sub = data.draw(st.dictionaries(tail, coeff, min_size=1, max_size=3))
    heads = data.draw(st.sets(head, min_size=1, max_size=o0))
    scaled = data.draw(st.sets(head, max_size=o0))
    k = data.draw(st.sampled_from([-2, 2, 3]))
    loose = data.draw(st.lists(st.tuples(head, tail, coeff), max_size=3))
    terms = {}
    for h, t, c in (
        [(h, t, c) for h in heads for t, c in sub.items()]
        + [(h, t, k * c) for h in scaled for t, c in sub.items()]
        + loose
    ):
        terms[(h,) + t] = terms.get((h,) + t, 0) + c
    x = RingElement(G, terms)
    assert act(M, x) == _act_reference(M, x)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_act_is_a_ring_homomorphism(data):
    G = GroupSpec.of(3, 3)
    M = _cyclo(G, 3, 1, [1, 1])
    els = G.elements()
    crafted = st.builds(
        lambda pairs: RingElement(G, dict(pairs)),
        st.lists(st.tuples(st.sampled_from(els), st.integers(-3, 3)), max_size=3),
    )
    x = data.draw(crafted)
    y = data.draw(crafted)
    assert act(M, x * y) == mul(act(M, x), act(M, y))
    assert act(M, x + y).data == tuple(
        tuple(a + b for a, b in zip(ra, rb))
        for ra, rb in zip(act(M, x).data, act(M, y).data)
    )


def test_star_dual_involution_and_examples():
    G = GroupSpec.of(2, 2)
    T = trivial_module(G)
    assert star_dual(T).actions == T.actions

    M = _cyclo(G, 2, 1, [1, 0])
    assert star_dual(M).actions[0] == IntMatrix.from_rows([[-1]])
    assert star_dual(star_dual(M)).actions == M.actions

    G2 = GroupSpec.of(9)
    M2 = _cyclo(G2, 3, 2, [1])
    assert star_dual(star_dual(M2)).actions == M2.actions


def test_star_dual_rejects_finite_modules():
    G = GroupSpec.of(2)
    with pytest.raises(ValueError):
        star_dual(reduce_mod(trivial_module(G), 4))


def test_tensor_with_trivial_is_identity_on_actions():
    G = GroupSpec.of(3, 3)
    M = _cyclo(G, 3, 1, [1, 0])
    T = trivial_module(G, 1)
    assert tensor_diagonal(T, M).actions == M.actions


def test_outer_tensor_example():
    M1 = _cyclo(GroupSpec.of(2), 2, 1, [1])
    M2 = trivial_module(GroupSpec.of(3))
    M = tensor_outer(M1, M2)
    assert M.spec == GroupSpec.of(2, 3)
    assert M.rank == 1
    assert M.actions[0] == IntMatrix.from_rows([[-1]])
    assert M.actions[1] == IntMatrix.from_rows([[1]])


def test_tensor_kronecker_rank():
    G = GroupSpec.of(3)
    M1 = _cyclo(G, 3, 1, [1])
    M2 = trivial_module(G, 3)
    assert tensor_diagonal(M1, M2).rank == 6


def test_tensor_modulus_combination():
    G = GroupSpec.of(2)
    latt = trivial_module(G)
    fin = reduce_mod(trivial_module(G), 4)
    assert tensor_diagonal(latt, fin).modulus == 4
    with pytest.raises(ValueError):
        tensor_diagonal(fin, reduce_mod(trivial_module(G), 3))


def test_invariants_and_coinvariants_trivial():
    M = trivial_module(GroupSpec.of(2, 2), 1)
    assert invariants_submodule(M).cols == 1
    assert coinvariants(M) == AbelianInvariants(1, ())


def test_invariants_and_coinvariants_cyclotomic():
    M = _cyclo(GroupSpec.of(2, 2), 2, 1, [1, 0])
    assert invariants_submodule(M).cols == 0
    assert coinvariants(M) == AbelianInvariants(0, (2,))

    M3 = _cyclo(GroupSpec.of(3), 3, 1, [1])
    assert invariants_submodule(M3).cols == 0
    assert coinvariants(M3) == AbelianInvariants(0, (3,))


def test_invariants_structure_finite():
    G = GroupSpec.of(2)
    M = reduce_mod(trivial_module(G), 4)
    assert invariants_structure(M) == AbelianInvariants(0, (4,))
    Mc = reduce_mod(_cyclo(G, 2, 1, [1]), 4)
    # fixed points of x -> -x on Z/4 are {0, 2}
    assert invariants_structure(Mc) == AbelianInvariants(0, (2,))


def test_reduce_mod_examples():
    G = GroupSpec.of(2)
    R = reduce_mod(trivial_module(G), 4)
    assert R.modulus == 4 and R.rank == 1
    R2 = reduce_mod(_cyclo(G, 2, 1, [1]), 2)
    assert R2.actions[0] == IntMatrix.from_rows([[1]])
    R3 = reduce_mod(_cyclo(GroupSpec.of(9), 3, 2, [1]), 5)
    assert R3.rank == 6


def test_random_modules_roundtrip_invariants():
    # invariants_submodule columns really are fixed by every generator
    G = GroupSpec.of(2, 4)
    mods = [
        trivial_module(G, 2),
        _cyclo(G, 2, 2, [0, 1]),
        _cyclo(G, 2, 1, [1, 1]),
        reduce_mod(_cyclo(G, 2, 2, [2, 1]), 8),
    ]
    for M in mods:
        for v in columns(invariants_submodule(M)):
            for i in range(G.ngens):
                A = M.actions[i]
                w = [sum(A.data[r][c] * v[c] for c in range(M.rank)) for r in range(M.rank)]
                if M.modulus:
                    assert [(a - b) % M.modulus for a, b in zip(w, v)] == [0] * M.rank
                else:
                    assert list(w) == list(v)


# ---------------------------------------------------------------------------
# description grammar


def test_parse_trivial_and_rank():
    G = GroupSpec.of(2, 2)
    assert parse_module("trivial", G).rank == 1
    assert parse_module("trivial:3", G).rank == 3


def test_parse_cyclotomic():
    G = GroupSpec.of(2, 2)
    M = parse_module("cyclo:2:1:1,0", G)
    assert isinstance(M, GModule)
    assert M.rank == 1
    assert M.actions[0] == IntMatrix.from_rows([[-1]])


def test_parse_nested_star_reduce():
    G = GroupSpec.of(4, 2)
    M = parse_module("reduce:4(star(cyclo:2:2:1,0))", G)
    assert isinstance(M, GModule)
    assert M.modulus == 4
    assert M.rank == 2


def test_parse_dual_divisible_marker():
    G = GroupSpec.of(2, 2)
    D = parse_module("dualD(cyclo:2:1:1,0)", G)
    assert isinstance(D, DualDivisible)
    assert D.inner.rank == 1
    with pytest.raises(ValueError):
        parse_module("star(dualD(trivial))", G)


def test_parse_tensor_diagonal_and_outer():
    G = GroupSpec.of(2, 3)
    outer = parse_module("tensor(cyclo:2:1:1,trivial)", G)
    assert isinstance(outer, GModule)
    assert outer.rank == 1
    assert outer.actions[0] == IntMatrix.from_rows([[-1]])
    assert outer.actions[1] == IntMatrix.from_rows([[1]])

    G2 = GroupSpec.of(3, 3)
    diag = parse_module("tensor(cyclo:3:1:1,0,trivial:2)", G2)
    assert isinstance(diag, GModule)
    assert diag.rank == 4


def test_parse_zmod_file(tmp_path):
    f = tmp_path / "acts.txt"
    f.write_text("3\n\n1\n")
    G = GroupSpec.of(2, 2)
    M = parse_module(f"zmod:4:@{f}", G)
    assert isinstance(M, GModule)
    assert M.modulus == 4
    assert M.actions[0] == IntMatrix.from_rows([[3]])
    assert M.actions[1] == IntMatrix.from_rows([[1]])


def test_parse_errors():
    G = GroupSpec.of(2)
    for bad in ["nonsense", "trivial:x", "cyclo:2:1", "zmod:4", "tensor(trivial)"]:
        with pytest.raises(ValueError):
            parse_module(bad, G)


def test_parse_caps_module_rank_before_building():
    G = GroupSpec.of(2)
    small = EngineLimits(max_cells=100)
    assert parse_module("trivial:10", G, small).rank == 10
    assert parse_module("tensor(trivial:2,trivial:5)", G, small).rank == 10
    for text, rank in [
        ("trivial:11", 11),
        ("cyclo:11:1:1", 10),  # capped before its action is found invalid
        ("tensor(trivial:3,trivial:4)", 12),
        ("star(trivial:11)", 11),
    ]:
        limits = EngineLimits(max_cells=(rank - 1) ** 2)
        with pytest.raises(ResourceCapExceeded):
            parse_module(text, G, limits)
    with pytest.raises(ResourceCapExceeded):
        parse_module("cyclo:3:10000000000000:1", G, small)


def test_cyclotomic_primality_by_trial_division():
    G = GroupSpec.of(1009)
    assert CyclotomicSpec(G, 1009, 1, (1,)).p == 1009
    for composite in (4, 9, 25, 1007, 1021 * 1031):
        with pytest.raises(ValueError, match="prime"):
            CyclotomicSpec(G, composite, 1, (1,))
    for prime in (2, 3, 5, 1021):
        assert CyclotomicSpec(G, prime, 1, (1,)).p == prime


def test_cyclotomic_primality_is_decided_at_once():
    # Miller-Rabin, as for the closed forms: the Mersenne prime 2**61 - 1
    # is accepted in well under a second, and a Carmichael number and a
    # strong pseudoprime to the bases 2, 3, 5 and 7 are refused
    G = GroupSpec.of(2)
    start = time.perf_counter()
    assert CyclotomicSpec(G, 2**61 - 1, 1, (1,)).p == 2**61 - 1
    assert time.perf_counter() - start < 1
    for composite in (561, 3215031751):
        with pytest.raises(ValueError, match=f"p must be prime: {composite} is not prime"):
            CyclotomicSpec(G, composite, 1, (1,))
