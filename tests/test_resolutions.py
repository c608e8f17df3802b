"""Resolution differentials, the comparison chain map, and Tate splicing."""

import pytest

from _reference import sigma
from cohomolab.group_ring import GroupSpec, RingElement, RingMatrix, full_norm, partial_norm
from cohomolab.limits import EngineLimits, ResourceCapExceeded
from cohomolab.resolutions import (
    BarResolution,
    MinimalResolution,
    bar_basis,
    bar_diff,
    complete_diff,
    complete_rank,
    make_resolution,
    minimal_diff,
    monomial_basis,
)

TEST_GROUPS = [(2,), (4,), (2, 2), (2, 4), (3, 3), (2, 2, 2), (2, 2, 4), (2, 3)]


def test_monomial_basis_examples():
    assert monomial_basis(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomial_basis(3, 0) == [(0, 0, 0)]
    assert len(monomial_basis(3, 3)) == 10
    b = monomial_basis(4, 5)
    assert len(b) == len(set(b))
    assert all(sum(m) == 5 for m in b)
    assert b == sorted(b, reverse=True)


def test_minimal_diff_degree_one():
    G = GroupSpec.of(2, 4)
    d1 = minimal_diff(G, 1)
    assert d1.rows == 1 and d1.cols == 2
    one = RingElement.one(G)
    assert d1.entry(0, 0) == RingElement.generator(G, 0) - one
    assert d1.entry(0, 1) == RingElement.generator(G, 1) - one


def test_minimal_diff_degree_two_signs():
    G = GroupSpec.of(2, 4)
    d2 = minimal_diff(G, 2)
    one = RingElement.one(G)
    # basis x1^2, x1 x2, x2^2 -> x1, x2
    assert d2.entry(0, 0) == partial_norm(G, 0, 2)  # x1^2 -> norm * x1
    assert d2.entry(1, 1) == RingElement.generator(G, 0) - one  # +(a1-1) x2
    assert d2.entry(0, 1) == -(RingElement.generator(G, 1) - one)  # -(a2-1) x1
    assert d2.entry(1, 2) == partial_norm(G, 1, 4)


def test_minimal_diff_composes_to_zero():
    for orders in TEST_GROUPS:
        G = GroupSpec.of(*orders)
        for n in range(1, 6):
            dn = minimal_diff(G, n)
            dn1 = minimal_diff(G, n + 1)
            assert dn.mul(dn1).is_zero(), (orders, n)


def test_minimal_diff_composes_to_zero_four_generators():
    G = GroupSpec.of(2, 2, 2, 2)
    for n in range(1, 5):
        assert minimal_diff(G, n).mul(minimal_diff(G, n + 1)).is_zero(), n


def test_minimal_diff_augmentation_vanishes():
    for orders in TEST_GROUPS:
        G = GroupSpec.of(*orders)
        d1 = minimal_diff(G, 1)
        for j in range(d1.cols):
            assert d1.entry(0, j).augmentation() == 0


def test_bar_basis_and_degree_one():
    G = GroupSpec.of(2, 2)
    assert len(bar_basis(G, 2)) == 9
    d1 = bar_diff(G, 1)
    one = RingElement.one(G)
    basis = bar_basis(G, 1)
    for j, (g,) in enumerate(basis):
        assert d1.entry(0, j) == RingElement.of_element(G, g) - one


def test_bar_diff_degree_two_drops_identity_terms():
    G = GroupSpec.of(4)
    d2 = bar_diff(G, 2)
    basis2 = bar_basis(G, 2)
    basis1 = bar_basis(G, 1)
    idx1 = {t: i for i, t in enumerate(basis1)}
    one = RingElement.one(G)
    # [a, a^3]: middle term [a^4] = [1] is dropped
    col = basis2.index(((1,), (3,)))
    assert d2.entry(idx1[((3,),)], col) == RingElement.of_element(G, (1,))
    assert d2.entry(idx1[((1,),)], col) == one
    assert d2.entry(idx1[((2,),)], col) == RingElement.zero(G)
    # [a, a^2]: middle term [a^3] survives with sign -1
    col2 = basis2.index(((1,), (2,)))
    assert d2.entry(idx1[((3,),)], col2) == -one


def test_bar_diff_composes_to_zero():
    for orders in [(2,), (4,), (2, 2), (2, 3)]:
        G = GroupSpec.of(*orders)
        assert bar_diff(G, 1).mul(bar_diff(G, 2)).is_zero(), orders
        assert bar_diff(G, 2).mul(bar_diff(G, 3)).is_zero(), orders


def test_bar_diff_respects_caps():
    G = GroupSpec.of(2, 2)
    # one degree above the cochain ceiling is allowed (cocycle checks), two is not
    assert bar_diff(G, 4, EngineLimits()).rows == 27
    with pytest.raises(ResourceCapExceeded):
        bar_diff(G, 5, EngineLimits())
    with pytest.raises(ResourceCapExceeded):
        bar_diff(G, 2, EngineLimits(max_cells=5))


def test_sigma_zero_is_identity():
    G = GroupSpec.of(2, 2)
    s0 = sigma(G, 0)
    assert s0.rows == 1 and s0.cols == 1
    assert s0.entry(0, 0) == RingElement.one(G)


def test_sigma_one_example():
    G = GroupSpec.of(2, 2)
    s1 = sigma(G, 1)
    col = bar_basis(G, 1).index(((1, 1),))
    assert s1.entry(0, col) == RingElement.one(G)  # x1 coefficient
    assert s1.entry(1, col) == RingElement.generator(G, 0)  # a1 * x2


def test_sigma_two_single_generator_floor_rule():
    G = GroupSpec.of(4)
    s2 = sigma(G, 2)
    basis = bar_basis(G, 2)
    one = RingElement.one(G)
    # row 0 is x1^2, the only degree-2 monomial for s = 1
    assert s2.entry(0, basis.index(((3,), (3,)))) == one  # (3+3)//4 = 1
    assert s2.entry(0, basis.index(((1,), (2,)))) == RingElement.zero(G)
    assert s2.entry(0, basis.index(((2,), (2,)))) == one


def test_sigma_two_vanishes_on_increasing_generator_pairs():
    G = GroupSpec.of(2, 2)
    s2 = sigma(G, 2)
    col = bar_basis(G, 2).index(((1, 0), (0, 1)))  # [a1, a2]
    for row in range(s2.rows):
        assert s2.entry(row, col) == RingElement.zero(G)
    # the reversed pair [a2, a1] hits the mixed monomial x1 x2 instead,
    # with the compensating sign the chain-map identity requires
    col_rev = bar_basis(G, 2).index(((0, 1), (1, 0)))
    mono_idx = monomial_basis(2, 2).index((1, 1))
    assert s2.entry(mono_idx, col_rev) == -RingElement.one(G)


def test_sigma_is_a_chain_map_degree_one():
    for orders in TEST_GROUPS + [(2, 2, 2, 2)]:
        G = GroupSpec.of(*orders)
        lhs = minimal_diff(G, 1).mul(sigma(G, 1))
        rhs = sigma(G, 0).mul(bar_diff(G, 1))
        assert lhs == rhs, orders


def test_sigma_is_a_chain_map_degree_two():
    for orders in [(2,), (4,), (2, 2), (2, 4), (3, 3), (2, 3), (2, 2, 2), (2, 2, 4), (2, 2, 2, 2)]:
        G = GroupSpec.of(*orders)
        lhs = minimal_diff(G, 2).mul(sigma(G, 2))
        rhs = sigma(G, 1).mul(bar_diff(G, 2))
        assert lhs == rhs, orders


def test_sigma_rejects_high_degree():
    with pytest.raises(ValueError):
        sigma(GroupSpec.of(2), 3)


def test_complete_diff_degree_zero_is_norm():
    G = GroupSpec.of(2, 2)
    res = MinimalResolution(G)
    d0 = complete_diff(res, 0)
    assert d0.rows == 1 and d0.cols == 1
    assert d0.entry(0, 0) == full_norm(G)


def test_complete_diff_negative_one_is_dual_column():
    G = GroupSpec.of(2, 4)
    res = MinimalResolution(G)
    dm1 = complete_diff(res, -1)
    assert dm1.rows == 2 and dm1.cols == 1
    one = RingElement.one(G)
    for i, o in enumerate(G.orders):
        inv_gen = RingElement.of_element(G, G.generator(i, o - 1))
        assert dm1.entry(i, 0) == inv_gen - one


def test_complete_diff_composes_to_zero_both_resolutions():
    G = GroupSpec.of(2, 2)
    for res in (MinimalResolution(G), BarResolution(G)):
        for n in range(-2, 4):
            a = complete_diff(res, n - 1)
            b = complete_diff(res, n)
            assert a.mul(b).is_zero(), (res.kind, n)


def test_complete_rank_mirrors_positive_ranks():
    G = GroupSpec.of(2, 2)
    res = MinimalResolution(G)
    assert [complete_rank(res, n) for n in range(3, -4, -1)] == [4, 3, 2, 1, 1, 2, 3]
    bar = BarResolution(G)
    assert [complete_rank(bar, n) for n in (-1, -2, -3)] == [1, 3, 9]


def test_make_resolution():
    G = GroupSpec.of(2,)
    assert make_resolution(G, "minimal").kind == "minimal"
    assert make_resolution(G, "bar").kind == "bar"
    with pytest.raises(ValueError):
        make_resolution(G, "koszul")


def test_ring_matrix_shapes_consistent():
    G = GroupSpec.of(3, 3)
    d3 = minimal_diff(G, 3)
    assert isinstance(d3, RingMatrix)
    assert d3.rows == len(monomial_basis(2, 2))
    assert d3.cols == len(monomial_basis(2, 3))
