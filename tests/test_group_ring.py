"""Group ring arithmetic: splitting rules the resolution layer depends on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomolab.group_ring import (
    GroupSpec,
    RingElement,
    RingMatrix,
    full_norm,
    partial_norm,
)


def test_group_spec_basics():
    G = GroupSpec.of(2, 4)
    assert G.order == 8
    assert G.mul((1, 3), (1, 2)) == (0, 1)
    assert G.inv((1, 3)) == (1, 1)
    assert G.index((0, 0)) == 0
    assert G.index((1, 3)) == 7
    els = G.elements()
    assert len(els) == 8
    assert [G.index(g) for g in els] == list(range(8))


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec.of()
    with pytest.raises(ValueError):
        GroupSpec.of(1, 2)


def test_primary_decomposition():
    G = GroupSpec.of(2, 12, 9)
    parts = G.primary_decomposition()
    assert parts[2].orders == (2, 4)
    assert parts[3].orders == (3, 9)


def test_partial_norm_splitting_rule():
    # 1 + a + ... + a^(i+k-1) = (1 + ... + a^(i-1)) + a^i (1 + ... + a^(k-1))
    G = GroupSpec.of(4)
    for i in range(11):
        for k in range(11):
            lhs = partial_norm(G, 0, i + k)
            rhs = partial_norm(G, 0, i) + RingElement.generator(G, 0, i) * partial_norm(G, 0, k)
            assert lhs == rhs, (i, k)


def test_partial_norm_telescopes():
    G = GroupSpec.of(8)
    a = RingElement.generator(G, 0)
    one = RingElement.one(G)
    for k in range(0, 12):
        lhs = (a - one) * partial_norm(G, 0, k)
        rhs = RingElement.generator(G, 0, k) - one
        assert lhs == rhs, k


def test_partial_norm_wraps_with_multiplicity():
    G = GroupSpec.of(4)
    e = partial_norm(G, 0, 6)
    assert e.coeffs == {(0,): 2, (1,): 2, (2,): 1, (3,): 1}
    assert e.augmentation() == 6


def test_full_norm_is_invariant():
    G = GroupSpec.of(2, 3)
    tr = full_norm(G)
    for g in G.elements():
        assert RingElement.of_element(G, g) * tr == tr
    assert tr.augmentation() == 6


def _elements(group):
    return st.builds(
        lambda pairs: RingElement(group, dict(pairs)),
        st.lists(
            st.tuples(st.sampled_from(group.elements()), st.integers(-4, 4)),
            max_size=4,
        ),
    )


@settings(max_examples=60, deadline=None)
@given(_elements(GroupSpec.of(2, 3)), _elements(GroupSpec.of(2, 3)), _elements(GroupSpec.of(2, 3)))
def test_ring_axioms(x, y, z):
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=60, deadline=None)
@given(_elements(GroupSpec.of(4, 2)), _elements(GroupSpec.of(4, 2)))
def test_antipode_is_ring_involution(x, y):
    assert x.antipode().antipode() == x
    assert (x * y).antipode() == x.antipode() * y.antipode()
    assert (x + y).antipode() == x.antipode() + y.antipode()
    assert x.antipode().augmentation() == x.augmentation()


@settings(max_examples=60, deadline=None)
@given(_elements(GroupSpec.of(2, 3)), _elements(GroupSpec.of(2, 3)))
def test_augmentation_is_multiplicative(x, y):
    assert (x * y).augmentation() == x.augmentation() * y.augmentation()


def _random_ring_matrix(rng, group, rows, cols):
    els = group.elements()
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.6:
                entries[(i, j)] = RingElement(
                    group, {rng.choice(els): rng.randint(-3, 3) for _ in range(2)}
                )
    return RingMatrix(group, rows, cols, entries)


def test_ring_matrix_product_and_antipode_transpose():
    import random

    rng = random.Random(3)
    G = GroupSpec.of(2, 2)
    for _ in range(20):
        A = _random_ring_matrix(rng, G, 3, 2)
        B = _random_ring_matrix(rng, G, 2, 4)
        AB = A.mul(B)
        assert AB.rows == 3 and AB.cols == 4
        # antipode is a ring map here, so dualising reverses the product
        assert AB.antipode_transpose() == B.antipode_transpose().mul(A.antipode_transpose())


def test_ring_matrix_shape_validation():
    G = GroupSpec.of(2)
    with pytest.raises(ValueError):
        RingMatrix(G, 1, 1, {(1, 0): RingElement.one(G)})
    with pytest.raises(ValueError):
        RingMatrix(G, 2, 2).mul(RingMatrix(G, 3, 2))
