"""Exact linear algebra layer, checked against independent oracles.

The Smith form oracle is the classical determinantal-divisor description:
the product d_1*...*d_k of the first k invariant factors equals the gcd of
all k x k minors.  It is computed here from scratch (Laplace expansion), so
it shares no code with the implementation under test.
"""

import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference
import cohomolab.intlinalg as il
from _reference import column_hnf, columns, from_columns, is_zero, mul, snf, solve_in_span, zeros
from cohomolab.closed_forms import trivial_module_factors
from cohomolab.engine import _image_columns
from cohomolab.group_ring import GroupSpec
from cohomolab.intlinalg import (
    AbelianInvariants,
    IntMatrix,
    echelon_rows,
    kernel_columns,
    quotient_invariants,
    quotient_presentation,
    saturation_columns,
    saturation_presentation,
    xgcd,
)


def _det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * head * _det(minor)
    return total


def _minor_gcd_invariants(rows, m, n):
    """Invariant factors via gcds of k x k minors (independent oracle)."""
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, _det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def test_minor_oracle_sanity():
    # d1 = gcd(all entries) = 2, d2 = |det| = 8 -> factors [2, 4]
    assert _minor_gcd_invariants([[2, 4], [6, 8]], 2, 2) == [2, 4]
    assert _minor_gcd_invariants([[0, 0], [0, 0]], 2, 2) == []


def _random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(12345)
    for trial in range(80):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = _random_matrix(rng, m, n)
        want = _minor_gcd_invariants(rows, m, n)
        dec = snf(IntMatrix.from_rows(rows, cols=n))
        got = [d for d in dec.diagonal() if d]
        assert got == want, f"trial {trial}: {rows}"


def test_snf_transform_identity_and_unimodularity():
    rng = random.Random(999)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = IntMatrix.from_rows(_random_matrix(rng, m, n), cols=n)
        dec = snf(A)
        assert mul(mul(dec.U, A), dec.V) == dec.D
        assert abs(_det([list(r) for r in dec.U.data])) == 1
        assert abs(_det([list(r) for r in dec.V.data])) == 1


def test_snf_divisibility_chain_and_trailing_zeros():
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        dec = snf(IntMatrix.from_rows(_random_matrix(rng, m, n), cols=n))
        diag = dec.diagonal()
        seen_zero = False
        prev = None
        for d in diag:
            assert d >= 0
            if d == 0:
                seen_zero = True
            else:
                assert not seen_zero, "nonzero after zero on the diagonal"
                if prev is not None:
                    assert d % prev == 0
                prev = d
        # off-diagonal must vanish
        for i, row in enumerate(dec.D.data):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0


def test_snf_is_deterministic():
    A = IntMatrix.from_rows([[6, 4, -2], [2, 8, 10], [0, -6, 4]])
    first = snf(A)
    second = snf(A)
    assert first == second


def test_snf_pinned_small_cases():
    assert snf(IntMatrix.from_rows([[2, 4], [6, 8]])).invariants == (2, 4)
    assert snf(IntMatrix.from_rows([[1, 0], [0, 1]])).invariants == ()
    assert snf(IntMatrix.from_rows([[0]])).invariants == ()
    assert snf(IntMatrix.from_rows([[12]])).invariants == (12,)
    # 2x2 with a unit factor only
    assert snf(IntMatrix.from_rows([[3, 5], [1, 2]])).invariants == ()


@st.composite
def _matrices(draw, max_dim=4, bound=20):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    rows = [
        [draw(st.integers(-bound, bound)) for _ in range(n)] for _ in range(m)
    ]
    return IntMatrix.from_rows(rows, cols=n)


@settings(max_examples=120, deadline=None)
@given(_matrices())
def test_snf_properties_hypothesis(A):
    dec = snf(A)
    assert mul(mul(dec.U, A), dec.V) == dec.D
    got = [d for d in dec.diagonal() if d]
    want = _minor_gcd_invariants([list(r) for r in A.data], A.rows, A.cols)
    assert got == want


# ---------------------------------------------------------------------------
# kernels


def _kernel(A: IntMatrix) -> IntMatrix:
    """:func:`kernel_columns` of a dense matrix, as matrix columns."""
    rows = ([(j, x) for j, x in enumerate(r) if x] for r in A.data)
    return from_columns(kernel_columns(rows, A.cols), A.cols)


def test_kernel_basis_pinned():
    K = _kernel(IntMatrix.from_rows([[2, 3]]))
    assert columns(K) == [[3, -2]]


def test_kernel_basis_zero_map():
    K = _kernel(zeros(3, 4))
    assert K == IntMatrix.identity(4)


def test_kernel_basis_injective_map():
    K = _kernel(IntMatrix.from_rows([[1, 0], [0, 2], [3, 3]]))
    assert K.cols == 0


def test_kernel_columns_sums_repeated_indices():
    # the row reads 2*x0 - 2*x1 = 0
    assert kernel_columns([[(0, 1), (0, 1), (1, -2)]], 2) == [[1, 1]]


@settings(max_examples=100, deadline=None)
@given(_matrices(max_dim=4, bound=9))
def test_kernel_basis_properties(A):
    K = _kernel(A)
    assert is_zero(mul(A, K))
    rank = len(_minor_gcd_invariants([list(r) for r in A.data], A.rows, A.cols))
    assert K.cols == A.cols - rank
    # saturated: the ambient quotient by the kernel is torsion free
    if K.cols:
        assert snf(K).invariants == ()


def _dense_kernel_reference(rows, n):
    """The whole-matrix route: gcd echelon, then Smith elimination with V."""
    ech = echelon_rows(rows)
    if not ech:
        return [[int(i == j) for i in range(n)] for j in range(n)], 0
    el = il._Eliminator(ech, len(ech), n, want_v=True)
    rank = len(il._smith_eliminate(el))
    return [[el.v[i][j] for i in range(n)] for j in range(rank, n)], rank


def test_kernel_columns_sparse_draws_match_dense_reference():
    # sparse 0/+-1/+-2 rows, the shape of resolution matrices: unit pivots,
    # non-unit dividing pivots, a dense residual and back-substitution
    rng = random.Random(2024)
    seen = {"unit": 0, "non-unit": 0, "residual": 0, "back-substituted": 0}
    for _ in range(200):
        m = rng.randint(1, 10)
        n = rng.randint(1, 14)
        rows = [[rng.choice((0, 0, 0, 0, 0, 1, -1, 2, -2)) for _ in range(n)] for _ in range(m)]
        want, rank = _dense_kernel_reference(rows, n)
        K = kernel_columns(([(j, x) for j, x in enumerate(r) if x] for r in rows), n)
        A = IntMatrix.from_rows(rows, cols=n)
        assert is_zero(mul(A, from_columns(K, n)))
        assert len(K) == n - rank
        if K:
            # saturated: the ambient quotient by the kernel is torsion free
            assert snf(from_columns(K, n)).invariants == ()
        assert column_hnf(K, n) == column_hnf(want, n), rows
        pivots, residual = il._sparse_eliminate([il._dict_row(r) for r in rows], 0)
        seen["unit"] += any(g == 1 for g, _, _ in pivots)
        seen["non-unit"] += any(g > 1 for g, _, _ in pivots)
        seen["residual"] += bool(residual)
        seen["back-substituted"] += bool(pivots and K)
    assert all(seen.values()), seen


def test_saturation_columns_match_the_double_kernel():
    # the saturation of L is the kernel of the kernel of L's columns as
    # rows: whenever sparse elimination clears the columns, both agree
    rng = random.Random(2026)
    seen = {"saturated": 0, "non-unit": 0, "residual": 0}
    for _ in range(300):
        n = rng.randint(1, 12)
        cols = [
            [rng.choice((0, 0, 0, 0, 0, 1, -1, 2, -2, 3)) for _ in range(n)]
            for _ in range(rng.randint(1, 8))
        ]
        sat = saturation_columns(cols)
        if sat is None:
            seen["residual"] += 1
            continue
        perp = kernel_columns(([(j, x) for j, x in enumerate(c) if x] for c in cols), n)
        want = kernel_columns(([(j, x) for j, x in enumerate(c) if x] for c in perp), n)
        qcols = [q for _, _, q in sat]
        assert column_hnf(qcols, n) == column_hnf(want, n), cols
        # each column is 1 at its pivot row, and the g*Q span L itself
        assert all(q[j] == 1 for _, j, q in sat), cols
        spanned = [{k: g * x for k, x in q.items()} for g, _, q in sat]
        assert column_hnf(spanned, n) == column_hnf(cols, n), cols
        seen["saturated"] += 1
        seen["non-unit"] += column_hnf(qcols, n) != column_hnf(cols, n)
    assert all(seen.values()), seen


def test_saturation_presentation_is_the_quotient_by_the_lattice():
    # the pivot read of sat(L)/L against the Hermite one: the same group,
    # and a coordinate map that sends generator i to e_i and L to 0, with
    # residues constant on the classes of L
    rng = random.Random(2037)
    seen = {"merged": 0, "chain": 0}
    for _ in range(300):
        n = rng.randint(1, 8)
        cols = [
            [rng.choice((0, 0, 0, 0, 1, -1, 2, -2, 3, 6)) for _ in range(n)]
            for _ in range(rng.randint(1, 6))
        ]
        sat = saturation_columns(cols)
        if sat is None:
            continue
        pres = saturation_presentation(sat, n)
        want = quotient_presentation([q for _, _, q in sat], cols, n)
        assert pres.invariants() == want.invariants(), cols
        gains = sorted(g for g, _, _ in sat if g > 1)
        seen["merged" if any(b % a for a, b in zip(gains, gains[1:])) else "chain"] += 1
        diag = pres.diagonal
        for i in range(len(diag)):
            e = [int(k == i) % d if d else int(k == i) for k, d in enumerate(diag)]
            assert pres.coordinates(pres.generator_column(i)) == e, cols
        for _ in range(3):
            a = [rng.randint(-3, 3) for _ in cols]
            lat = [sum(x * c[k] for x, c in zip(a, cols)) for k in range(n)]
            assert pres.coordinates(lat) == [0] * len(diag), cols
            b = [rng.randint(-3, 3) for _ in sat]
            v = [sum(x * q.get(k, 0) for x, (_, _, q) in zip(b, sat)) for k in range(n)]
            res = pres.residue(v)
            assert pres.residue([x + y for x, y in zip(v, lat)]) == res, cols
            assert want.residue(res) == want.residue(v), cols
    assert all(seen.values()), seen


def test_saturation_columns_give_up_on_a_residual():
    # no entry of either column is its column's gcd 1, so nothing is cleared
    cols = [{0: 2, 1: 3}, {0: 3, 1: 2}]
    assert saturation_columns(cols) is None
    assert cols == [{0: 2, 1: 3}, {0: 3, 1: 2}]


@pytest.mark.parametrize("N", [0, 4])
def test_a_row_stalled_before_a_pivot_frees_it_stays_residual(N):
    # {0: 2} is scanned first and holds no dividing pivot (3 sits in its
    # column); eliminating column 1 then frees column 0, but the row is not
    # changed, so it is not scanned again and goes to the dense pass
    rows = [{0: 2}, {0: 3, 1: 1}]
    pivots, residual = il._sparse_eliminate([dict(r) for r in rows], N)
    assert [(g, j) for g, j, _ in pivots] == [(1, 1)] and residual == [{0: 2}]
    D = snf(IntMatrix.from_rows([[2, 0], [3, 1]])).D.data
    want = [D[0][0], D[1][1]]
    assert il.smith_diagonal(rows, 2, 2, mod=N or None) == want == [1, 2]
    assert kernel_columns([[(0, 2), (2, 1)], [(0, 3), (1, 1)]], 3) == [[1, -3, -2]]
    # the saturation gives up there, and the engine takes the kernel instead
    assert saturation_columns(rows) is None


# ---------------------------------------------------------------------------
# echelon / hermite


def _hnf(cols, dim, mod=None):
    """The library's canonical Hermite basis, densified."""
    return il._densify(il._hermite_pairs(cols, dim, mod), dim)


def test_echelon_pinned():
    # fixed outputs of the dense-row gcd echelon; the dict-row one must match
    assert echelon_rows([[2, 4, 6], [4, 1, 0]]) == [[2, 4, 6], [0, 7, 12]]  # exact quotient
    assert echelon_rows([[4, 6, 1], [6, 3, 5]]) == [[2, -3, 4], [0, 12, -7]]  # xgcd merge
    assert echelon_rows([[-3, 1, 2], [0, -2, 5], [0, 4, -1]]) == [
        [3, -1, -2], [0, 2, -5], [0, 0, 9],
    ]  # negative leading entries
    assert echelon_rows(
        [[0, 2, 0, 0, 3], [0, 4, 0, 1, 0], [0, 0, 0, 0, -5], [1, 0, 0, 0, 0], [0, 6, 0, 9, 0]]
    ) == [[1, 0, 0, 0, 0], [0, 2, 0, 0, 3], [0, 0, 0, 1, -6], [0, 0, 0, 0, 5]]
    assert echelon_rows([[3, 5, 7], [6, 1, 2], [0, 4, 4]], mod=8) == [
        [3, 5, 7], [0, 1, 4], [0, 0, 4],
    ]
    # seed_mod: the modulus sublattice is seeded before the columns go in
    assert _hnf([[2, 3, 0], [4, 1, 6]], 3, mod=6) == [[2, 0, 0], [0, 1, 0], [0, 0, 6]]
    assert il._echelon_pairs([[0, 3, 1]], 9, seed=3) == [
        (0, {0: 9}), (1, {1: 3, 2: 1}), (2, {2: 3}),
    ]
    assert _hnf([[0, 2, -4, 1], [0, -3, 1, 0], [0, 0, 5, 5]], 4) == [
        [0, 1, 3, 12], [0, 0, 5, 5], [0, 0, 0, 13],
    ]


def test_echelon_rows_preserves_row_membership():
    rng = random.Random(7)
    for _ in range(30):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = _random_matrix(rng, m, n, -6, 6)
        ech = echelon_rows(rows)
        for r in rows:
            assert solve_in_span(ech, r) is not None


def test_column_hnf_is_canonical():
    cols = [[4, 2], [6, 4]]
    h1 = il._hermite_pairs(cols, 2)
    h2 = il._hermite_pairs(list(reversed(cols)), 2)
    assert h1 == h2
    for p, c in h1:
        assert min(c) == p and c[p] > 0


def test_column_hnf_with_modulus_seeds_full_rank():
    h = il._hermite_pairs([[2, 0]], 2, mod=4)
    assert len(h) == 2
    assert il._solve(h, [0, 4]) is not None
    assert il._solve(h, [2, 0]) is not None
    assert il._solve(h, [1, 0]) is None


def test_hermite_reduce_canonical_on_cosets():
    rng = random.Random(11)
    for _ in range(30):
        cols = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(2)]
        pairs = il._hermite_pairs(cols, 3)
        if not pairs:
            continue
        v = [rng.randint(-9, 9) for _ in range(3)]
        shift = [rng.randint(-3, 3) for _ in range(len(pairs))]
        w = list(v)
        for c, s in zip(il._densify(pairs, 3), shift):
            w = [a + s * b for a, b in zip(w, c)]
        assert il._residue(list(v), pairs) == il._residue(w, pairs)


def test_solve_in_span_roundtrip():
    cols = [[2, 0, 4], [0, 3, 3]]
    pairs = il._hermite_pairs(cols, 3)
    v = [2 * 2 + 0, 0 + 3 * 3, 2 * 4 + 3 * 3]  # 2*c0 + 3*c1
    y = il._solve(pairs, list(v))
    assert y is not None
    rebuilt = [0, 0, 0]
    for c, q in zip(il._densify(pairs, 3), y):
        rebuilt = [a + q * b for a, b in zip(rebuilt, c)]
    assert rebuilt == v
    assert il._solve(pairs, [1, 1, 1]) is None


# ---------------------------------------------------------------------------
# quotients


def test_quotient_invariants_pinned():
    assert quotient_invariants([[1, 1]], [[2, 2]], 2) == AbelianInvariants(0, (2,))

    eye = [[1, 0], [0, 1]]
    assert quotient_invariants(eye, [[2, 0], [0, 2]], 2) == AbelianInvariants(0, (2, 2))

    # free quotient: Z^2 / 0
    assert quotient_invariants(eye, [], 2) == AbelianInvariants(2, ())


def test_quotient_invariants_rejects_bad_relations():
    with pytest.raises(ValueError):
        quotient_invariants([[2, 0]], [[1, 0]], 2)


def test_quotient_presentation_matches_invariants():
    rng = random.Random(5)
    for _ in range(30):
        dim = rng.randint(1, 4)
        kcols = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(rng.randint(1, 4))]
        mults = [[rng.randint(-3, 3) for _ in range(len(kcols))] for _ in range(rng.randint(0, 3))]
        icols = []
        for mu in mults:
            col = [0] * dim
            for q, kc in zip(mu, kcols):
                col = [a + q * b for a, b in zip(col, kc)]
            icols.append(col)
        want = quotient_invariants(kcols, icols, dim)
        pres = quotient_presentation(kcols, icols, dim)
        assert pres.invariants() == want


def test_quotient_presentation_generator_coordinates_roundtrip():
    kcols = [[2, 0, 0], [0, 3, 0], [0, 0, 1]]
    icols = [[4, 0, 0], [0, 3, 0]]
    pres = quotient_presentation(kcols, icols, 3)
    for i, d in enumerate(pres.diagonal):
        coords = pres.coordinates(pres.generator_column(i))
        for k, c in enumerate(coords):
            if k == i:
                assert c == (1 % d if d else 1)
            else:
                dk = pres.diagonal[k]
                assert (c % dk if dk else c) == 0


def test_quotient_presentation_with_modulus():
    # lattice 2Z inside Z, everything mod 4: quotient is Z/2
    pres = quotient_presentation([[2]], [], 1, mod=4)
    assert pres.invariants() == AbelianInvariants(0, (2,))
    # trivial cocycle lattice mod 4: (Z/4)^2
    pres = quotient_presentation([[1, 0], [0, 1]], [], 2, mod=4)
    assert pres.invariants() == AbelianInvariants(0, (4, 4))
    # relations fold in: Z^2 / (2e1 + 4Z^2) = Z/2 + Z/4
    pres = quotient_presentation([[1, 0], [0, 1]], [[2, 0]], 2, mod=4)
    assert pres.invariants() == AbelianInvariants(0, (2, 4))


def _representatives(basis, relations, dim, N):
    """The presentation's diagonal and each nontrivial generator reduced by
    the relations' Hermite basis."""
    pres = quotient_presentation(basis, relations, dim, mod=N or None)
    reps = [pres.residue(pres.generator_column(i)) for i, d in enumerate(pres.diagonal) if d != 1]
    return pres.diagonal, reps


@st.composite
def _quotient_variants(draw):
    """A lattice quotient, and the same quotient with its relation columns
    permuted, duplicated or extended by a sum of others, and with its basis
    columns changed by a unimodular transform."""
    N = draw(st.sampled_from([0, 4, 6, 8]))
    dim = draw(st.integers(1, 4))
    basis = [[draw(st.integers(-6, 6)) for _ in range(dim)] for _ in range(draw(st.integers(1, 4)))]
    mults = [[draw(st.integers(-3, 3)) for _ in basis] for _ in range(draw(st.integers(0, 4)))]
    relations = [[sum(q * b[i] for q, b in zip(mu, basis)) for i in range(dim)] for mu in mults]
    rng = draw(st.randoms(use_true_random=False))
    variants = [list(reversed(relations)), rng.sample(relations, len(relations))]
    if relations:
        variants.append(relations + [rng.choice(relations)])
        total = [0] * dim
        for rel in relations:
            q = rng.randint(-2, 2)
            total = [a + q * b for a, b in zip(total, rel)]
        variants.append(rng.sample(relations, len(relations)) + [total])
    changed = [list(b) for b in basis]
    for _ in range(4):
        j, k = rng.randrange(len(changed)), rng.randrange(len(changed))
        if j != k:
            q = rng.randint(-3, 3)
            changed[j] = [a + q * b for a, b in zip(changed[j], changed[k])]
        else:
            changed[j] = [-a for a in changed[j]]
    rng.shuffle(changed)
    cases = [(basis, rels) for rels in variants] + [(changed, relations)]
    return N, dim, basis, relations, cases


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_quotient_variants())
def test_quotient_representatives_depend_only_on_the_lattices(case):
    N, dim, basis, relations, cases = case
    want = _representatives(basis, relations, dim, N)
    for other_basis, other_relations in cases:
        got = _representatives(other_basis, other_relations, dim, N)
        assert got == want, (other_basis, other_relations)


@st.composite
def _column_sets(draw):
    """A basis column set, relations in its span, some vectors to reduce,
    each column dense or a {row: value} dict, over Z or mod N; entries
    come from a drawn generator, so they are not shrunk towards zero."""
    N = draw(st.sampled_from([0, 4, 6, 8, 9]))
    dim = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))

    def entries(k, bound):
        return [rng.randint(-bound, bound) for _ in range(k)]

    basis = [entries(dim, 9) for _ in range(rng.randint(0, 6))]
    mults = [entries(len(basis), 3) for _ in range(rng.randint(0, 6))]
    relations = [[sum(q * b[i] for q, b in zip(mu, basis)) for i in range(dim)] for mu in mults]

    def mixed(cols):
        return [{i: x for i, x in enumerate(c) if x} if rng.random() < 0.5 else c for c in cols]

    return N, dim, mixed(basis), mixed(relations), [entries(dim, 9) for _ in range(3)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_column_sets())
def test_sparse_presentation_matches_the_dense_reference(case):
    N, dim, basis, relations, probes = case
    pres = quotient_presentation(basis, relations, dim, mod=N or None)
    want = _reference.quotient_presentation(basis, relations, dim, mod=N or None)
    got = {
        "hnf_basis": il._densify(pres._basis, dim),
        "relation_hnf": il._densify(pres._relations, dim),
        "u": pres.u,
        "uinv": pres.uinv,
        "diagonal": pres.diagonal,
        "generators": [pres.generator_column(i) for i in range(pres.rank)],
        "residues": [pres.residue(pres.generator_column(i)) for i in range(pres.rank)],
    }
    assert got == want
    for v in probes:
        assert pres.residue(v) == _reference.hermite_reduce(v, want["relation_hnf"])
        assert il._solve(pres._basis, list(v)) == solve_in_span(want["hnf_basis"], v)


# ---------------------------------------------------------------------------
# congruence kernels


def _brute_congruence_solutions(constraints, n, N):
    sols = set()
    for x in itertools.product(range(N), repeat=n):
        if all(sum(c * x[i] for i, c in row) % N == 0 for row in constraints):
            sols.add(x)
    return sols


def test_congruence_kernel_exhaustive_small():
    rng = random.Random(20)
    for trial in range(40):
        n = rng.randint(1, 3)
        N = rng.choice([2, 3, 4, 6, 8])
        nrows = rng.randint(0, 3)
        constraints = []
        for _ in range(nrows):
            row = [(i, rng.randint(-5, 5)) for i in range(n) if rng.random() < 0.8]
            constraints.append(row)
        cols = kernel_columns(constraints, n, mod=N)
        h = column_hnf(cols, n, mod=N)
        got = set()
        for x in itertools.product(range(N), repeat=n):
            if solve_in_span(h, list(x)) is not None:
                got.add(x)
        want = _brute_congruence_solutions(constraints, n, N)
        assert got == want, f"trial {trial}: n={n} N={N} rows={constraints}"


@st.composite
def _sparse_congruences(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 6))
    N = draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12]))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -3])
    rows = [[draw(entry) for _ in range(n)] for _ in range(m)]
    return rows, n, N


@settings(max_examples=150, deadline=None)
@given(_sparse_congruences())
def test_congruence_kernel_matches_the_integer_kernel_route(case):
    rows, n, N = case
    sparse = [[(j, x) for j, x in enumerate(r) if x] for r in rows]
    cols = kernel_columns(sparse, n, mod=N)
    for x in cols:
        assert any(x) and all(0 <= v < N for v in x)
        assert all(sum(c * x[j] for j, c in r) % N == 0 for r in sparse)
    # the same set through the N = 0 branch: A x = N y over Z, projected to x
    m = len(rows)
    aug = [[(j, x) for j, x in enumerate(r) if x] + [(n + i, -N)] for i, r in enumerate(rows)]
    lifted = [c[:n] for c in kernel_columns(aug, n + m)]
    assert column_hnf(cols, n, mod=N) == column_hnf(lifted, n, mod=N), case


# ---------------------------------------------------------------------------
# invariant bookkeeping


def test_abelian_invariants_prime_power_merge():
    # Z/2 + Z/4 + Z/3, as the prime powers 2^1, 2^2, 3^1
    inv = AbelianInvariants.from_diagonal([2, 4, 3])
    assert inv == AbelianInvariants(0, (2, 12))
    assert inv.order() == 24


def test_abelian_invariants_direct_sum():
    # a direct sum is the normalized concatenation of the two diagonals
    def plus(x, y):
        return AbelianInvariants.from_diagonal(x.torsion + y.torsion, x.free_rank + y.free_rank)

    a = AbelianInvariants(0, (2,))
    b = AbelianInvariants(0, (4,))
    c = AbelianInvariants(1, (3,))
    assert plus(a, b) == AbelianInvariants(0, (2, 4))
    assert plus(a, c) == AbelianInvariants(1, (6,))


def test_from_diagonal_accepts_entries_off_a_divisibility_chain():
    # the gcd/lcm merge turns coprime entries into a unit and their product
    assert AbelianInvariants.from_diagonal([2, 3]) == AbelianInvariants(0, (6,))
    assert AbelianInvariants.from_diagonal([2, 2, 3]) == AbelianInvariants(0, (2, 6))
    assert AbelianInvariants.from_diagonal([2, 4, 3]) == AbelianInvariants(0, (2, 12))
    assert AbelianInvariants.from_diagonal([0, 2, 3]) == AbelianInvariants(1, (6,))
    assert AbelianInvariants.from_diagonal([1, 6, 0, 1], 2) == AbelianInvariants(3, (6,))


def _chains():
    # 2^a_i 3^b_i with both exponent lists ascending divide one another
    return st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), max_size=8).map(
        lambda ab: [2**a * 3**b for a, b in zip(*map(sorted, zip(*ab)))]
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 200), max_size=8) | _chains(), st.integers(0, 3))
def test_from_diagonal_equals_the_prime_power_regrouping(diag, free_rank):
    # chains and non-chains alike; each zero is one more Z
    powers = [pe for d in diag if d for pe in il._factorize(d)]
    want = _reference.from_prime_powers(powers, free_rank + diag.count(0))
    assert AbelianInvariants.from_diagonal(diag, free_rank) == want


def _trial_factors(n):
    """The (prime, exponent) pairs of n by trial division up to sqrt(n)."""
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n, e = n // d, e + 1
        if e:
            out.append((d, e))
        d += 1
    return out + [(n, 1)] * (n > 1)


def _within_a_second(call, *args):
    start = time.perf_counter()
    out = call(*args)
    assert time.perf_counter() - start < 1, call
    return out


def test_factorize_decides_large_cofactors_at_once():
    # trial division takes the primes below the bound alone; a cofactor is
    # decided by Miller-Rabin, and a composite one split by Pollard-Brent rho
    # with every factor checked, so neither a large prime nor a product of
    # two hangs: each call returns in well under a second
    p, q = 2**61 - 1, 2**31 - 1
    assert _within_a_second(il._factorize, p) == [(p, 1)]
    assert _within_a_second(il._factorize, q * p) == [(q, 1), (p, 1)]
    assert _within_a_second(il._factorize, 101**3 * 103 * p) == [(101, 3), (103, 1), (p, 1)]
    got = _within_a_second(lambda: [il._factorize(n) for n in range(20000)])
    assert got == [_trial_factors(n) for n in range(20000)]
    # the callers that hung on a large prime order return at once
    assert _within_a_second(trivial_module_factors, 2, (p,)) == AbelianInvariants(0, (p,))
    assert _within_a_second(GroupSpec((p,)).primary_decomposition) == {p: GroupSpec((p,))}


def test_factorize_refuses_what_it_cannot_split(monkeypatch):
    # a composite whose every factor is past the rho search's reach raises,
    # rather than searching on: the square of 2**61 - 1 under a short budget
    monkeypatch.setattr(il, "_RHO_STEPS", 1 << 12)
    with pytest.raises(ValueError, match="cannot factor"):
        il._factorize((2**61 - 1) ** 2)


def test_abelian_invariants_validation():
    with pytest.raises(ValueError):
        AbelianInvariants(0, (4, 2))
    with pytest.raises(ValueError):
        AbelianInvariants(0, (1,))
    with pytest.raises(ValueError):
        AbelianInvariants(-1, ())


def test_xgcd():
    for a, b in [(12, 18), (0, -5), (7, 0), (-4, -6), (1, 1)]:
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b)
        assert x * a + y * b == g


# ---------------------------------------------------------------------------
# the sparse Smith diagonal against the dense elimination it hands off to


def test_echelon_rows_bignum():
    big = 1 << 80
    rows = [r * 100 for r in ([big, big + 1], [3, 5])]  # width 200
    ech = echelon_rows(rows)
    # the lattice has determinant 5*big - 3*(big + 1) on each column pair
    assert [r[:2] for r in ech] == [[1, ech[0][1]], [0, 2 * big - 3]]
    assert ech[1] == [0, 2 * big - 3] * 100
    for r in rows:
        assert solve_in_span(ech, r) is not None


def test_smith_diagonal_matches_dense_reference():
    rng = random.Random(501)
    draws = []
    for mod in (None, 4, 12):
        for _ in range(25):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            draws.append((_random_matrix(rng, m, n, -30, 30), m, n, mod))
    # sparse +-1/+-2 draws, the shape of resolution matrices
    for mod in (None, 2, 4, 8):
        for _ in range(25):
            m = rng.randint(1, 12)
            n = rng.randint(1, 12)
            rows = [[rng.choice((0, 0, 0, 0, 0, 1, -1, 2, -2)) for _ in range(n)] for _ in range(m)]
            draws.append((rows, m, n, mod))
    for rows, m, n, mod in draws:
        got = il.smith_diagonal(rows, m, n, mod)
        want = il._smith_eliminate(il._Eliminator(rows, m, n, mod=mod))
        if mod:
            # over Z/mod only gcd(d, mod) is determined
            got = [gcd(d, mod) for d in got]
            want = [gcd(d, mod) for d in want]
        assert got == want, f"{rows} mod={mod}"


def test_smith_diagonal_dict_rows_match_snf():
    # the engine streams {column: value} rows of sparse 0/+-1/+-2 maps
    rng = random.Random(502)
    for mod in (None, 2, 4, 8):
        for _ in range(40):
            m, n = rng.randint(1, 12), rng.randint(1, 12)
            rows = [[rng.choice((0, 0, 0, 0, 0, 1, -1, 2, -2)) for _ in range(n)] for _ in range(m)]
            dicts = [{j: x for j, x in enumerate(r) if x} for r in rows]
            kept = [dict(r) for r in dicts]
            got = il.smith_diagonal((r for r in dicts), m, n, mod)
            assert dicts == kept  # dict rows are copied, never modified
            diag = [d for d in snf(IntMatrix.from_rows(rows, cols=n)).diagonal() if d]
            if mod:
                diag = [gcd(d, mod) for d in diag if d % mod]
            assert got == diag, f"{rows} mod={mod}"
            assert il.smith_diagonal(rows, m, n, mod) == got
            # SNF(A) = SNF(A^T): the engine feeds a tall map as its columns
            cols = _image_columns(list(r.items()) for r in dicts)
            assert il.smith_diagonal(cols, n, m, mod) == got


@st.composite
def _unit_pivoted(draw):
    # a sparse matrix with a triangular block of unit pivots hidden in it:
    # pivot k sits at (rows[k], cols[k]), and the other entries of its row
    # lie in non-pivot columns or in the columns of later pivots
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    k = draw(st.integers(0, min(m, n)))
    prows = draw(st.permutations(range(m)))[:k]
    pcols = draw(st.permutations(range(n)))[:k]
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3))
    dense = [[draw(entry) for _ in range(n)] for _ in range(m)]
    for i, (r, c) in enumerate(zip(prows, pcols)):
        for earlier in pcols[:i]:
            dense[r][earlier] = 0
        dense[r][c] = draw(st.sampled_from((1, -1)))
    return dense, dict(zip(pcols, prows)), n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_unit_pivoted(), st.sampled_from((None, 2, 4, 6)))
def test_schur_complement_keeps_the_smith_diagonal(drawn, mod):
    # Smith(A) is a 1 per pivot plus Smith of the complement, whose columns
    # avoid the pivot columns and whose rows are distinct: the reference
    # complement that the engine's Morse read of a standard-resolution leg
    # is checked against (test_engine)
    dense, pivots, n = drawn
    rows = [[(j, x) for j, x in enumerate(r) if x] for r in dense]
    complement = _reference.schur_complement(rows, pivots, mod)
    assert complement is not None
    assert not any(j in pivots for r in complement for j in r)
    assert len({tuple(sorted(r.items())) for r in complement}) == len(complement)
    got = [1] * len(pivots) + il.smith_diagonal(complement, len(complement), n, mod)
    assert got == il.smith_diagonal(dense, len(dense), n, mod)


@pytest.mark.parametrize(
    "pivots, mod",
    [
        ({0: 0}, None),  # 2 is not a unit over Z
        ({0: 0}, 4),  # nor mod 4
        ({0: 2}, None),  # row 2 has no entry in column 0
        ({2: 1, 0: 1}, None),  # row 1 holds two pivots
        ({1: 1, 2: 2}, None),  # R(1) needs R(2), which needs R(1)
        ({0: 5}, None),  # no row 5
    ],
)
def test_schur_complement_refuses_pivots_it_cannot_trust(pivots, mod):
    rows = [[(0, 2), (1, 1)], [(1, 1), (2, -1), (0, 1)], [(2, 1), (1, -1), (3, 1)]]
    assert _reference.schur_complement(rows, pivots, mod) is None
    # a pivot it can trust: R(1) = {0: 1, 2: -1}
    want = [{0: 1, 2: 1}, {0: 1, 3: 1}]
    assert _reference.schur_complement(rows, {1: 1}, mod) == want


def test_schur_complement_drops_duplicate_and_zero_rows():
    # R(0) = {1: 1}; the last row is the pivot row's copy, and reduces to 0
    rows = [[(0, 1), (1, 1)], [(1, 2)], [(0, 2), (1, 4)], [(1, 2)], [(0, 3), (1, 1)], [(1, 1), (0, 1)]]
    assert _reference.schur_complement(rows, {0: 0}) == [{1: 2}, {1: -2}]
    assert _reference.schur_complement(rows, {0: 0}, mod=4) == [{1: 2}]
    assert _reference.schur_complement(rows[1:2] * 3, {}) == [{1: 2}]


_WIDE_MODS = (None, 2, 4, 6, 2**61 - 1)


@pytest.mark.parametrize("mod", _WIDE_MODS)
@pytest.mark.parametrize(
    "rows, pivots",
    [
        ([], {}),  # no rows
        ([[], [], []], {}),  # only empty rows
        ([[(0, 0), (1, 0)], []], {}),  # only zero entries
        ([[(0, 3), (1, -5)], [(1, 2)], [(0, 3), (1, -5)]], {}),  # no pivots
        ([[(0, 1), (1, 2)], [(1, -1), (2, 7)]], {0: 0, 1: 1}),  # only pivot rows
        ([[(0, 1), (1, 3)], []], {0: 0}),  # only empty non-pivot rows
        ([[(0, 255)], [(0, -255)], [(0, 127)], [(0, -128)]], {}),  # a slot at its bound
        ([[(0, 1), (1, -255)], [(0, 1)]], {0: 0}),  # the same through a pivot
        ([[(0, 2**63)], [(0, -(2**63))], [(0, 2**63 - 1)]], {}),  # a slot at 2^63
    ],
)
def test_packed_schur_complement_edge_cases(rows, pivots, mod):
    # the degenerate shapes and the byte and 2^63 slot bounds of a complement
    # once packed in Kronecker slots: on each, the reference complement that
    # the engine's Morse read is checked against avoids the pivot columns,
    # holds distinct rows, and keeps the Smith diagonal with a 1 per pivot
    width = 1 + max([k for row in rows for k, _ in row] + list(pivots), default=-1)
    dense = [[0] * width for _ in rows]
    for r, row in enumerate(rows):
        for k, x in row:
            dense[r][k] += x
    complement = _reference.schur_complement(rows, pivots, mod)
    assert complement is not None
    assert not any(j in pivots for r in complement for j in r)
    assert len({tuple(sorted(r.items())) for r in complement}) == len(complement)
    got = [1] * len(pivots) + il.smith_diagonal(complement, len(complement), width, mod)
    assert got == il.smith_diagonal(dense, len(dense), width, mod)


def test_sparse_elimination_allocates_only_the_columns_it_meets():
    # two rows in a 10^5-column space: the column index holds the columns
    # the rows touch, not one set per column
    rows = [{0: 2, 99_999: 4}, {1: 6, 99_999: 8}]
    tracemalloc.start()
    try:
        assert il.smith_diagonal(rows, 2, 10**5) == [2, 2]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _cokernel_torsion(A):
    # the torsion of Z^rows / colspan(A): the Smith diagonal's entries > 1
    return [d for d in il.smith_diagonal(A.data, A.rows, A.cols) if d > 1]


def test_smith_diagonal_never_factors():
    # the first entry is a product of two primes of about 31 bits each
    A = IntMatrix.from_rows([[2147483647 * 2147483629, 0], [0, 6]])
    assert _cokernel_torsion(A) == list(snf(A).invariants)
    assert il.smith_diagonal(A.data, 2, 2) == [1, 6 * 2147483647 * 2147483629]


def test_cokernel_torsion_matches_snf():
    rng = random.Random(88)
    for _ in range(50):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = IntMatrix.from_rows(_random_matrix(rng, m, n), cols=n)
        assert _cokernel_torsion(A) == list(snf(A).invariants)


def test_cokernel_torsion_large_dispatch():
    # dense and few units: most of the work falls to the dense hand-off
    rng = random.Random(4242)
    rows = _random_matrix(rng, 160, 40, -3, 3)
    A = IntMatrix.from_rows(rows, cols=40)
    want = il._smith_eliminate(il._Eliminator(rows, 160, 40))
    assert _cokernel_torsion(A) == [d for d in want if d > 1]


def test_quotient_invariants_mod_matches_presentation():
    rng = random.Random(61)
    for _ in range(40):
        dim = rng.randint(1, 4)
        N = rng.choice([None, 2, 3, 4, 8, 9, 12])
        kcols = [[rng.randint(-4, 4) for _ in range(dim)] for _ in range(rng.randint(1, 4))]
        icols = []
        for _ in range(rng.randint(0, 3)):
            col = [0] * dim
            for kc in kcols:
                q = rng.randint(-3, 3)
                col = [a + q * b for a, b in zip(col, kc)]
            icols.append([a % N for a in col] if N else col)
        want = quotient_presentation(kcols, icols, dim, mod=N).invariants()
        assert quotient_invariants(kcols, icols, dim, mod=N) == want


def test_quotient_invariants_mod_rejects_outside_relations():
    with pytest.raises(ValueError):
        quotient_invariants([[2, 0]], [[1, 0]], 2, mod=4)


def test_runs_without_numpy():
    # a None entry in sys.modules makes every numpy import fail
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import cohomolab.cli, cohomolab.engine, cohomolab.verify\n"
        "from cohomolab.engine import tate_cohomology\n"
        "from cohomolab.group_ring import GroupSpec\n"
        "from cohomolab.modules import trivial_module\n"
        "r = tate_cohomology(trivial_module(GroupSpec.of(2, 4)), 2)\n"
        "print(r.invariants.as_list())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[2, 4]"
