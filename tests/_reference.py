"""Reference implementations the library is tested against.

The row references work on group-ring matrices
(:class:`~cohomolab.group_ring.RingMatrix`) entry by entry: a ring element
acts on a module as the sum of its element matrices, a Hom leg is read off
the entries of a differential, and the comparison map sigma is built as a
ring matrix.  The library itself never builds any of these; its faces
functions list the same blocks directly.

The Hermite references keep every basis dense and find each pivot by
scanning, where the library keeps (pivot, {row: value}) pairs.  The Smith
form with transforms, checked with dense matrix helpers, runs the library's
elimination on whole matrices.  The fixed points M^G are the degree-0
reference.  Invariant factors are also regrouped from prime powers, the
other way to normalize a list of cyclic orders.

The pair-table identity of a factor set is checked triple by triple, one
module vector at a time, where the library reads one vector over the third
element per pair and module coordinate.

The Schur complement of unit pivots known in advance reduces every row the
pivots leave as a dict, entry by entry, where the library reads a
standard-resolution leg's Smith diagonal off the critical rows and columns
of its Morse complex alone.

The skeleton and the faces of a monomial leg are listed from the monomial
bases on every call, and its Hom rows from those faces, a dual leg
regrouped by target; the norm and antipode blocks are summed and powered
through the module's element table.  The Morse matching of a
standard-resolution leg,
with its pivots, by walking :func:`~cohomolab.engine._morse_partner` over
every cell, where the library reads both from tables built once per shape
and degree: a monomial table grown by prefix from the tables of one
variable fewer, each Morse table from the one below it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Sequence

from cohomolab.engine import (
    FactorSet,
    _BarTables,
    _Block,
    _cell_rows,
    _hom_rows,
    _morse_partner,
    _Source,
)
from cohomolab.group_ring import GroupSpec, RingElement, RingMatrix, partial_norm
from cohomolab.intlinalg import (
    AbelianInvariants,
    IntMatrix,
    _dict_row,
    _echelon_insert,
    _Eliminator,
    _smith_eliminate,
    kernel_columns,
    quotient_invariants,
)
from cohomolab.modules import GModule, _combine, _dense, _sparse_rows
from cohomolab.resolutions import bar_basis, monomial_basis


def act(M: GModule, x: RingElement) -> IntMatrix:
    """Matrix of x in Z[G] acting on the module (reduced mod N if finite):
    the sum over the support of x of c times the matrix of g, read from the
    element table."""
    if x.group != M.spec:
        raise ValueError("ring element is over a different group")
    d = M.rank
    out = _combine([(c, M.element_rows(g)) for g, c in x.items()], d)
    A = IntMatrix(d, d, tuple(map(tuple, out)))
    return A.mod(M.modulus) if M.modulus else A


def norm_block(M: GModule, i: int) -> list[list[tuple[int, int]]]:
    """N_i(A) = I + A_i + ... + A_i^(o_i - 1), row by row, summed over the
    powers of A_i read from the module's element table and reduced mod N:
    ``GModule.block_rows(i, 0)`` as a sum of o_i matrices."""
    G = M.spec
    terms = [(1, M.element_rows(G.generator(i, k))) for k in range(G.orders[i])]
    return _sparse_rows(_combine(terms, M.rank), M.modulus)


def antipode_block(M: GModule, i: int) -> list[list[tuple[int, int]]]:
    """A_i^(o_i - 1) - I, row by row, its power read from the module's
    element table and reduced mod N: ``GModule.block_rows(i, o_i - 1)``
    through every power of A_i."""
    G = M.spec
    power = M.element_rows(G.generator(i, G.orders[i] - 1))
    terms = [(1, power), (-1, M.element_rows(G.identity()))]
    return _sparse_rows(_combine(terms, M.rank), M.modulus)


def action_power(M: GModule, i: int, k: int) -> IntMatrix:
    """The matrix of the k-th power of generator i, a dense view of the
    module's element table."""
    return _dense(M.element_rows(M.spec.generator(i, k)))


def hom_constraint_rows(M: GModule, D: RingMatrix) -> Iterator[list[tuple[int, int]]]:
    """Rows of the map phi -> phi . D between Hom-spaces, as sparse
    (index, coeff) lists, streamed.

    Source j (a column of D) meets target i (a row of D) through act(D[i, j]),
    in the entry order of D; dimensions (d*cols(D)) x (d*rows(D)).  It shares
    only :func:`~cohomolab.engine._hom_rows` with the library's legs, not
    their blocks or their regroup.
    """
    cache: dict[RingElement, _Block] = {}
    sources: list[_Source] = [[] for _ in range(D.cols)]
    for (i, j), elem in D.entries.items():
        blk = cache.get(elem)
        if blk is None:
            blk = cache[elem] = [[(u, c) for u, c in enumerate(r) if c] for r in act(M, elem).data]
        sources[j].append((i, blk))
    yield from _hom_rows(M.rank, sources)


# ---------------------------------------------------------------------------
# comparison chain map between the standard and monomial resolutions


def _prefix_product(spec: GroupSpec, exps: tuple[int, ...], upto: int) -> tuple[int, ...]:
    # group element a_1^e_1 * ... * a_(upto-1)^e_(upto-1)
    e = [0] * spec.ngens
    for j in range(upto):
        e[j] = exps[j] % spec.orders[j]
    return tuple(e)


def sigma(spec: GroupSpec, n: int) -> RingMatrix:
    """Chain map from the standard resolution to the monomial one, n <= 2.

    Degree 1 sends [g] with g = prod_i a_i^(k_i) to
    sum_i (prod_(j<i) a_j^(k_j)) * (1 + a_i + ... + a_i^(k_i - 1)) x_i;
    degree 2 is the bilinear double-sum refinement with the one-generator
    blocks [a_i^k, a_j^l] resolved by the three-case rule (0 for i < j,
    a floor-quotient multiple of x_i^2 for i = j, a product monomial with
    partial-norm coefficients for i > j).
    """
    if n == 0:
        return RingMatrix(spec, 1, 1, {(0, 0): RingElement.one(spec)})
    if n == 1:
        src = bar_basis(spec, 1)
        entries: dict[tuple[int, int], RingElement] = {}
        for col, (g,) in enumerate(src):
            for i, k in enumerate(g):
                if k:
                    prefix = _prefix_product(spec, g, i)
                    coeff = RingElement.of_element(spec, prefix) * partial_norm(spec, i, k)
                    entries[(i, col)] = coeff
        return RingMatrix(spec, spec.ngens, len(src), entries)
    if n == 2:
        return _sigma2(spec)
    raise ValueError("comparison map is only available in degrees 0..2")


def _sigma2(spec: GroupSpec) -> RingMatrix:
    s = spec.ngens
    src = bar_basis(spec, 2)
    dst = monomial_basis(s, 2)
    dst_index = {m: i for i, m in enumerate(dst)}
    entries: dict[tuple[int, int], RingElement] = {}

    def add(row: int, col: int, coeff: RingElement) -> None:
        if coeff:
            key = (row, col)
            entries[key] = entries[key] + coeff if key in entries else coeff

    for col, (g, h) in enumerate(src):
        for i in range(s):
            k = g[i]
            if not k:
                continue
            for j in range(i + 1):
                l = h[j]
                if not l:
                    continue
                outer = RingElement.of_element(
                    spec,
                    spec.mul(_prefix_product(spec, g, i), _prefix_product(spec, h, j)),
                )
                if i == j:
                    q = (k + l) // spec.orders[i]
                    if q:
                        mono = tuple(2 if t == i else 0 for t in range(s))
                        add(dst_index[mono], col, outer.scale(q))
                else:  # i > j
                    # the minus sign is forced by the chain-map identity:
                    # d applied to the mixed monomial picks up (-1) from the
                    # position of x_i, so the block must compensate
                    coeff = outer * partial_norm(spec, j, l) * partial_norm(spec, i, k)
                    mono = tuple(1 if t in (i, j) else 0 for t in range(s))
                    add(dst_index[mono], col, -coeff)
    return RingMatrix(spec, len(dst), len(src), entries)


# ---------------------------------------------------------------------------
# the pair-table identity of a factor set


def cocycle_identity_holds(fs: FactorSet) -> bool:
    """g f(h,k) - f(gh,k) + f(g,hk) - f(g,h) = 0 for every triple (g, h, k),
    reduced mod N, evaluated triple by triple."""
    spec = fs.module.spec
    N = fs.module.modulus
    elements = spec.elements()
    index = {g: a for a, g in enumerate(elements)}
    f = [[fs.table[(g, h)] for h in elements] for g in elements]
    mul = [[index[spec.mul(g, h)] for h in elements] for g in elements]
    for a, g in enumerate(elements):
        act_g = fs.module.element_rows(g)
        for b, fgh in enumerate(f[a]):
            f_gh = f[mul[a][b]]
            for c, fhk in enumerate(f[b]):
                f_ghk, f_g_hk = f_gh[c], f[a][mul[b][c]]
                total = [
                    sum(x * fhk[u] for u, x in grow) - f_ghk[t] + f_g_hk[t] - fgh[t]
                    for t, grow in enumerate(act_g)
                ]
                if N:
                    total = [x % N for x in total]
                if any(total):
                    return False
    return True


# ---------------------------------------------------------------------------
# dense Hermite bases and quotient presentations


def _first_nonzero(row: Sequence[int]) -> int | None:
    for j in range(len(row)):
        if row[j]:
            return j
    return None


def column_hnf(cols, dim: int, mod: int | None = None) -> list[list[int]]:
    """The canonical column Hermite basis, dense: the library's echelon
    accumulator, densified, then reduced column by column, first pivot
    first, by the columns after it as they stand."""
    pivots: dict[int, dict[int, int]] = {i: {i: mod} for i in range(dim)} if mod else {}
    for v in cols:
        _echelon_insert(pivots, _dict_row(v, mod or 0), mod=mod)
    ech = [[c.get(k, 0) for k in range(dim)] for _, c in sorted(pivots.items())]
    piv = [(_first_nonzero(c), k) for k, c in enumerate(ech)]
    for p, k in piv:
        c = ech[k]
        for p2, k2 in piv:
            if p2 > p:
                q = ech[k2][p2]
                x = c[p2] // q if q else 0
                if x:
                    ech[k] = c = [a - x * b for a, b in zip(c, ech[k2])]
    return ech


def hermite_reduce(vec: Sequence[int], hnf_cols: Sequence[Sequence[int]]) -> list[int]:
    """Canonical residue of ``vec`` modulo the lattice with Hermite basis ``hnf_cols``."""
    v = list(vec)
    for c in hnf_cols:
        p = _first_nonzero(c)
        q = v[p] // c[p]
        if q:
            v = [a - q * b for a, b in zip(v, c)]
    return v


def _pivot_tails(hnf_cols):
    # an echelon column vanishes above its pivot p, so only c[p:] acts
    return [(p, c[p:]) for c, p in zip(hnf_cols, map(_first_nonzero, hnf_cols))]


def solve_in_span(hnf_cols: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int] | None:
    """Integer coordinates of ``vec`` in the Hermite basis, or None if outside."""
    return _solve(_pivot_tails(hnf_cols), vec)


def _solve(tails, vec) -> list[int] | None:
    v = list(vec)
    coords = []
    for p, tail in tails:
        q, r = divmod(v[p], tail[0])
        if r:
            return None
        if q:
            v[p:] = [a - q * b for a, b in zip(v[p:], tail)]
        coords.append(q)
    return None if any(v) else coords


def quotient_presentation(basis_cols, relation_cols, dim: int, mod: int | None = None) -> dict:
    """The fields of the library's presentation of span(basis) /
    span(relations), dense, with every generator column and its residue."""
    hk = column_hnf(basis_cols, dim, mod)
    rel = column_hnf(relation_cols, dim, mod)
    r = len(hk)
    tails = _pivot_tails(hk)
    coords = [_solve(tails, t) for t in rel]
    if None in coords:
        raise ValueError("relation columns do not lie in the spanned lattice")
    x_rows = [[c[i] for c in coords] for i in range(r)]
    el = _Eliminator(x_rows, r, len(rel), mod=mod, want_u=True, want_uinv=True)
    diag = _smith_eliminate(el)
    full = diag + [0] * (r - len(diag))
    if mod:
        full = [gcd(d, mod) if d else mod for d in full]
    gens = []
    for i in range(r):
        col = [0] * dim
        for k, hcol in enumerate(hk):
            c = el.uinv[k][i]
            if c:
                for p in range(dim):
                    col[p] += c * hcol[p]
        gens.append([x % mod for x in col] if mod else col)
    return {
        "hnf_basis": hk,
        "relation_hnf": rel,
        "u": el.u,
        "uinv": el.uinv,
        "diagonal": full,
        "generators": gens,
        "residues": [hermite_reduce(g, rel) for g in gens],
    }


# ---------------------------------------------------------------------------
# Smith normal form with transforms, and dense matrix helpers


@dataclass(frozen=True)
class SmithDecomposition:
    """U * A * V = D with U, V unimodular and D = diag(d1 | d2 | ...).

    ``invariants`` lists the diagonal entries larger than 1 (units dropped,
    ascending divisibility); ``zero_entries`` counts zero diagonal positions.
    """

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    invariants: tuple[int, ...]
    zero_entries: int

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D.data[i][i] for i in range(min(self.D.rows, self.D.cols)))


def snf(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form U*A*V = D over Z, from the library's dense
    elimination with both transforms.

    Pivot choice is the smallest-absolute-value nonzero entry, ties broken by
    lowest row then column index, so the output is deterministic.

    >>> A = IntMatrix.from_rows([[2, 4], [6, 8]])
    >>> d = snf(A)
    >>> d.invariants
    (2, 4)
    >>> mul(mul(d.U, A), d.V) == d.D
    True
    """
    el = _Eliminator(A.data, A.rows, A.cols, want_u=True, want_v=True)
    diag = _smith_eliminate(el)
    D = IntMatrix.from_rows(el.a, cols=A.cols)
    U = IntMatrix.from_rows(el.u, cols=A.rows)
    V = IntMatrix.from_rows(el.v, cols=A.cols)
    invariants = tuple(d for d in diag if d > 1)
    zero_entries = min(A.rows, A.cols) - len(diag)
    return SmithDecomposition(U, D, V, invariants, zero_entries)


def from_columns(cols: Sequence[Sequence[int]], dim: int) -> IntMatrix:
    """The dim-row matrix with columns ``cols``."""
    return IntMatrix.from_rows([[c[i] for c in cols] for i in range(dim)], cols=len(cols))


def zeros(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, tuple((0,) * cols for _ in range(rows)))


def columns(A: IntMatrix) -> list[list[int]]:
    return [[r[j] for r in A.data] for j in range(A.cols)]


def mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    if A.cols != B.rows:
        raise ValueError("dimension mismatch")
    cols = columns(B)
    out = tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in cols) for r in A.data)
    return IntMatrix(A.rows, B.cols, out)


def is_zero(A: IntMatrix) -> bool:
    return not any(map(any, A.data))


# ---------------------------------------------------------------------------
# fixed points


def invariants_submodule(m: GModule) -> IntMatrix:
    """Basis (columns) of the fixed points M^G.

    For a finite module the columns generate M^G together with N*Z^rank.
    """
    rows = (
        [(j, A.data[i][j] - (i == j)) for j in range(m.rank)]
        for A in m.actions
        for i in range(m.rank)
    )
    return from_columns(kernel_columns(rows, m.rank, mod=m.modulus), m.rank)


def invariants_structure(m: GModule) -> AbelianInvariants:
    """The structure of M^G."""
    basis = invariants_submodule(m)
    if m.is_lattice:
        return AbelianInvariants(basis.cols, ())
    return quotient_invariants(columns(basis), [], m.rank, mod=m.modulus)


# ---------------------------------------------------------------------------
# invariant factors from prime powers


def from_prime_powers(powers, free_rank: int = 0) -> AbelianInvariants:
    """Invariant factors of a direct sum of Z/p^e given as (p, e) pairs.

    The k-th largest factor multiplies the k-th largest power of every
    prime, so it is divisible by the next smaller one.
    """
    by_prime: dict[int, list[int]] = {}
    for p, e in powers:
        if e > 0:
            by_prime.setdefault(p, []).append(e)
    for exps in by_prime.values():
        exps.sort(reverse=True)
    width = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for i in range(width):
        f = 1
        for p, exps in by_prime.items():
            if i < len(exps):
                f *= p ** exps[i]
        factors.append(f)
    return AbelianInvariants(free_rank, tuple(reversed(factors)))


# ---------------------------------------------------------------------------
# the Schur complement row by row


def schur_complement(
    rows: Sequence[Sequence[tuple[int, int]]], pivots: dict[int, int], mod: int | None = None
) -> list[dict[int, int]] | None:
    """The distinct nonzero rows of the Schur complement of unit pivots
    known in advance, or None where the pivots cannot be trusted.

    ``rows`` are the (column, value) pairs of the rows of A, and ``pivots``
    maps a column j to the row that holds its pivot.  Every other row has
    each entry x in a pivot column j replaced by -x R(j), where R(j) is the
    pivot row of j without its pivot, reduced the same way and divided by
    the pivot.  The result is None unless every pivot is a unit (mod N with
    ``mod``), no row holds two pivots, and no R(j) needs itself: then the
    pivot block is triangular up to order with a unit diagonal, one
    unimodular block triangularization clears it, and Smith(A) is the
    identity on the pivots plus Smith(S) of the complement S.  A row that
    holds two pivots has both their columns, so their R's need each other
    and the walk meets that as a cycle.  Dropping the duplicate rows of S
    keeps its row lattice, and so its Smith form.

    >>> schur_complement([[(0, 1), (1, 2)], [(0, 3), (1, 1)]], {0: 0})
    [{1: -5}]
    >>> schur_complement([[(0, 2), (1, 2)], [(0, 3), (1, 1)]], {0: 0}) is None
    True
    """
    N = mod or 0
    if not all(0 <= r < len(rows) for r in pivots.values()):
        return None
    # R(j) by pivot column
    solved: dict[int, dict[int, int]] = {}

    def reduce(row: Iterable[tuple[int, int]], skip: int = -1) -> dict[int, int]:
        out: dict[int, int] = {}
        for k, x in row:
            sub = solved.get(k)
            if sub is None:
                out[k] = out.get(k, 0) + x
            else:
                for q, y in sub.items():
                    out[q] = out.get(q, 0) - x * y
        out.pop(skip, None)
        return {q: y for q, x in out.items() if (y := x % N if N else x)}

    # each R(j) is solved once those of its pivot row's other pivot columns
    # are, by an explicit depth-first walk: the chains of R's can be long
    for start in pivots:
        if start in solved:
            continue
        stack, walking = [start], {start}
        while stack:
            j = stack[-1]
            row = rows[pivots[j]]
            wanted = next(
                (k for k, _ in row if k != j and k in pivots and k not in solved), None
            )
            if wanted is not None:
                if wanted in walking:
                    return None  # R(wanted) would need itself
                stack.append(wanted)
                walking.add(wanted)
                continue
            p = sum(x for k, x in row if k == j)
            if (gcd(p, N) != 1) if N else p not in (1, -1):
                return None
            # 1/p is p over Z; a unit times a nonzero entry stays nonzero
            inv = pow(p, -1, N) if N else p
            solved[j] = {q: x * inv % N if N else x * inv for q, x in reduce(row, j).items()}
            stack.pop()
            walking.discard(j)
    claimed = set(pivots.values())
    distinct: dict[tuple[tuple[int, int], ...], None] = {}
    for r, row in enumerate(rows):
        if r not in claimed and (left := reduce(row)):
            distinct[tuple(sorted(left.items()))] = None
    return [dict(key) for key in distinct]


# ---------------------------------------------------------------------------
# the skeletons of both resolutions, listed per call


def monomial_skeleton(
    s: int, m: int
) -> tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[tuple[int, bool, bool], ...], int]:
    """The monomial resolution's differential leaving degree m >= 1 over
    s generators, listed from the monomial bases with a dict lookup per
    face: per source, in basis order, its (target, kind) faces in pair
    order; the kinds, (i, odd, neg) in first-seen order; and the number of
    targets.  Monomial (k_1, ..., k_s) meets the one that drops a power of
    x_i, for i ascending, through a block of kind (i, k_i odd,
    k_1+...+k_(i-1) odd)."""
    index = {mono: j for j, mono in enumerate(monomial_basis(s, m - 1))}
    kinds: dict[tuple[int, bool, bool], int] = {}
    table = []
    for mono in monomial_basis(s, m):
        faces = []
        ksum = 0
        for i, k in enumerate(mono):
            if k:
                target = mono[:i] + (k - 1,) + mono[i + 1 :]
                kind = kinds.setdefault((i, k % 2 == 1, ksum % 2 == 1), len(kinds))
                faces.append((index[target], kind))
            ksum += k
        table.append(tuple(faces))
    return tuple(table), tuple(kinds), len(index)


def minimal_faces(M: GModule, m: int, dual: bool) -> tuple[list[_Source], int]:
    """The pairs each source of the monomial resolution's differential
    leaving degree m >= 1 meets, and the number of targets, listed from the
    monomial bases: monomial (k_1, ..., k_s) meets the one that drops a
    power of x_i, for i ascending, through (-1)^(k_1+...+k_(i-1)) times
    A_i - I (odd k_i) or N_i(A) (even k_i > 0); with ``dual``, through their
    antipodes A_i^-1 - I and N_i(A)."""
    s = M.spec.ngens
    index = {mono: j for j, mono in enumerate(monomial_basis(s, m - 1))}
    steps = [o - 1 if dual else 1 for o in M.spec.orders]
    sources = []
    for mono in monomial_basis(s, m):
        pairs = []
        ksum = 0
        for i, k in enumerate(mono):
            if k:
                target = mono[:i] + (k - 1,) + mono[i + 1 :]
                blk = M.block_rows(i, steps[i] if k % 2 else 0, ksum % 2 == 1)
                pairs.append((index[target], blk))
            ksum += k
        sources.append(pairs)
    return sources, len(index)


def minimal_rows(M: GModule, m: int, dual: bool) -> list[list[tuple[int, int]]]:
    """The Hom rows of the monomial resolution's leg leaving degree m,
    plain or ``dual``, through :func:`~cohomolab.engine._hom_rows` of the
    pairs :func:`minimal_faces` lists: the norm N_G at m = 0, and at m < 0
    the dual of the leg leaving -m.  A dual leg is regrouped by target, its
    sources in ascending index: the pair order of the antipode-transposed
    matrix."""
    if m:
        dual ^= m < 0
        sources, targets = minimal_faces(M, abs(m), dual)
    else:
        sources, targets = [[(0, M.block_rows(None))]], 1
    if dual:
        by_target: list[_Source] = [[] for _ in range(targets)]
        for src, pairs in enumerate(sources):
            for k, blk in pairs:
                by_target[k].append((src, blk))
        sources = by_target
    return list(_hom_rows(M.rank, sources))


def morse_splits(orders: tuple[int, ...], m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The Morse matching's pairs across the standard-resolution leg
    leaving degree m >= 1, walking :func:`~cohomolab.engine._morse_partner`
    over every cell of degree m - 1: for each cell split upward, in bar
    basis order, its index and the element indices of its up cell."""
    elements = GroupSpec(orders).nonidentity_elements()
    index = {g: e for e, g in enumerate(elements)}
    splits = []
    for c, cell in enumerate(itertools.product(elements, repeat=m - 1)):
        up = _morse_partner(orders, cell)
        if up is not None and len(up) == m:
            splits.append((c, tuple(index[g] for g in up)))
    return tuple(splits)


def bar_pivots(
    M: GModule, m: int, tables: _BarTables
) -> tuple[dict[int, int], dict[int, list[tuple[int, int]]]]:
    """The Morse pivots of the standard-resolution leg leaving degree m >= 1
    in the plain shape, as {column: row}, and the pivot rows by row index,
    from the walk of :func:`morse_splits`: each cell split into a cell h
    one degree up is a pivot column, coordinate by coordinate, in the rows
    of h."""
    d = M.rank
    pivots: dict[int, int] = {}
    rows: dict[int, list[tuple[int, int]]] = {}
    for c, up in morse_splits(M.spec.orders, m):
        h, cell_rows = _cell_rows(M, m, tables, up)
        for t, row in enumerate(cell_rows):
            pivots[c * d + t] = h * d + t
            rows[h * d + t] = row
    return pivots, rows
