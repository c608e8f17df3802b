"""Cohomology engine: Hom and tensor complexes of a module over a resolution.

Everything here reduces to exact integer linear algebra.  A module of rank d
turns each group-ring matrix entry into a d x d integer block; kernels,
images and quotients of the assembled block matrices give the ordinary,
Tate and homology groups together with canonical cocycle representatives.

Route selection is about cost, never about semantics:

* ``kernel``            exact kernel + quotient presentation, keeps
                        representatives; used for lattice coefficients
                        with representatives.  Where both maps exist the
                        kernel is the saturation of the image
                        (:func:`saturation_columns`, see below), and d_out
                        is read once, only to check each representative:
                        row by row, or run by run without rows on a plain
                        standard-resolution leg.  Degree 0, and any image
                        whose sparse elimination leaves a residual,
                        eliminate the kernel from d_out's rows instead
                        (:func:`kernel_columns`), which then double as the
                        check except on such a leg; no dense matrix is
                        built.
* ``cokernel-torsion``  lattice coefficients, invariants only: the free rank
                        dim - rk d_in - rk d_out plus the torsion of the
                        Smith diagonal of the incoming map.  With both maps
                        the free rank is 0 and the outgoing map is never
                        assembled; degree 0 lacks one map and builds the
                        other.  On the monomial resolution rows are
                        streamed into :func:`smith_diagonal` as they are
                        built, or, for a map with more rows than columns,
                        its columns: SNF(A) = SNF(A^T), so every diagonal
                        is eliminated over the short side.  On the standard
                        resolution the leg first gives up the unit pivots
                        of a Morse matching (see below), and only their
                        Schur complement, read run by run, is searched.
* ``universal-coefficients``
                        a reduction L/NL of a lattice, invariants only: two
                        Smith diagonals mod N, of the incoming and the
                        outgoing map, fed the same way.
* ``congruence``        any other finite coefficient modulus N, and every
                        finite-coefficient call that wants representatives:
                        the same :func:`kernel_columns` as ``kernel``, with
                        ``mod=N``, and quotients taken mod N.
* ``dual-shift``        divisible coefficients, evaluated on the dual
                        lattice one degree up.

All three entry points run through :func:`_complex_group`: it sizes the
incoming and outgoing maps of a degree from the resolution ranks, checks
every cap, and only then builds the maps its route needs, each once.  The
image of the incoming map, where one is needed, is the transpose of the
same streamed rows, kept as sparse {row: value} columns until the quotient
takes their Hermite basis; that basis is also the coboundary lattice every
representative is reduced by.  No dense Hom matrix is built.

Where the rows come from: every leg, the cocycle predicates and the
coboundaries included, is read by :func:`_leg_rows`.  A resolution only
lists the (target, block) pairs each source basis element meets, and
:func:`_hom_rows` turns them into rows.  On the monomial resolution these
are at most 6s + 1 blocks of the module's block table (``GModule.block_rows``)
over monomial indices.  The standard resolution is listed in prefix runs
(:func:`_bar_faces`): the |G| - 1 sources [g_1|...|g_(m-1)|x] that share a
prefix meet consecutive first faces through one matrix of the group-element
table (``GModule.element_rows``), consecutive inner merge faces and one
last face through +-I, and their last merges through one row of the
product table.  A plain leg's rows are emitted straight from the runs, and
a representative is checked against the runs without building a row
(:func:`_bar_values`).  A dual leg (homology, negative Tate degrees) is
listed as the transpose of a plain-shaped one whose first-face blocks are
the transposed antipode blocks.  The comparison map sigma from the
standard resolution to the monomial one, which factor sets are read
through, is listed the same way by :func:`_sigma_faces`, its blocks sums
of element matrices (prefix elements times partial norms).
Nothing here builds a group-ring matrix.

The Smith pivots of the standard resolution come from algebraic discrete
Morse theory (E. Skoldberg, "Morse theory from an algebraic viewpoint",
Trans. AMS 358, 2006; M. Joellenbeck and V. Welker, "Minimal resolutions
via algebraic discrete Morse theory", Mem. AMS 197, 2009).  The rewriting
system x_j x_i -> x_i x_j (j > i), x_i^(o_i) -> 1 on the normal words
x_1^e_1 ... x_s^e_s pairs bar cells along merge faces (:func:`_morse_partner`).
Each pair is a +-I block of the leg, a unit for every module and modulus,
and the cells left unpaired in degree n number C(n+s-1, s-1): the monomial
resolution is the Morse complex of the standard one.  The pivots, and their
rows alone, are built from the cells before anything else is read
(:func:`_bar_pivots`), so the leg's Smith diagonal is a 1 per pivot plus
the searched diagonal of the Schur complement
(:func:`~cohomolab.intlinalg.schur_complement`).  No row of the leg is
listed: with each column weighted by a fixed packed integer, every row's
complement is the value of one cochain, which :func:`_bar_values` reads run
by run with list arithmetic, and the slot width is bounded from the blocks.
For the (2,2,4) trivial map of degree 3 the 3375 values are 34 distinct
rows in 6 columns.  A dual leg is read transposed, in the plain shape with
transposed antipode blocks and on the plain leg's pivot positions, so every
complement is taken over the short side.  The arithmetic stays the bar
matrices' own, so the oracle still shares nothing with the monomial
resolution, and exactness never rests on the matching: a pivot that is not
a unit, a row claimed twice or a cycle in the substitution sends the leg
back to the plain search, which lists its rows.

The cokernel-torsion formula: Z^dim / ker d_out embeds in a
free group, so ker d_out is saturated, of rank dim - rk d_out, and the
torsion of H = ker d_out / im d_in is that of coker d_in, read off its Smith
diagonal (Dumas, Heckenbach, Saunders and Welker build homology the same
way).  When both maps exist (every complete-resolution degree, and positive
degrees otherwise) H is killed by |G| (Brown, Cohomology of Groups, Cor.
III.10.2, and its Tate form in ch. VI), so its free rank is 0 and d_out is
not needed; when one is missing (degree 0) its rank is 0.  Which maps exist
is known from the degree alone, so no finiteness flag is needed.  The same
theorem gives the kernel route its cocycles: ker d_out is saturated and
contains im d_in with finite index, so it is the saturation of im d_in.
Both routes rest on the theorem, so both check it: on those degrees every
invariant of H must divide |G| and the free rank must be 0, or the call
raises :class:`VerificationError`.

The universal-coefficients route, in two lines: Hom(P_n, L/N) is
Hom(P_n, L) (x) Z/N, a complex of free abelian groups, so H^n(L/N) =
H^n(L) (x) Z/N + Tor(H^{n+1}(L), Z/N) (homology: Tor of H_{n-1}); the torsion
of H^{n+1}(L) is that of coker d_out, and over Z/N each Smith entry d
becomes gcd(d, N).  Hence H = (Z/N)^(dim - r_in - r_out) + the sum of Z/e
over the non-unit entries e of both mod-N diagonals, r being their lengths.
This needs a lift with d o d = 0 over Z, which only
:func:`~cohomolab.modules.reduce_mod` vouches for (``GModule.lifts_to_lattice``).
Over C2 the action [[1, 2], [0, 1]] has order 2 mod 4 but not over Z; in
degree 1 its diagonals are (2) and (2, 2), so r_in + r_out = 3 exceeds
dim = 2 and no formula in them gives the true H^1 = Z/2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from math import prod
from operator import add, itemgetter, sub
from typing import Callable, Iterable, Iterator, Sequence

from cohomolab.intlinalg import (
    AbelianInvariants,
    QuotientPresentation,
    kernel_columns,
    quotient_invariants,
    quotient_presentation,
    saturation_columns,
    schur_complement,
    smith_diagonal,
)
from cohomolab.limits import EngineLimits
from cohomolab.modules import DualDivisible, GModule, _combine, _sparse_rows, star_dual
from cohomolab.resolutions import (
    bar_basis,
    complete_rank,
    make_resolution,
    monomial_basis,
)


class VerificationError(RuntimeError):
    """An internal consistency check failed; results must not be trusted."""


# presentations (and hence representatives) cost roughly dim^3 scalar steps,
# so they are only produced automatically below this coordinate dimension
_AUTO_REPRESENTATIVE_DIM = 64


# ---------------------------------------------------------------------------
# Cochains


@dataclass(frozen=True)
class Cochain:
    """A map from the degree-n piece of a resolution into a module.

    ``values`` holds one module-element vector per basis element, in basis
    order.  The same shape serves for chains on the tensor side.
    """

    degree: int
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(set(map(len, self.values))) > 1:
            raise ValueError("all value vectors must have the same width")

    def flat(self) -> list[int]:
        return [x for vec in self.values for x in vec]

    @staticmethod
    def from_flat(degree: int, flat: Iterable[int], count: int, rank: int) -> "Cochain":
        data = tuple(flat)
        if len(data) != count * rank:
            raise ValueError("flat vector has the wrong length")
        if not rank:
            return Cochain(degree, ((),) * count)
        # one iterator read rank times per vector: the values, grouped in order
        return Cochain(degree, tuple(zip(*[iter(data)] * rank)))


# ---------------------------------------------------------------------------
# Block assembly


# a module block, as the nonzero entries of its rows
_Block = list[list[tuple[int, int]]]
# the (target index, block) pairs one source basis element meets
_Source = list[tuple[int, _Block]]


def _hom_rows(d: int, sources: Iterable[_Source]) -> Iterator[list[tuple[int, int]]]:
    """The Hom rows of a map given by the pairs each source meets: per
    source and module coordinate t, row t of each block at its target's
    coordinates, in pair order."""
    for pairs in sources:
        for t in range(d):
            row: list[tuple[int, int]] = []
            for k, blk in pairs:
                base = k * d
                row += [(base + u, c) for u, c in blk[t]]
            yield row


def _minimal_faces(M: GModule, m: int, dual: bool) -> tuple[list[_Source], int]:
    """The pairs each source of the monomial resolution's differential
    leaving degree m >= 1 meets, and the number of targets: monomial
    (k_1, ..., k_s) meets the one that drops a power of x_i, for i ascending,
    through (-1)^(k_1+...+k_(i-1)) times A_i - I (odd k_i) or N_i(A) (even
    k_i > 0), as in :func:`~cohomolab.resolutions.minimal_diff`; with
    ``dual``, through their antipodes A_i^-1 - I and N_i(A)."""
    s = M.spec.ngens
    index = {mono: j for j, mono in enumerate(monomial_basis(s, m - 1))}
    # the exponent of x_i in A_i - I, or in its antipode A_i^-1 - I
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


# a prefix run of the standard resolution's differential, see _bar_faces:
# (g_1, first-face start, inner merges as (start, sign), last-merge start,
# product-table row of g_(m-1), last face)
_Run = tuple[int, int, list[tuple[int, int]], int, list[int], int]


def _bar_faces(
    M: GModule, m: int, dual: bool, limits: EngineLimits | None
) -> tuple[Iterator[_Run], int, list[_Block]]:
    """The differential of the standard resolution leaving degree m >= 1
    in prefix runs, streamed, after the caps of ``bar_diff``; the number of
    targets; and the first-face blocks, by element index.

    Source [g_1|...|g_m] meets its first face [g_2|...|g_m] through the
    matrix of g_1, each merge face i through (-1)^i I (none when g_i g_(i+1)
    is the identity) and its last face through (-1)^m I, in the order
    :func:`~cohomolab.resolutions.bar_diff` inserts them.  With ``dual`` the
    first-face blocks are the transposed antipode blocks, the matrix of
    g_1^-1 transposed: the runs then list the transpose of the dual leg in
    the plain leg's shape, since each other face's +-I is its own
    transpose.  Elements are indexed in nonidentity order and sources
    and targets in bar basis order, so a run, the |G| - 1 sources
    [g_1|...|g_(m-1)|x] that share a prefix, is consecutive, by x
    ascending.  Over a run:

    * the first faces are the consecutive targets from ``first``, all met
      through the block of g_1;
    * so is each inner merge face, i < m - 1, from its start;
    * the last merge face [...|g_(m-1) x] is target ``at`` plus the index
      of g_(m-1) x in the product-table ``row`` of g_(m-1), which reads -1
      where that product is the identity;
    * the last face is the one target ``last``, the prefix itself.

    For m = 1 the one run has g_1 = -1: source [x] meets [] through the
    block of x.  First and last face coincide only when every g_i is equal
    (always for m = 1).
    """
    if m < 1:
        raise ValueError("differential starts at degree 1")
    G = M.spec
    size = G.order - 1
    limits = limits or EngineLimits.from_env()
    limits.check_bar_degree(m)
    limits.check_cells(size ** (m - 1), size**m, "standard-resolution differential")
    # merged[a][b]: the index of g_a g_b, or -1 for the identity
    merged = [[c - 1 for c in row[1:]] for row in _product_table(G.orders)[1:]]
    blocks = [M.element_rows(G.inv(g) if dual else g) for g in G.nonidentity_elements()]
    if dual:  # transposed, each row by ascending column
        blocks = [
            [[(t, c) for t, r in enumerate(b) for u, c in r if u == w] for w in range(len(b))]
            for b in blocks
        ]
    power = [size**k for k in range(m + 1)]

    def runs() -> Iterator[_Run]:
        if m == 1:
            yield -1, 0, [], 0, [-1] * size, 0
            return
        for p, prefix in enumerate(itertools.product(range(size), repeat=m - 1)):
            inner = []
            for i in range(1, m - 1):
                b = merged[prefix[i - 1]][prefix[i]]
                if b >= 0:
                    # the prefix g_1..g_(i-1), then b, then g_(i+2)..g_(m-1), x
                    start = (p // power[m - i] * size + b) * power[m - i - 1]
                    inner.append((start + p % power[m - i - 2] * size, (-1) ** i))
            yield prefix[0], p % power[m - 2] * size, inner, p - p % size, merged[prefix[-1]], p

    return runs(), power[m - 1], blocks


def _bar_sources(
    M: GModule, m: int, runs: Iterable[_Run], blocks: list[_Block]
) -> Iterator[tuple[int, _Block, list[tuple[int, int]]]]:
    """Per source of the runs of :func:`_bar_faces`, in source order: its
    first face, the block it meets it through, and the (target,
    coefficient) pairs of its other faces, coefficients reduced mod N as
    act reduces them, zeros left out.  Where first and last face coincide
    the block is act(g_1 + (-1)^m), which may vanish."""
    d, N = M.rank, M.modulus
    size = len(blocks)

    def unit(sign: int) -> int:
        return sign % N if N else sign

    merge, end = unit((-1) ** (m - 1)), unit((-1) ** m)
    diagonal: dict[int, _Block] = {}
    for a, first, inner, at, row, last in runs:
        inner = [(s, c) for s, sign in inner if (c := unit(sign))]
        for x in range(size):
            g, f = (x, first) if a < 0 else (a, first + x)
            tail = [(s + x, c) for s, c in inner]
            if row[x] >= 0 and merge:
                tail.append((at + row[x], merge))
            if f != last:
                if end:
                    tail.append((last, end))
                yield f, blocks[g], tail
                continue
            blk = diagonal.get(g)
            if blk is None:
                eye = [[(t, 1)] for t in range(d)]
                terms = [(1, blocks[g]), ((-1) ** m, eye)]
                blk = diagonal[g] = _sparse_rows(_combine(terms, d), N)
            yield f, blk, tail


def _bar_values(
    M: GModule,
    m: int,
    vecs: Sequence[Sequence[int]],
    limits: EngineLimits | None,
    dual: bool = False,
) -> Iterator[list[int]]:
    """phi . D over Z for each flat cochain phi of ``vecs``, D the standard
    resolution's differential leaving degree m >= 1, one run of
    :func:`_bar_faces` at a time: per run, phi and module coordinate t, the
    values at t of the run's sources, by x.  That is the block of g_1 on the
    slice of phi over the first faces, plus or minus the slices over the
    inner merges, plus or minus phi gathered through the product-table row
    of the last merge, and plus or minus phi at the last face.  With
    ``dual``, D is the dual leg transposed, read in the plain shape through
    the transposed antipode blocks.  Each value is a sum of at most
    (longest block row) + m terms, each a block entry or +-1 times an entry
    of phi: where first and last face coincide the two stay separate
    terms."""
    runs, _, blocks = _bar_faces(M, m, dual, limits)
    d = M.rank
    size = len(blocks)
    # cols[r][t]: coordinate t of vecs[r] per target, then the 0 that the
    # product table's -1 reads
    cols = [[[*vec[t::d], 0] for t in range(d)] for vec in vecs]
    for a, first, inner, at, row, last in runs:
        end = first + size
        for phi in cols:
            for t in range(d):
                if a < 0:
                    v = [sum(c * phi[u][first] for u, c in blk[t]) for blk in blocks]
                elif len(blk := blocks[a][t]) == 1 and blk[0][1] == 1:
                    v = phi[blk[0][0]][first:end]
                else:
                    v = [0] * size
                    for u, c in blk:
                        v = [y + c * z for y, z in zip(v, phi[u][first:end])]
                col = phi[t]
                for s, sign in inner:
                    v = list(map(add if sign > 0 else sub, v, col[s : s + size]))
                seg = col[at : at + size]
                seg.append(0)
                merged, c = map(seg.__getitem__, row), col[last]
                # the last merge and the last face, signs (-1)^(m-1) and (-1)^m
                if m % 2:
                    yield [y + z - c for y, z in zip(v, merged)]
                else:
                    yield [y - z + c for y, z in zip(v, merged)]


def _morse_partner(
    orders: Sequence[int], cell: Sequence[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...] | None:
    """The partner of the standard-resolution cell [w_1|...|w_m], each w_k
    a nonidentity exponent vector, under the Morse matching of the
    rewriting system x_j x_i -> x_i x_j (j > i), x_i^(o_i) -> 1: the cell
    one degree up that merges back to it (a split), the cell one degree
    down that it merges to, or None for a critical cell.

    A w_1 that is not a letter x_i is split as x_f | w_1 - x_f, f its first
    nonzero index.  Otherwise the scan runs over k = 1, 2, ... with a = w_k,
    b = w_(k+1), l the last index of a and f the first of b: u = x_f where
    l > f, u = (o_f - a_l) x_f where l = f and a_l + b_f >= o_f, and where
    neither holds the cell merges a | b into a + b.  A u short of b splits
    b as u | b - u; u = b goes on scanning.  A split at position k + 1 is
    undone by the merge face k + 1 of the cell above, with block
    (-1)^(k+1) I.  In degree m the critical cells number C(m+s-1, s-1),
    the monomial ranks: the monomial resolution is the Morse complex of the
    standard one.

    >>> _morse_partner((2, 2), ((1, 1),)), _morse_partner((2, 2), ((1, 0), (0, 1)))
    (((1, 0), (0, 1)), ((1, 1),))
    >>> _morse_partner((2, 2), ((0, 1), (1, 0))) is None
    True
    """
    if not cell:
        return None

    def split(k: int, f: int, e: int) -> tuple[tuple[int, ...], ...]:
        # w_(k+1) = b as u | b - u, u = e x_f
        b = cell[k]
        u = tuple(e * (i == f) for i in range(len(b)))
        return (*cell[:k], u, tuple(map(sub, b, u)), *cell[k + 1 :])

    if sum(cell[0]) > 1:
        return split(0, next(i for i, e in enumerate(cell[0]) if e), 1)
    for k in range(1, len(cell)):
        a, b = cell[k - 1], cell[k]
        last = max(i for i, e in enumerate(a) if e)
        f = next(i for i, e in enumerate(b) if e)
        if last > f:
            e = 1
        elif last == f and a[f] + b[f] >= orders[f]:
            e = orders[f] - a[f]
        else:
            return (*cell[: k - 1], tuple(map(add, a, b)), *cell[k + 1 :])
        if sum(b) > e:  # u = e x_f is short of b
            return split(k, f, e)
    return None


def _bar_pivots(
    M: GModule, m: int, blocks: list[_Block]
) -> tuple[dict[int, int], dict[int, list[tuple[int, int]]]]:
    """The unit pivots of the standard-resolution leg leaving degree m >= 1
    in the plain shape of :func:`_bar_faces` with first-face ``blocks``, as
    {column: row}, and the pivot rows by row index.  Each cell c of degree
    m - 1 that :func:`_morse_partner` splits into h is a merge face of h,
    met through +-I and through no other face, so coordinate t of c is a
    pivot column in row t of h.  That row is built from h alone: its first
    face through row t of the block of g_1, its merge faces i through
    (-1)^i and its last face through (-1)^m, a target met twice (the first
    and last face of [g|...|g]) summed, coefficients reduced mod N, zeros
    left out.  Cells are indexed as in :func:`_bar_faces`; one pass over the
    degree-(m - 1) cells."""
    G = M.spec
    d, N = M.rank, M.modulus
    elements = G.nonidentity_elements()
    index = {g: e for e, g in enumerate(elements)}
    size = len(elements)
    merged = [[c - 1 for c in row[1:]] for row in _product_table(G.orders)[1:]]
    power = [size**k for k in range(m + 1)]
    pivots: dict[int, int] = {}
    rows: dict[int, list[tuple[int, int]]] = {}
    for c, cell in enumerate(itertools.product(elements, repeat=m - 1)):
        up = _morse_partner(G.orders, cell)
        if up is None or len(up) < m:
            continue
        e = [index[g] for g in up]
        h = 0
        for x in e:
            h = h * size + x
        # merge i: the prefix before g_i, g_i g_(i+1), the suffix after it
        faces = [
            ((h // power[m - i + 1] * size + b) * (p := power[m - i - 1]) + h % p, (-1) ** i)
            for i in range(1, m)
            if (b := merged[e[i - 1]][e[i]]) >= 0
        ]
        faces.append((h // size, (-1) ** m))
        first = h % power[m - 1]
        for t in range(d):
            row = {first * d + u: x for u, x in blocks[e[0]][t]}
            for k, sign in faces:
                row[k * d + t] = row.get(k * d + t, 0) + sign
            pivots[c * d + t] = h * d + t
            rows[h * d + t] = [(k, y) for k, x in row.items() if (y := x % N if N else x)]
    return pivots, rows


def _matched_diagonal(
    M: GModule, m: int, dual: bool, mod: int | None, limits: EngineLimits | None
) -> list[int] | None:
    """The Smith diagonal of the standard-resolution leg leaving degree m,
    no row of it listed: a 1 per pivot of :func:`_bar_pivots`, then the
    searched diagonal of the Schur complement; None where the pivots fail a
    guard of :func:`~cohomolab.intlinalg.schur_complement`.  Only the pivot
    rows are built.  Every row's complement is the packed value of one
    cochain of packed integers, phi . D, which :func:`_bar_values` reads
    run by run; each of its values sums at most (longest block row) + m
    terms of absolute value at most max(largest |block entry|, 1) times an
    entry of phi, which bounds the slots.  A dual leg has a row per cell of
    degree m - 1 and a column per cell of degree m, so it is read
    transposed, SNF(A) = SNF(A^T), in the plain shape with transposed
    antipode blocks: the complement is then taken over the short side, and
    the pivots sit at the plain leg's positions."""
    _, targets, blocks = _bar_faces(M, m, dual, limits)
    width = M.rank * targets
    pivots, rows = _bar_pivots(M, m, blocks)
    entries = [abs(x) for blk in blocks for row in blk for _, x in row]
    longest = max((len(row) for blk in blocks for row in blk), default=0)
    weight = (longest + m) * max(entries, default=1)

    def values(phi: list[int]) -> Iterator[int]:
        return itertools.chain.from_iterable(_bar_values(M, m, [phi], limits, dual))

    complement = schur_complement(rows, pivots, width, weight, values, mod)
    if complement is None:
        return None
    return [1] * len(pivots) + smith_diagonal(complement, len(complement), width, mod=mod)


def _product_table(orders: Sequence[int]) -> list[list[int]]:
    """mul[a][b], the index of the product of the a-th and b-th elements of
    the group with cyclic factors ``orders``, in element order.

    >>> _product_table((2,))
    [[0, 1], [1, 0]]
    """
    # built from the last factor out: (x, r) has index x * R + r
    mul = [[0]]
    for o in reversed(orders):
        R = len(mul)
        mul = [
            [(x + y) % o * R + mr[r2] for y in range(o) for r2 in range(R)]
            for x in range(o)
            for mr in mul
        ]
    return mul


def _sigma_faces(M: GModule, m: int) -> list[_Source]:
    """The pairs each source of the standard resolution meets under the
    comparison map sigma_m into the monomial resolution, m = 1 or 2, in bar
    basis order; the targets are the degree-m monomials.

    Write g = a_1^k_1 ... a_s^k_s, g_<i for its factors before a_i, and
    N_i(k) = 1 + a_i + ... + a_i^(k-1).  Source [g] meets x_i, for each
    k_i > 0, through g_<i N_i(k_i).  Source [g|h] meets, for i ascending
    with k = g_i > 0 and j <= i ascending with l = h_j > 0, x_i^2 through
    floor((k + l) / o_i) g_<i h_<i when j = i (no pair when that is 0), and
    x_j x_i through -g_<i h_<j N_j(l) N_i(k) when j < i: the sign makes up
    for the one d gives the mixed monomial.  Each block is a sum of the
    module's element matrices, reduced mod N, and is built once per call.
    """
    G = M.spec
    s = G.ngens
    elements = G.elements()
    # g_<i has the index of g rounded down to a multiple of o_i ... o_s
    tails = [prod(G.orders[i:]) for i in range(s + 1)]
    index = {mono: k for k, mono in enumerate(monomial_basis(s, m))}
    # target[i][j]: the index of the monomial x_i x_j (of x_i when m = 1)
    target = [
        [index[tuple((t == i) + (t == j) for t in range(s))] for j in range(s)]
        if m == 2
        else [index[tuple(int(t == i) for t in range(s))]]
        for i in range(s)
    ]
    blocks: dict[tuple, _Block] = {}

    def block(c: int, outer: int, runs: tuple[tuple[int, int], ...]) -> _Block:
        # c g N_i(k) ... over the (i, k) of ``runs``, as a sum of elements
        key = (c, outer, runs)
        blk = blocks.get(key)
        if blk is None:
            elems = [elements[outer]]
            for i, k in runs:
                elems = [e[:i] + (e[i] + b,) + e[i + 1 :] for e in elems for b in range(k)]
            terms = [(c, M.element_rows(e)) for e in elems]
            blk = blocks[key] = _sparse_rows(_combine(terms, M.rank), M.modulus)
        return blk

    if m == 1:
        return [
            [(target[i][0], block(1, a // tails[i] * tails[i], ((i, k),)))
             for i, k in enumerate(g) if k]
            for a, g in enumerate(elements)
            if a
        ]
    mul = _product_table(G.orders)
    sources = []
    for a, b in itertools.product(range(1, len(elements)), repeat=2):
        g, h = elements[a], elements[b]
        pairs = []
        for i, k in enumerate(g):
            if not k:
                continue
            head = a // tails[i] * tails[i]
            for j, l in enumerate(h[: i + 1]):
                if not l:
                    continue
                outer = mul[head][b // tails[j] * tails[j]]
                if j < i:
                    pairs.append((target[i][j], block(-1, outer, ((j, l), (i, k)))))
                elif q := (k + l) // G.orders[i]:
                    pairs.append((target[i][i], block(q, outer, ())))
        sources.append(pairs)
    return sources


def _leg_rows(
    M: GModule, resolution: str, m: int, dual: bool = False, limits: EngineLimits | None = None
) -> Iterator[list[tuple[int, int]]]:
    """The Hom rows, phi -> phi . D, of the differential D of
    ``resolution`` leaving degree m, antipode-transposed when ``dual``,
    from the pairs its faces function lists.  On the complete monomial
    resolution degree 0 is the norm N_G, its own antipode, and a negative
    degree m the dual of the differential leaving -m.  A standard-resolution
    leg is emitted one prefix run at a time, each row the first-face block's
    row and the +-1 of the other faces; a dual leg is the transpose of the
    plain-shaped one with transposed antipode blocks, its sources in
    ascending index: the pair order of the antipode-transposed matrix.

    >>> from cohomolab.group_ring import GroupSpec
    >>> from cohomolab.modules import trivial_module
    >>> Z = trivial_module(GroupSpec.of(2))
    >>> list(_leg_rows(Z, "bar", 1)), list(_leg_rows(Z, "bar", 2))
    ([[]], [[(0, 2)]])
    """
    d = M.rank
    if resolution == "bar":
        runs, targets, blocks = _bar_faces(M, m, dual, limits)
        rows = (
            [(f * d + u, c) for u, c in blk[t]]
            + (tail if d == 1 else [(k * d + t, c) for k, c in tail])
            for f, blk, tail in _bar_sources(M, m, runs, blocks)
            for t in range(d)
        )
        if not dual:
            yield from rows
            return
        by_column: list[list[tuple[int, int]]] = [[] for _ in range(d * targets)]
        for r, row in enumerate(rows):
            for k, c in row:
                by_column[k].append((r, c))
        yield from by_column
        return
    elif m:
        dual ^= m < 0
        sources, targets = _minimal_faces(M, abs(m), dual)
    else:
        sources, targets = [[(0, M.block_rows(None))]], 1
    if dual:
        by_target: list[_Source] = [[] for _ in range(targets)]
        for src, pairs in enumerate(sources):
            for k, blk in pairs:
                by_target[k].append((src, blk))
        sources = by_target
    yield from _hom_rows(d, sources)


def _image_columns(rows: Iterable[list[tuple[int, int]]]) -> list[dict[int, int]]:
    """The nonzero columns of a map given by its streamed rows, in column
    order, as {row: value} dicts: the rows, transposed."""
    cols: dict[int, dict[int, int]] = {}
    for r, row in enumerate(rows):
        for k, c in row:
            cols.setdefault(k, {})[r] = c
    return [cols[k] for k in sorted(cols)]


def _apply(M: GModule, rows: Iterable[list[tuple[int, int]]], flat: Sequence[int]) -> list[int]:
    """The flat cochain phi . D for a flat cochain phi and the Hom rows of D,
    reduced mod the module's modulus."""
    out = [sum(c * flat[k] for k, c in row) for row in rows]
    return [x % M.modulus for x in out] if M.modulus else out


# ---------------------------------------------------------------------------
# Results


@dataclass
class CohomologyResult:
    """Invariant factors plus (optionally) canonical representatives.

    ``representatives`` holds one cochain per torsion factor, ascending,
    followed by one per free generator; each is the canonical residue of a
    generating cocycle modulo the coboundary lattice, so equal classes
    always reduce to equal vectors.
    """

    degree: int
    kind: str
    invariants: AbelianInvariants
    module: str
    resolution: str
    route: str
    representatives: tuple[Cochain, ...] | None = None
    _presentation: QuotientPresentation | None = field(
        default=None, repr=False, compare=False
    )
    _count: int = field(default=0, repr=False, compare=False)
    _rank: int = field(default=0, repr=False, compare=False)

    def invariant_factors(self) -> list[int]:
        return list(self.invariants.torsion)

    @property
    def free_rank(self) -> int:
        return self.invariants.free_rank

    def _flat(self, c: Cochain) -> list[int]:
        """The values of ``c``, once its degree and shape match the result's."""
        if self._presentation is None:
            raise ValueError("this result was computed without representative data")
        shape = (c.degree, len(c.values), len(c.values[0]) if c.values else self._rank)
        if shape != (self.degree, self._count, self._rank):
            raise ValueError(
                f"expected a degree-{self.degree} cochain of {self._count} value vectors"
                f" of width {self._rank}, got (degree, count, width) = {shape}"
            )
        return c.flat()

    def reduce_cocycle(self, c: Cochain) -> Cochain:
        """Canonical representative of the class of ``c`` (same class, same
        output; requires a presentation-backed result)."""
        vec = self._presentation.residue(self._flat(c))
        return Cochain.from_flat(self.degree, vec, self._count, self._rank)

    def class_coordinates(self, c: Cochain) -> tuple[int, ...]:
        """Coordinates of the class of ``c`` in the reported decomposition."""
        return tuple(self._presentation.coordinates(self._flat(c)))

    def class_group_generated_by(self, cochains: Iterable[Cochain]) -> AbelianInvariants:
        """Structure of the subgroup generated by the classes of ``cochains``.

        Coordinates are taken modulo coboundaries, so this is the honest
        measure of how much of the group a family of cocycles spans.
        """
        if self._presentation is None:
            raise ValueError("this result was computed without representative data")
        diag = self._presentation.diagonal
        k = len(diag)
        cols = [list(self.class_coordinates(c)) for c in cochains]
        rels = []
        for i, d in enumerate(diag):
            if d:
                e = [0] * k
                e[i] = d
                rels.append(e)
        if not cols or k == 0:
            return AbelianInvariants(0, ())
        return quotient_invariants(cols + rels, rels, k)


def _extract_representatives(
    pres: QuotientPresentation,
    M: GModule,
    degree: int,
    count: int,
    vanishes: Callable[[list[list[int]]], bool],
) -> tuple[Cochain, ...]:
    """Each generator's residue modulo the coboundaries, torsion first,
    checked to be a cocycle in one pass, which is skipped when there is no
    generator: ``vanishes`` says whether phi . D vanishes, mod N where the
    module has one, for all the residues together.  That is
    :func:`_runs_vanish` on a plain standard-resolution leg and
    :func:`_rows_vanish` on any other.  Mod N the Hermite basis has a pivot
    in every row, so the residues lie in [0, N)."""
    gens = sorted((d == 0, i) for i, d in enumerate(pres.diagonal) if d != 1)
    vecs = [pres.residue(pres.generator_column(i)) for _, i in gens]
    if vecs and not vanishes(vecs):
        raise VerificationError(f"extracted degree-{degree} representative is not a cocycle")
    return tuple(Cochain.from_flat(degree, vec, count, M.rank) for vec in vecs)


def _rows_vanish(rows: Iterable[list[tuple[int, int]]], N: int, vecs: list[list[int]]) -> bool:
    """Whether phi . D vanishes, mod N when N is set, for each flat cochain
    phi of ``vecs``, against every Hom row of D in turn."""
    for row in rows:
        for vec in vecs:
            x = 0
            for k, c in row:
                x += c * vec[k]
            if x % N if N else x:
                return False
    return True


def _runs_vanish(M: GModule, m: int, limits: EngineLimits | None, vecs: list[list[int]]) -> bool:
    """Whether phi . D vanishes, mod N where the module has one, for each
    flat cochain phi of ``vecs``, D the standard resolution's differential
    leaving degree m, against every run of :func:`_bar_values` in turn."""
    N = M.modulus
    for values in _bar_values(M, m, vecs, limits):
        if any(x % N for x in values) if N else any(values):
            return False
    return True


def _check_killed(inv: AbelianInvariants, order: int, n: int) -> None:
    """Raise unless |G| kills H, as it must wherever both maps exist over Z
    (see the module docstring)."""
    if inv.free_rank or any(order % t for t in inv.torsion):
        raise VerificationError(f"degree-{n} group {inv} is not killed by |G| = {order}")


# ---------------------------------------------------------------------------
# Cohomology of the Hom complex


def _complex_group(
    M: GModule,
    n: int,
    kind: str,
    resolution: str,
    limits: EngineLimits | None,
    want_representatives: bool | None,
) -> CohomologyResult:
    """The shared body of the three entry points: H = ker d_out / im d_in.

    Cohomology maps degree n towards n+1, homology towards n-1 through the
    antipode-transposed (tensor side) differentials.  A neighbouring degree
    exists when it is >= 0, or always on the complete resolution, which
    agrees with the resolution itself in every degree a non-Tate call meets.
    Both maps are sized from the ranks and every cap is checked before either
    is built, so a route that never touches one never pays for it.
    Invariants-only calls on a lattice or a reduction L/NL read H off the
    Smith diagonals of the two maps; any other modulus N switches kernels
    and quotients to congruences.
    """
    limits = limits or EngineLimits.from_env()
    limits.check_group_order(M.spec.order)
    tate = kind == "tate"
    if not tate and n < 0:
        name = "homology" if kind == "homology" else "ordinary cohomology"
        raise ValueError(f"{name} is defined in degrees >= 0")
    lo = limits.min_tate_degree if tate else 0
    if resolution == "minimal" and not lo <= n <= limits.max_tate_degree:
        raise ValueError(
            f"degree {n} outside the supported window [{lo}, {limits.max_tate_degree}]"
        )
    if tate and not M.is_lattice and n < 0:
        raise ValueError(
            "negative-degree complete cohomology needs lattice coefficients; "
            "wrap the module as a divisible dual instead"
        )
    if resolution == "bar":
        # every route, whether or not it builds the outgoing map
        limits.check_bar_degree(n + 1)
    res = make_resolution(M.spec, resolution, limits)
    step = -1 if kind == "homology" else 1
    k_in, k_out = n - step, n + step
    has_in = tate or k_in >= 0
    has_out = tate or k_out >= 0
    dim = M.rank * complete_rank(res, n)
    in_dim = M.rank * complete_rank(res, k_in) if has_in else 0
    out_dim = M.rank * complete_rank(res, k_out) if has_out else 0
    N = M.modulus
    mod = N or None
    want = want_representatives
    if want is None:
        want = dim <= _AUTO_REPRESENTATIVE_DIM
    smith = not want and (not N or M.lifts_to_lattice)
    if smith:
        route = "universal-coefficients" if N else "cokernel-torsion"
    else:
        route = "congruence" if N else "kernel"
    # over Z with both maps H is killed by |G|: Smith needs no d_out, and
    # the kernel route reads ker d_out as the saturation of im d_in
    killed = not N and has_in and has_out
    # every matrix is capped on its own shape before any is built; a
    # presentation costs about dim^3, the transform-free invariants do not
    if has_in:
        limits.check_cells(dim, in_dim, f"{route} image")
    if want:
        limits.check_cells(dim, dim, f"{route} presentation")
    if has_out and not (smith and killed):
        limits.check_cells(out_dim, dim, f"{route} outgoing map")

    def leg(k: int) -> Iterator[list[tuple[int, int]]]:
        # the streamed Hom rows of the map between degrees n and k; a
        # standard-resolution call meets only degrees >= 1 here
        return _leg_rows(M, resolution, max(n, k), step < 0, limits)

    if smith:
        # the Smith diagonals of both maps, see the module docstring.  A
        # standard-resolution leg first takes its Morse pivots, and only the
        # Schur complement, read run by run, is searched; no row is listed
        # unless those pivots fail a guard.  Anywhere else, and on such a
        # fallback, SNF(A) = SNF(A^T), so a map with more rows than columns
        # goes in as its columns and the search runs over the short side
        def diagonal(k: int, rows: int, cols: int) -> list[int]:
            if resolution == "bar":
                diag = _matched_diagonal(M, max(n, k), step < 0, mod, limits)
                if diag is not None:
                    return diag
            source = leg(k)
            if rows > cols:
                return smith_diagonal(_image_columns(source), cols, rows, mod=mod)
            return smith_diagonal(map(dict, source), rows, cols, mod=mod)

        diag_in = diagonal(k_in, dim, in_dim) if has_in else []
        diag_out = diagonal(k_out, out_dim, dim) if has_out and not killed else []
        free = 0 if killed else dim - len(diag_in) - len(diag_out)
        if free < 0:
            raise VerificationError(f"ranks of the degree-{n} maps exceed {dim}")
        inv = AbelianInvariants.from_diagonal(
            [N] * free + diag_in + (diag_out if N else [])
        )
        if killed:
            _check_killed(inv, M.spec.order, n)
        return CohomologyResult(n, kind, inv, M.label, resolution, route)
    icols = _image_columns(leg(k_in)) if has_in else []
    kcols = saturation_columns(icols) if killed else None
    # the outgoing rows, built at most once: for the kernel, the cocycle
    # check or both.  A plain standard-resolution leg checks run by run
    # instead, so its rows are built for the kernel alone
    by_runs = has_out and resolution == "bar" and step > 0
    rows: Iterable[list[tuple[int, int]]] = ()
    if has_out and (kcols is None or not by_runs):
        rows = leg(k_out)
    if kcols is None:
        if want and not by_runs:
            rows = list(rows)
        kcols = kernel_columns(rows, dim, mod=mod)
    if not want:
        inv = quotient_invariants(kcols, icols, dim, mod=N)
        return CohomologyResult(n, kind, inv, M.label, resolution, route)
    pres = quotient_presentation(kcols, icols, dim, mod=mod)
    inv = pres.invariants()
    if killed:
        _check_killed(inv, M.spec.order, n)
    # a rank-0 module has no coordinates, and its cochains no values
    count = dim // M.rank if M.rank else 0
    if by_runs:
        vanishes = partial(_runs_vanish, M, k_out, limits)
    else:
        vanishes = partial(_rows_vanish, rows, N)
    reps = _extract_representatives(pres, M, n, count, vanishes)
    return CohomologyResult(
        n,
        kind,
        inv,
        M.label,
        resolution,
        route,
        representatives=reps,
        _presentation=pres,
        _count=count,
        _rank=M.rank,
    )


def ordinary_cohomology(
    M: GModule,
    n: int,
    *,
    resolution: str = "minimal",
    limits: EngineLimits | None = None,
    want_representatives: bool | None = None,
) -> CohomologyResult:
    """H^n(G, M) from the chosen resolution.

    Degree 0 is the full invariants submodule (not the norm quotient); use
    :func:`tate_cohomology` for the complete-complex value.  Divisible-dual
    coefficients are shifted up one degree on the same resolution.
    """
    if isinstance(M, DualDivisible):
        if n < 0:
            raise ValueError("ordinary cohomology is defined in degrees >= 0")
        if n == 0:
            raise ValueError("degree-0 cohomology of a divisible dual is not finite")
        return _dual_shift(
            M.inner, n, ordinary_cohomology, resolution=resolution, limits=limits
        )
    return _complex_group(M, n, "ordinary", resolution, limits, want_representatives)


def tate_cohomology(
    M: GModule,
    n: int,
    *,
    limits: EngineLimits | None = None,
    want_representatives: bool | None = None,
) -> CohomologyResult:
    """Complete-resolution cohomology in any degree within the window.

    Finite-modulus coefficients are supported in degrees >= 0 only; negative
    degrees for those exist solely through the divisible-dual route.
    """
    if isinstance(M, DualDivisible):
        return dual_tate(M.inner, n, limits=limits)
    return _complex_group(M, n, "tate", "minimal", limits, want_representatives)


def homology(
    M: GModule,
    n: int,
    *,
    resolution: str = "minimal",
    limits: EngineLimits | None = None,
    want_representatives: bool | None = None,
) -> CohomologyResult:
    """H_n(G, M) of the tensored resolution; degree 0 gives coinvariants."""
    if isinstance(M, DualDivisible):
        raise ValueError("homology of a divisible dual is not supported")
    return _complex_group(M, n, "homology", resolution, limits, want_representatives)


def dual_tate(
    M: GModule, n: int, *, limits: EngineLimits | None = None
) -> CohomologyResult:
    """Complete cohomology with divisible-dual coefficients built on M.

    Computed one degree up on the plain dual lattice; the two sides have the
    same invariant factors, but classes live elsewhere, so representatives
    are not carried over.
    """
    return _dual_shift(M, n, tate_cohomology, limits=limits)


def _dual_shift(
    M: GModule, n: int, compute: Callable[..., CohomologyResult], **kw
) -> CohomologyResult:
    """Degree n with divisible-dual coefficients built on the lattice M:
    ``compute`` in degree n + 1 on the plain dual lattice, invariants only,
    reported with the kind and resolution it ran on."""
    if not M.is_lattice:
        raise ValueError("the divisible-dual route starts from a lattice")
    shifted = compute(star_dual(M), n + 1, want_representatives=False, **kw)
    return CohomologyResult(
        degree=n,
        kind=shifted.kind,
        invariants=shifted.invariants,
        module=f"dualD({M.label})",
        resolution=shifted.resolution,
        route="dual-shift",
    )


# ---------------------------------------------------------------------------
# Degree 1 and 2 cocycle predicates on the small resolution


@dataclass(frozen=True)
class CocycleCheck:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _monomial_name(expo: Sequence[int]) -> str:
    parts = []
    for i, k in enumerate(expo):
        if k == 1:
            parts.append(f"x{i + 1}")
        elif k > 1:
            parts.append(f"x{i + 1}^{k}")
    return "*".join(parts) if parts else "1"


def _cochain_flat(M: GModule, c: Cochain) -> list[int]:
    """The values of ``c``, once it has one vector of the module's rank per
    monomial basis element of its degree."""
    count = make_resolution(M.spec, "minimal").rank(c.degree)
    shape = (len(c.values), len(c.values[0]) if c.values else M.rank)
    if shape != (count, M.rank):
        raise ValueError(
            f"expected a degree-{c.degree} cochain of {count} value vectors"
            f" of width {M.rank}, got (count, width) = {shape}"
        )
    return c.flat()


def _cocycle_check(M: GModule, c: Cochain, limits: EngineLimits | None) -> CocycleCheck:
    limits = limits or EngineLimits.from_env()
    limits.check_group_order(M.spec.order)
    n = c.degree
    flat = _apply(M, _leg_rows(M, "minimal", n + 1), _cochain_flat(M, c))
    d = M.rank
    targets = monomial_basis(M.spec.ngens, n + 1)
    violations = []
    for j, expo in enumerate(targets):
        vec = flat[j * d : (j + 1) * d]
        if any(vec):
            violations.append(f"{_monomial_name(expo)}: obstruction {tuple(vec)}")
    return CocycleCheck(not violations, tuple(violations))


def is_cocycle_1(M: GModule, xi: Cochain, *, limits: EngineLimits | None = None) -> CocycleCheck:
    """Degree-1 cocycle test: the full norm must kill each diagonal value
    and the cross relations (a_i - 1) xi(x_j) = (a_j - 1) xi(x_i) must hold."""
    if xi.degree != 1:
        raise ValueError("expected a degree-1 cochain")
    return _cocycle_check(M, xi, limits)


def is_cocycle_2(M: GModule, gamma: Cochain, *, limits: EngineLimits | None = None) -> CocycleCheck:
    """Degree-2 cocycle test against the full set of degree-3 obstructions."""
    if gamma.degree != 2:
        raise ValueError("expected a degree-2 cochain")
    return _cocycle_check(M, gamma, limits)


def coboundary_0(M: GModule, u: Sequence[int]) -> Cochain:
    """The degree-1 coboundary of a module element: x_i maps to (a_i - 1) u."""
    if len(u) != M.rank:
        raise ValueError("element width must match the module rank")
    return Cochain.from_flat(1, _apply(M, _leg_rows(M, "minimal", 1), u), M.spec.ngens, M.rank)


def coboundary_1(M: GModule, xi: Cochain) -> Cochain:
    """The degree-2 coboundary of a degree-1 cochain."""
    if xi.degree != 1:
        raise ValueError("expected a degree-1 cochain")
    flat = _apply(M, _leg_rows(M, "minimal", 2), _cochain_flat(M, xi))
    count = make_resolution(M.spec, "minimal").rank(2)
    return Cochain.from_flat(2, flat, count, M.rank)


# ---------------------------------------------------------------------------
# Factor sets


@dataclass
class FactorSet:
    """A normalized group-pair table equivalent to a degree-2 class.

    ``table[(g, h)]`` is the module-element vector f(g, h), a tuple of
    ``module.rank`` ints for every pair of elements of the group and for no
    other key; rows and columns over identity entries vanish by
    normalization.
    """

    module: GModule
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]]

    def __post_init__(self) -> None:
        d, table = self.module.rank, self.table
        pairs = list(itertools.product(self.module.spec.elements(), repeat=2))
        for pair in pairs:
            if pair not in table:
                raise ValueError(f"factor set has no entry for the pair {pair}")
            v = table[pair]
            if type(v) is not tuple or len(v) != d or not all(type(x) is int for x in v):
                raise ValueError(f"factor set entry {pair} is not a tuple of {d} ints: {v!r}")
        if len(table) != len(pairs):
            extra = next(iter(set(table).difference(pairs)))
            raise ValueError(f"factor set has an entry for {extra!r}, not a pair of elements")

    def __call__(self, g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
        return self.table[(g, h)]

    def cocycle_identity_holds(self) -> bool:
        """Full enumeration of g f(h,k) - f(gh,k) + f(g,hk) - f(g,h) = 0,
        reduced mod N: per pair (g, h) and module coordinate t, one vector
        over all k."""
        M = self.module
        N = M.modulus
        elements = M.spec.elements()
        n = len(elements)
        mul = _product_table(M.spec.orders)
        # over_h[b](v): the vector k -> v[index of hk], for h the b-th element
        over_h = [itemgetter(*row) for row in mul]
        # F[a][t][k]: coordinate t of f(g, k), for g the a-th element
        F = [list(zip(*(self.table[(g, h)] for h in elements))) for g in elements]
        for a, g in enumerate(elements):
            act_g, f_g = M.element_rows(g), F[a]
            for b in range(n):
                f_h, f_gh, hk = F[b], F[mul[a][b]], over_h[b]
                for t, grow in enumerate(act_g):
                    # coordinate t of g f(h, .), over the rows of g's matrix
                    if len(grow) == 1 and grow[0][1] == 1:
                        gf = f_h[grow[0][0]]
                    else:
                        gf = [0] * n
                        for u, x in grow:
                            gf = [y + x * z for y, z in zip(gf, f_h[u])]
                    c = f_g[t][b]
                    total = [y - z + w - c for y, z, w in zip(gf, f_gh[t], hk(f_g[t]))]
                    if any([x % N for x in total] if N else total):
                        return False
        return True


def to_factor_set(M: GModule, gamma: Cochain, *, limits: EngineLimits | None = None) -> FactorSet:
    """Evaluate a degree-2 cocycle on group pairs through the comparison map.

    Rejects non-cocycles; the output is normalized and satisfies the
    standard pair-table identity (enumerable via
    :meth:`FactorSet.cocycle_identity_holds`).
    """
    check = is_cocycle_2(M, gamma, limits=limits)
    if not check:
        raise ValueError(
            "not a cocycle: " + "; ".join(check.violations[:4])
        )
    spec = M.spec
    d = M.rank
    flat = _apply(M, _hom_rows(d, _sigma_faces(M, 2)), gamma.flat())
    index = {pair: col for col, pair in enumerate(bar_basis(spec, 2))}
    table = {}
    ident = spec.identity()
    for g, h in itertools.product(spec.elements(), repeat=2):
        if g == ident or h == ident:
            table[(g, h)] = (0,) * d
        else:
            col = index[(g, h)]
            table[(g, h)] = tuple(flat[col * d : (col + 1) * d])
    return FactorSet(M, table)
