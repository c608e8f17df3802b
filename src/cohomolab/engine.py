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
                        (:func:`saturation_columns`, see below), H is read
                        off the pivots of its one sparse elimination, with
                        no Hermite basis and no dense Smith form
                        (:func:`saturation_presentation`), and d_out
                        is read once, only to check each representative:
                        row by row, or run by run without rows on a plain
                        standard-resolution leg.  Degree 0, and any image
                        whose sparse elimination leaves a residual,
                        eliminate the kernel from d_out's rows instead
                        (:func:`kernel_columns`), which then double as the
                        check except on such a leg; no dense matrix is
                        built.  Ordinary cohomology on the standard
                        resolution takes all of this on the critical
                        coordinates of its Morse complex (see below) and
                        lists no leg.
* ``cokernel-torsion``  lattice coefficients, invariants only: the free rank
                        dim - rk d_in - rk d_out plus the torsion of the
                        Smith diagonal of the incoming map.  With both maps
                        the free rank is 0 and the outgoing map is never
                        assembled; degree 0 lacks one map and builds the
                        other.  On the monomial resolution the rows of the
                        short side go into :func:`smith_diagonal`, built
                        straight off the leg's skeleton (see below): a map
                        with more rows than columns goes in as its
                        columns, SNF(A) = SNF(A^T), so every diagonal is
                        eliminated over the short side.  On the standard
                        resolution each leg is read off its Morse complex
                        (see below): a 1 per unit pivot, and only the
                        critical complement is searched.
* ``universal-coefficients``
                        a reduction L/NL of a lattice, invariants only: two
                        Smith diagonals mod N, of the incoming and the
                        outgoing map, fed the same way.
* ``congruence``        any other finite coefficient modulus N, and every
                        finite-coefficient call that wants representatives:
                        the same :func:`kernel_columns` as ``kernel``, with
                        ``mod=N``, and quotients taken mod N.  Ordinary
                        cohomology on the standard resolution takes it on
                        the Morse complex, with or without representatives.
* ``dual-shift``        divisible coefficients, evaluated on the dual
                        lattice one degree up.

All three entry points run through :func:`_complex_group`: it sizes the
incoming and outgoing maps of a degree from the resolution ranks, checks
every cap, and only then builds the maps its route needs, each once.  The
image of the incoming map, where one is needed, is kept as its sparse
{row: value} columns until the quotient eliminates them: where |G| kills
H the pivot rows of that elimination, and otherwise their Hermite basis,
are the coboundary lattice every representative is reduced by.
No dense Hom matrix is built.

Where the rows come from: every map here is written straight into
{column: value} rows, the one Hom-row format, which every reader takes
down to :mod:`~cohomolab.intlinalg`; no map is listed as (target, block)
pairs first.  Only module blocks stay lists of (column, value) pairs per
row.  Every monomial leg is built one way, by :func:`_minimal_rows`, as
rows of the map or of its transpose: the Smith input, the quotient's image
(the transpose's nonzero rows, the map's columns) and outgoing rows, and
through :func:`_leg_rows` the cocycle predicates, the coboundaries and
verify's suites.  Its blocks are at most 6s + 1 entries of the module's
block table (``GModule.block_rows``) over monomial indices.  Which target, generator and
signs each source meets depends on (s, m) alone, so it is tabled once per
key (:func:`_monomial_skeleton`), each table grown by prefix from the
tables of one variable fewer with no monomial basis listed, and a leg looks
up only the blocks of the at most 4s kinds it meets.  Each face's block goes
straight into its rows, plain or dual, a source or a target per row, and
the faces whose block is zero (A_i - I on a trivial module) are skipped.
A standard-resolution row is built from its cell alone
(:func:`_cell_rows`): [g_1|...|g_m] meets its first face through the matrix
of g_1 from the group-element table (``GModule.element_rows``), and its
merge faces and last face through +-I; a listed leg, the Morse pivot rows
and the critical rows below are all built that way.  Where no row is
needed :func:`_bar_values` reads phi . D in prefix runs, building none: the
|G| - 1 sources [g_1|...|g_(m-1)|x] that share a prefix meet consecutive
first faces through one block, consecutive inner merge faces and one last
face through +-I, and their last merges through one row of the product
table.  Each reader that walks a standard-resolution leg, listed, off the
Morse complex or run by run, checks its caps once first (:func:`_bar_leg`).
A dual leg (homology, negative Tate degrees) is read in the plain shape
through dual tables (:func:`_bar_tables`), whose first-face blocks are the
transposed antipode blocks, and listed as the transpose (:func:`_columns`,
the one transpose of rows); its image is the nonzero rows of that plain
shape (:func:`_bar_rows`), taken as they stream.  The comparison map sigma
from the standard resolution to the monomial one, which factor sets and
verify's sigma suite read, has one builder too, :func:`_sigma_rows`: each
block, a sum of element matrices (prefix elements times partial norms), is
written straight into its source's rows.  Nothing here builds a
group-ring matrix.

The Smith pivots of the standard resolution come from algebraic discrete
Morse theory (E. Skoldberg, "Morse theory from an algebraic viewpoint",
Trans. AMS 358, 2006; M. Joellenbeck and V. Welker, "Minimal resolutions
via algebraic discrete Morse theory", Mem. AMS 197, 2009).  The rewriting
system x_j x_i -> x_i x_j (j > i), x_i^(o_i) -> 1 on the normal words
x_1^e_1 ... x_s^e_s pairs bar cells along merge faces (:func:`_morse_partner`).
Each pair is a +-I block of the leg, a unit for every module and modulus,
and the cells left unpaired in degree n number C(n+s-1, s-1): the monomial
resolution is the Morse complex of the standard one.  The matching depends
on (orders, m) alone, so which cells split, and into which cell above, is
tabled once per key (:func:`_morse_splits`), each table grown from the one
below it and the one walk of the critical cells' extensions a degree below
(:func:`_morse_walk`), after a leg is priced; so are the critical cells
(:func:`_critical_cells`) and the pairs they reach through chains of pivot
rows, the gradient paths (:func:`_morse_reach`).
Only the pivots a reader reads, and their rows alone, are then built per
module (:func:`_bar_pivots`).  The Morse complex is chain-homotopy
equivalent to the standard resolution, and its contractible part is
exactly the matched pairs, so a leg's Smith diagonal is a 1 per pivot plus
the Smith diagonal of its critical complement (:func:`_morse_complement`):
the Schur complement of the pivots at the critical rows and columns,
d C(m+s-1, s-1) x d C(m+s-2, s-1) for the leg leaving degree m, searched
over its short side.  It reads the R's of the reached pivots alone, so the
Smith branch builds and solves only those: for the (2,2,4) leg leaving
degree 3 the complement is 10 d x 6 d, read through 31 d of the leg's
207 d pivots, where the leg has 3375 d rows.  A dual leg is read
transposed, in the plain shape with transposed antipode blocks and on the
plain leg's pivot positions, SNF(A) = SNF(A^T).  The arithmetic stays the
bar matrices' own, so the oracle still shares nothing with the monomial
resolution, and exactness never rests on the matching.  Every read of a
leg goes through the guards.  Three hold whatever the module and are
checked once per (orders, m), as the tables are built: the cells of each
degree up to m must split into those matched upward, the critical ones
and those matched downward, each once, which the walk of each degree
reads off its critical cells and the up cells of the tables at and below
it, building no table above (:func:`_morse_walk`); each up
cell must meet its split cell through one merge face and no other face,
so every pivot is +-1; and no chain of substitutions may return to a cell
(:func:`_morse_reach`).  So the whole pivot block is triangular up to
order with a unit diagonal, and is counted whole, built or not.  The
pivots built are checked once more, against the module's own entries
(:func:`~cohomolab.intlinalg.solve_pivots`, in :func:`_morse_leg`).  The
guards are theorems of the matching, so a failed one is a fault: it
raises :class:`VerificationError`, and no leg is listed in its place.

The kernel and congruence routes read ordinary cohomology on the standard
resolution off the Morse complex too, with or without representatives:
:func:`_morse_complex` is one more leg source for the one quotient of
:func:`_complex_group`, beside the listed monomial and dual legs, and its
legs are on critical coordinates.  A cochain of degree n is moved off the
cells matched downward, leg n's pivot rows, by a coboundary through leg n's
pivot block; a cocycle that vanishes there takes -R(j) times its critical
coordinates at each cell matched upward, a pivot column j of leg n + 1.  So
H^n is a quotient on the d C(n+s-1, s-1) critical coordinates: the cocycles
are the saturation of the image where |G| kills H, H then read off its
pivots as on a monomial leg, and otherwise the kernel
of leg n + 1's complement at its critical rows and columns; the image is
spanned by leg n's, once leg n - 1's pivots move every cochain of degree
n - 1 off its own cells matched downward.  These complements are the
monomial legs up to one sign per cell.  Exactness rests on the guards of
legs n - 1, n and n + 1, so on the pivot columns, the critical cells and
the pivot rows splitting every degree up to n + 1.  With representatives,
each canonical residue is lifted back, a cell matched downward taking 0
and one matched upward -R(j) . phi, and the lifts are checked run by run
against all of leg n + 1, which covers the rows of the cells matched
upward that no complement reads.  The result's presentation-backed
methods project a bar cochain onto the critical coordinates first
(:class:`_MorsePresentation`).

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
contains im d_in with finite index, so it is the saturation of im d_in,
and H is the saturation modulo L = im d_in.  The sparse elimination of L
leaves pivot rows g Q, Q primitive with a 1 at its pivot, so H is the sum
of the Z/g, the coprime parts merged by a Smith form of the gains alone
(:func:`~cohomolab.intlinalg.saturation_presentation`).
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
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial
from math import comb, prod
from operator import add, itemgetter, sub
from typing import Callable, Iterable, Iterator, Sequence

from cohomolab.group_ring import GroupSpec
from cohomolab.intlinalg import (
    AbelianInvariants,
    QuotientPresentation,
    kernel_columns,
    quotient_invariants,
    quotient_presentation,
    saturation_columns,
    saturation_presentation,
    smith_diagonal,
    solve_pivots,
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
# a Hom row, as {column: nonzero value}: the one row format of every map
_Row = dict[int, int]


# the most tables each skeleton keeps: the default limits meet at most 40
# monomial keys (s <= 5 and 0 <= m <= 7, the sub-tables each key is grown
# from included), and per group four split keys and four reach keys
# (m = 1..4, up to the leg leaving degree 4) and five walk keys and five
# critical-cell keys (m = 0..4)
_SKELETON_TABLES = 64
# the (target, kind) faces of one monomial source, see _monomial_skeleton
_Faces = tuple[tuple[int, int], ...]


@lru_cache(maxsize=_SKELETON_TABLES)
def _monomial_skeleton(
    s: int, m: int
) -> tuple[tuple[_Faces, ...], tuple[tuple[int, bool, bool], ...], int]:
    """The monomial resolution's differential leaving degree m >= 0 over
    s generators, whatever the module: per source, in basis order, its
    (target, kind) faces in pair order; the kinds, (i, odd, neg) by index,
    at most 4s of them; and the number of targets.  Monomial
    (k_1, ..., k_s) meets the one that drops a power of x_i, for i
    ascending, through a block of kind (i, k_i odd, k_1+...+k_(i-1) odd).

    Grown by prefix from the tables (s - 1, m') with m' <= m, with no basis
    listed: the sources (k_1, rest) form consecutive blocks by descending
    k_1, rest running through the (s - 1, m - k_1) table, and block k of
    degree m starts at C(m - k - 1 + s - 1, s - 1).  Dropping x_1 lands at
    rest's index in block k_1 - 1 of degree m - 1; dropping any other
    variable is rest's own face, shifted into block k_1 of degree m - 1,
    its kind one generator up and its sign flipped when k_1 is odd.  A table
    holds C(m+s-1, s-1) sources of at most s faces each, and it and its
    sub-tables share the ``_SKELETON_TABLES`` keys; the degree window bounds
    m before a leg is read.

    >>> table, kinds, targets = _monomial_skeleton(2, 2)
    >>> table, targets
    ((((0, 0),), ((1, 1), (0, 2)), ((1, 3),)), 2)
    >>> kinds
    ((0, False, False), (0, True, False), (1, True, True), (1, False, False))
    """
    if m == 0:
        return ((),), (), 0
    if s == 1:
        return (((0, 0),),), ((0, m % 2 == 1, False),), 1
    table: list[_Faces] = []
    kinds: dict[tuple[int, bool, bool], int] = {}
    for k in range(m, -1, -1):
        sub, sub_kinds, _ = _monomial_skeleton(s - 1, m - k)
        odd = k % 2 == 1
        first = kinds.setdefault((0, odd, False), len(kinds)) if k else 0
        moved = [kinds.setdefault((i + 1, o, neg != odd), len(kinds)) for i, o, neg in sub_kinds]
        drop = comb(m - k + s - 2, s - 1)  # block k - 1 of degree m - 1
        shift = comb(m - k + s - 3, s - 1) if k < m else 0  # block k of degree m - 1
        for j, faces in enumerate(sub):
            rest = tuple((shift + t, moved[b]) for t, b in faces)
            table.append(((drop + j, first), *rest) if k else rest)
    return tuple(table), tuple(kinds), comb(m + s - 2, s - 1)


def _kind_blocks(M: GModule, kinds: Iterable[tuple[int, bool, bool]], dual: bool) -> list[_Block]:
    """The block of each kind (i, odd, neg) of :func:`_monomial_skeleton`:
    (-1)^neg times A_i - I (odd) or N_i(A) (even); with ``dual``, their
    antipodes A_i^-1 - I and N_i(A)."""
    # the exponent of x_i in A_i - I, or in its antipode A_i^-1 - I
    steps = [o - 1 if dual else 1 for o in M.spec.orders]
    return [M.block_rows(i, steps[i] if odd else 0, neg) for i, odd, neg in kinds]


def _transposed(blk: _Block) -> _Block:
    """The rows of a block's transpose, each by ascending column."""
    out: _Block = [[] for _ in blk]
    for t, row in enumerate(blk):
        for u, c in row:
            out[u].append((t, c))
    return out


def _minimal_rows(M: GModule, m: int, dual: bool, transpose: bool) -> list[_Row]:
    """The {column: value} Hom rows, phi -> phi . D, of the monomial
    resolution's differential D leaving degree m, plain or ``dual`` (the
    norm N_G at m = 0, the dual of the leg leaving -m at m < 0), or with
    ``transpose`` the rows of its transpose, {row: value} per column of the
    map: every monomial leg is read here, built straight off
    :func:`_monomial_skeleton`.  Monomial (k_1, ..., k_s) meets the one
    that drops a power of x_i, for i ascending, through
    (-1)^(k_1+...+k_(i-1)) times A_i - I (odd k_i) or N_i(A) (even k_i > 0),
    as in :func:`~cohomolab.resolutions.minimal_diff`; with ``dual``,
    through their antipodes A_i^-1 - I and N_i(A).

    A face of source j into target k through block B puts B[t][u] at row
    (j, t), column (k, u) of the plain map and at row (k, t), column (j, u)
    of the dual one; the transpose swaps each row and column and reads B's
    columns.  So every shape is the one loop over the faces, each row index
    a source or a target, and a face through an all-zero block (A_i - I on
    a trivial module) is skipped.  A plain row keeps the faces' pair order,
    and a dual one its sources in ascending index.

    >>> from cohomolab.group_ring import GroupSpec
    >>> from cohomolab.modules import trivial_module
    >>> Z = trivial_module(GroupSpec.of(2))
    >>> _minimal_rows(Z, 2, False, False), _minimal_rows(Z, 0, False, False)
    ([{0: 2}], [{0: 2}])
    """
    d = M.rank
    if m:
        dual ^= m < 0
        table, kinds, targets = _monomial_skeleton(M.spec.ngens, abs(m))
        blocks = _kind_blocks(M, kinds, dual)
    else:
        table, targets, blocks = (((0, 0),),), 1, [M.block_rows(None)]
    by_source = dual == transpose
    live = [blk if any(blk) else None for blk in blocks]  # None: an all-zero block
    if transpose:
        live = [blk and _transposed(blk) for blk in live]
    rows: list[_Row] = [{} for _ in range(d * (len(table) if by_source else targets))]
    for j, faces in enumerate(table):
        for k, b in faces:
            blk = live[b]
            if blk is None:
                continue
            r, c = (j * d, k * d) if by_source else (k * d, j * d)
            for t, entries in enumerate(blk):
                row = rows[r + t]
                for u, x in entries:
                    row[c + u] = x
    return rows


_GroupTable = tuple[tuple[int, ...], ...]  # see _product_table and _merged_table
# a prefix run of the standard resolution's differential, see _bar_values:
# (g_1, first-face start, inner merges as (start, sign), last-merge start,
# product-table row of g_(m-1), last face)
_Run = tuple[int, int, list[tuple[int, int]], int, Sequence[int], int]
# what every leg of the standard resolution reads, see _bar_tables
_BarTables = tuple[_GroupTable, list[_Block]]


def _bar_leg(M: GModule, m: int, limits: EngineLimits | None) -> int:
    """The number of targets of the standard-resolution leg leaving degree
    m >= 1, after the caps of ``bar_diff``.  Each reader that walks a leg
    prices it here once, before reading anything."""
    if m < 1:
        raise ValueError("differential starts at degree 1")
    size = M.spec.order - 1
    limits = limits or EngineLimits.from_env()
    limits.check_bar_degree(m)
    limits.check_cells(size ** (m - 1), size**m, "standard-resolution differential")
    return size ** (m - 1)


def _bar_values(
    M: GModule, m: int, tables: _BarTables, vecs: Sequence[Sequence[int]]
) -> Iterator[list[int]]:
    """phi . D over Z for each flat cochain phi of ``vecs``, D the standard
    resolution's differential leaving degree m >= 1 in the plain shape of
    :func:`_cell_rows`, read in prefix runs on a leg the caller has priced
    (:func:`_bar_leg`): per run, phi and module coordinate t, the values at
    t of the run's sources, by x.

    A run is the |G| - 1 sources [g_1|...|g_(m-1)|x] that share a prefix,
    consecutive in bar basis order, by x ascending.  Over a run:

    * the first faces are the consecutive targets from ``first``, all met
      through the block of g_1;
    * each inner merge face i < m - 1 is consecutive too, from its start,
      met through (-1)^i I;
    * the last merge face [...|g_(m-1) x] is target ``at`` plus the index
      of g_(m-1) x in the product-table ``row`` of g_(m-1), which reads -1
      where that product is the identity;
    * the last face is the one target ``last``, the prefix itself.

    For m = 1 the one run has g_1 = -1: source [x] meets [] through the
    block of x.  So a value is the block of g_1 on the slice of phi over
    the first faces, plus or minus the slices over the inner merges, plus
    or minus phi gathered through the product-table row of the last merge,
    and plus or minus phi at the last face.  With dual ``tables``, D is the
    dual leg transposed, read through the transposed antipode blocks.  Each
    value is a sum of at most (longest block row) + m terms, each a block
    entry or +-1 times an entry of phi: where first and last face coincide,
    for [g|...|g] (always for m = 1), the two stay separate terms."""
    merged, blocks = tables
    d = M.rank
    size = len(blocks)
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

    # cols[r][t]: coordinate t of vecs[r] per target, then the 0 that the
    # product table's -1 reads
    cols = [[[*vec[t::d], 0] for t in range(d)] for vec in vecs]
    for a, first, inner, at, row, last in runs():
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
                gathered, c = map(seg.__getitem__, row), col[last]
                # the last merge and the last face, signs (-1)^(m-1) and (-1)^m
                if m % 2:
                    yield [y + z - c for y, z in zip(v, gathered)]
                else:
                    yield [y - z + c for y, z in zip(v, gathered)]


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


def _cell_index(e: Sequence[int], size: int) -> int:
    """The bar basis index of the cell whose elements have the indices ``e``
    among ``size`` nonidentity elements."""
    h = 0
    for x in e:
        h = h * size + x
    return h


def _cell_faces(
    merged: _GroupTable, m: int, e: Sequence[int]
) -> tuple[int, int, int, list[tuple[int, int]]]:
    """The index of the cell [g_1|...|g_m], m >= 1, whose elements have the
    indices ``e``, the indices of its first face [g_2|...|g_m] and its last
    face [g_1|...|g_(m-1)], and its merge faces as (index, sign): merge i
    through (-1)^i, none where g_i g_(i+1) is the identity, that is where
    ``merged`` (:func:`_bar_tables`) reads -1.  Cells are indexed as in
    :func:`_cell_index`."""
    size = len(merged)
    h = _cell_index(e, size)
    merges = []
    # merge i: the prefix before g_i, then g_i g_(i+1), then the suffix
    # after g_(i+1), which takes q = size^(m-i-1) values
    q, sign = size ** (m - 1), 1
    for i in range(1, m):
        q, sign = q // size, -sign
        if (b := merged[e[i - 1]][e[i]]) >= 0:
            merges.append(((h // (q * size * size) * size + b) * q + h % q, sign))
    return h, h % size ** (m - 1), h // size, merges


def _cell_rows(
    M: GModule, m: int, tables: _BarTables, e: Sequence[int]
) -> tuple[int, list[_Row]]:
    """The index of the cell [g_1|...|g_m] whose elements have the indices
    ``e``, and its d rows of the standard-resolution leg leaving degree m
    >= 1 in the plain shape.

    That shape indexes elements in nonidentity order and cells in bar basis
    order.  Cell [g_1|...|g_m] meets its first face [g_2|...|g_m] through
    the first-face block of g_1 in ``tables`` (:func:`_bar_tables`), each
    merge face i through (-1)^i I (none where g_i g_(i+1) is the identity)
    and its last face through (-1)^m I, in the order of
    :func:`~cohomolab.resolutions.bar_diff`.  Dual tables hold the
    transposed antipode blocks, so their rows are those of the dual leg
    transposed: each other face's +-I is its own transpose.  Row t is built
    from the cell alone, coefficients reduced mod N, zeros left out.  Where
    the last face is the first, for [g|...|g], its (-1)^m is folded into
    the block's row, in column order."""
    d, N = M.rank, M.modulus
    merged, blocks = tables
    h, first, last, faces = _cell_faces(merged, m, e)
    if first != last:
        faces.append((last, (-1) ** m))
    rows = []
    for t, head in enumerate(blocks[e[0]]):
        if first == last:
            fold = dict(head)
            fold[t] = fold.get(t, 0) + (-1) ** m
            head = sorted(fold.items())
        row = {first * d + u: x for u, x in head}
        for k, sign in faces:
            row[k * d + t] = sign
        rows.append({k: y for k, x in row.items() if (y := x % N if N else x)})
    return h, rows


@lru_cache(maxsize=_SKELETON_TABLES)
def _morse_walk(orders: tuple[int, ...], m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The Morse matching's walk of degree m >= 0 over the group with cyclic
    factors ``orders``, whatever the module: each cell [e|x] of degree m
    with e critical of degree m - 1 (for m = 0 the one empty cell) is
    classified by :func:`_morse_partner` as split upward, critical or
    merged downward, and the split ones are returned as in
    :func:`_morse_splits`, each with the element indices of its up cell.

    Here the partition guard of degree m is read, or
    :class:`VerificationError` raised.  Write S_k, C_k and D_k for the cells
    of degree k matched upward (the split cells of the table of
    (orders, k + 1)), critical (:func:`_critical_cells`) and matched
    downward (the up cells of the table of (orders, k)), E(X) for the
    extensions [p|x] of the cells p in X, and W_s, W_c and W_d for the
    walk's split, critical and merged cells, which split E(C_(m-1)), each
    cell once.  The guard checks, counting repeats, that C_m = W_c and
    D_m = E(D_(m-1)) + W_d.  The tables are grown by the prefix rule
    (:func:`_morse_splits`), so S_m = E(S_(m-1)) + W_s.  If S_(m-1),
    C_(m-1) and D_(m-1) split degree m - 1, each cell once (the guard of
    degree m - 1, read by its walk, down to degree 0, whose one cell, the
    empty one, is critical), their extensions split degree m, each cell
    once, since every cell of degree m has one prefix.  So S_m, C_m and D_m,
    which regroup E(S_(m-1)), W_s, W_c, W_d and E(D_(m-1)), split the
    (|G| - 1)^m cells of degree m, each cell once: the partition
    that counting S_m + C_m + D_m against (|G| - 1)^m distinct cells
    checks, read off a walk of (|G| - 1) C(m+s-2, s-1) cells and the tables
    of (orders, m) and (orders, m - 1), with no table above (orders, m)
    built for it."""
    elements = GroupSpec(orders).nonidentity_elements()
    size = len(elements)
    index = {g: e for e, g in enumerate(elements)}
    walked = [(0, ())]
    if m:
        walked = [
            (_cell_index(e, size) * size + x, (*map(elements.__getitem__, e), g))
            for e in _critical_cells(orders, m - 1) for x, g in enumerate(elements)
        ]
    splits, critical, merged = [], [], []
    for h, cell in walked:
        partner = _morse_partner(orders, cell)
        if partner is None:
            critical.append(h)
        elif len(partner) > m:
            splits.append((h, tuple(index[g] for g in partner)))
        else:
            merged.append(h)
    ups = [_cell_index(up, size) for _, up in _morse_splits(orders, m)] if m else []
    if m > 1:  # and the extensions of the up cells of degree m - 1
        merged += [_cell_index(up, size) * size + x
                   for _, up in _morse_splits(orders, m - 1) for x in range(size)]
    cells = [_cell_index(e, size) for e in _critical_cells(orders, m)]
    if sorted(critical) != sorted(cells) or sorted(ups) != sorted(merged):
        raise VerificationError(f"Morse cells of degree {m} over {orders}: no partition")
    return tuple(splits)


@lru_cache(maxsize=_SKELETON_TABLES)
def _morse_splits(orders: tuple[int, ...], m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The Morse matching's pairs across the standard-resolution leg
    leaving degree m >= 1 of the group with cyclic factors ``orders``,
    whatever the module: for each cell of degree m - 1 that
    :func:`_morse_partner` splits upward, in bar basis order, its index and
    the element indices of its up cell.

    Grown from the table of (orders, m - 1) and the walk of degree m - 1
    (:func:`_morse_walk`), which read the partition guard of every degree
    below m: :func:`_morse_partner` decides at the first pair that splits
    or merges, so a cell [p|x] follows its prefix p.  A p split into up
    splits [p|x] into [up|x], a p merged downward merges [p|x], and only
    the extensions of the C(m+s-3, s-1) critical prefixes are walked,
    |G| - 1 each, once per degree.  At most ``_SKELETON_TABLES`` keys.  A
    table holds at most one pair per cell of degree m - 1, (|G| - 1)^(m - 1),
    and every read of it follows :func:`_morse_reach`, which only
    :func:`_morse_leg` and :func:`_morse_complex` call, once they have
    priced leg m, whose columns are that many cells or more
    (:func:`_bar_leg`).  So under the default caps a table holds at most
    20^3 = 8000 pairs (|G| = 21, m = 4); (2,2,4) holds 207 for m = 3."""
    size = prod(orders) - 1
    grown = _morse_splits(orders, m - 1) if m > 1 else ()
    splits = [(p * size + x, (*up, x)) for p, up in grown for x in range(size)]
    return tuple(sorted(splits + list(_morse_walk(orders, m - 1))))


def _bar_pivots(
    M: GModule, m: int, tables: _BarTables, pairs: Iterable[tuple[int, tuple[int, ...]]]
) -> tuple[dict[int, int], dict[int, _Row]]:
    """The unit pivots of the standard-resolution leg leaving degree m >= 1
    in the plain shape of :func:`_cell_rows` that ``pairs`` name, read
    through ``tables``, as {column: row}, and their rows by row index.  A
    pair (c, h) of :func:`_morse_splits` has c a merge face of h, met
    through +-I and through no other face (:func:`_morse_reach` checks it),
    so coordinate t of c is a pivot column in row t of h, built by
    :func:`_cell_rows`.  Cells are indexed as in :func:`_cell_rows`.  The
    pairs depend on (orders, m) alone; only the rows are built per
    module."""
    d = M.rank
    pivots: dict[int, int] = {}
    rows: dict[int, _Row] = {}
    for c, up in pairs:
        h, cell_rows = _cell_rows(M, m, tables, up)
        for t, row in enumerate(cell_rows):
            pivots[c * d + t] = h * d + t
            rows[h * d + t] = row
    return pivots, rows


@lru_cache(maxsize=_SKELETON_TABLES)
def _critical_cells(orders: tuple[int, ...], m: int) -> tuple[tuple[int, ...], ...]:
    """The cells of degree m that :func:`_morse_partner` leaves unmatched,
    as element indices, one per monomial of degree m in basis order: x^k is
    the cell of k_i letters of x_i for i descending, alternately x_i and
    x_i^(o_i - 1), since only a letter after a later generator's, or the
    rest of o_i after x_i, is neither split nor merged.  Tabled once per
    (orders, m), whatever the module, for the walk of degree m + 1
    (:func:`_morse_walk`), the guard of degree m and the reads of the legs
    leaving degrees m and m + 1 (:func:`_morse_reach`, :func:`_morse_leg`
    and :func:`_morse_complement`); C(m+s-1, s-1) cells of m indices each,
    at most ``_SKELETON_TABLES`` keys."""
    s = len(orders)
    # x_i^e has the index e * o_(i+1) ... o_s among the elements
    stride = [prod(orders[i + 1 :]) for i in range(s)]
    return tuple(
        tuple((orders[i] - 1 if j % 2 else 1) * stride[i] - 1
              for i in reversed(range(s)) for j in range(k[i]))
        for k in monomial_basis(s, m)
    )


@lru_cache(maxsize=_SKELETON_TABLES)
def _morse_reach(orders: tuple[int, ...], m: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The pairs of :func:`_morse_splits` of (orders, m) that the critical
    cells of degree m reach, in table order, whatever the module: the
    pivots whose R's the critical complement of the leg leaving degree
    m >= 1 reads (:func:`_morse_complement`), the gradient paths of
    Skoldberg and Joellenbeck-Welker.  A critical cell reaches the split
    cells among its faces, and the up cell of a reached split cell the
    split cells among its own other faces.

    Every read of the Morse complex passes through here, so here its
    module-free guards raise :class:`VerificationError`: the partition
    guard of every degree up to m (the walk of degree m,
    :func:`_morse_walk`, and the tables below it); an up
    cell that meets its split cell through any face but exactly one merge
    face, so that some pivot might not be +-I; or a chain of substitutions
    at the cell level that returns to a cell, split cell c needing split
    cell k where k is another face of c's up cell.  Where the cell graph
    has no cycle, neither has the graph of pivot coordinates, whose edges
    it covers, so the whole pivot block is triangular up to order with a
    unit diagonal for every module and modulus.  At most
    ``_SKELETON_TABLES`` keys, each filled by a reader that priced leg m
    first; a table holds at most the pairs of :func:`_morse_splits`
    (31 of 207 for (2,2,4) and m = 3)."""
    _morse_walk(orders, m)
    splits = _morse_splits(orders, m)
    merged = _merged_table(orders)
    split = dict(splits)

    def met(e: Sequence[int]) -> list[int]:
        # a cell's first and last faces, then its merge faces
        _, first, last, merges = _cell_faces(merged, m, e)
        return [first, last, *[k for k, _ in merges]]

    needs = {}  # split cell -> the other split cells its up cell meets
    for c, up in splits:
        faces = met(up)
        if faces.count(c) != 1 or c in faces[:2]:
            raise VerificationError(f"Morse pivots leaving degree {m} over {orders}: no merge face")
        needs[c] = [k for k in faces if k in split and k != c]
    # no cycle: a cell is freed once every cell that needs it is, and the
    # cells of a cycle never are
    waiting = Counter(k for ks in needs.values() for k in ks)
    free = [c for c in needs if not waiting[c]]
    for c in free:
        for k in needs[c]:
            waiting[k] -= 1
            if not waiting[k]:
                free.append(k)
    if len(free) < len(needs):
        raise VerificationError(f"Morse pivots leaving degree {m} over {orders}: a cycle")
    todo = [k for e in _critical_cells(orders, m) for k in met(e) if k in split]
    reached = set()
    while todo:
        if (c := todo.pop()) not in reached:
            reached.add(c)
            todo += needs[c]
    return tuple(pair for pair in splits if pair[0] in reached)


def _morse_leg(
    M: GModule, m: int, tables: _BarTables, limits: EngineLimits | None, mod: int | None, every: bool
) -> tuple:
    """The Morse pivots of the standard-resolution leg leaving degree m >= 1
    in the plain shape of :func:`_cell_rows`, priced by :func:`_bar_leg`
    and solved over the critical columns: the one read of a leg's pivots.
    It raises :class:`VerificationError` where the leg fails a guard of
    :func:`_morse_reach`, or the built pivots one of
    :func:`~cohomolab.intlinalg.solve_pivots`.

    It builds ``every`` pair of :func:`_morse_splits` (the Morse complex's
    lift gives each pivot column of leg n + 1 a value), or else the pairs
    reached by the critical cells, all that a critical complement or the
    Morse complex's projection reads.  The guards cover the whole pivot
    block either way, so it is eliminated whole: d per pair of
    :func:`_morse_splits`.

    Returns the built pivots of :func:`_bar_pivots`; their rows, kept at
    the pivot columns and the critical columns; their R's, in solve order;
    and the critical columns, {bar coordinate: critical coordinate},
    coordinate t of the i-th cell of :func:`_critical_cells` of degree
    m - 1 being critical coordinate i * d + t.  Every other column is a
    cell matched downward, which the caller moves cochains off through leg
    m - 1's pivots, so no R reads it.  Dual ``tables`` give the dual leg's
    pivots, transposed, which have the same Smith diagonal."""
    _bar_leg(M, m, limits)
    orders = M.spec.orders
    reached = _morse_reach(orders, m)
    pivots, rows = _bar_pivots(M, m, tables, _morse_splits(orders, m) if every else reached)
    d, size = M.rank, len(tables[0])
    columns = {}
    for i, e in enumerate(_critical_cells(orders, m - 1)):
        h = _cell_index(e, size)
        columns.update((h * d + t, i * d + t) for t in range(d))
    kept = {r: {k: x for k, x in row.items() if k in pivots or k in columns} for r, row in rows.items()}
    try:
        return pivots, kept, solve_pivots(kept, pivots, mod), columns
    except ValueError as exc:
        raise VerificationError(f"Morse pivots leaving degree {m} over {orders}: {exc}") from None


def _morse_complement(
    M: GModule, m: int, tables: _BarTables, leg: tuple, mod: int | None
) -> tuple[list[_Row], list[_Row]]:
    """The rows of the critical cells of degree m of a leg that
    :func:`_morse_leg` solved, in bar coordinates, and their Schur
    complement at the critical columns, in critical coordinates: the
    monomial resolution's leg up to one sign per cell, in the plain shape
    (the dual leg transposed, with dual ``tables``).  The Morse complex
    reads its image and kernel off it, and the Smith branch of
    :func:`_complex_group` the leg's Smith diagonal: a 1 per pivot plus
    the complement's."""
    _, _, solved, columns = leg
    N = mod or 0
    raw, complement = [], []
    for e in _critical_cells(M.spec.orders, m):
        for row in _cell_rows(M, m, tables, e)[1]:
            out: dict[int, int] = {}
            for k, x in row.items():
                if k in solved:
                    for q, y in solved[k].items():
                        out[columns[q]] = out.get(columns[q], 0) - x * y
                elif k in columns:
                    out[columns[k]] = out.get(columns[k], 0) + x
            raw.append(row)
            complement.append({q: y for q, x in out.items() if (y := x % N if N else x)})
    return raw, complement


@lru_cache(maxsize=_SKELETON_TABLES)
def _product_table(orders: tuple[int, ...]) -> _GroupTable:
    """mul[a][b], the index of the product of the a-th and b-th elements of
    the group with cyclic factors ``orders``, in element order; built once
    per group, as tuples that no caller can change.

    >>> _product_table((2,))
    ((0, 1), (1, 0))
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
    return tuple(map(tuple, mul))


@lru_cache(maxsize=_SKELETON_TABLES)
def _merged_table(orders: tuple[int, ...]) -> _GroupTable:
    """merged[a][b], the index of the product of the a-th and b-th
    nonidentity elements among the nonidentity elements of the group with
    cyclic factors ``orders``, or -1 where it is the identity; built once
    per group, as tuples."""
    return tuple(tuple(c - 1 for c in row[1:]) for row in _product_table(orders)[1:])


def _bar_weight(blocks: list[_Block], m: int) -> int:
    """A bound on the sum of |D[r][k]| over the terms :func:`_bar_values`
    adds for one value of the standard-resolution leg D leaving degree m
    with first-face ``blocks``: at most (longest block row) + m terms, each
    a block entry or +-1."""
    entries = [abs(x) for blk in blocks for row in blk for _, x in row]
    longest = max((len(row) for blk in blocks for row in blk), default=0)
    return (longest + m) * max(entries, default=1)


def _bar_tables(M: GModule, dual: bool) -> _BarTables:
    """What every leg of the standard resolution reads: merged[a][b], the
    index of g_a g_b among the nonidentity elements or -1 for the identity,
    and the first-face blocks of :func:`_cell_rows` by element index, the
    transposed antipode blocks with ``dual``.  The tables are the one
    carrier of ``dual``: every reader of a leg takes them, built once per
    call.

    >>> from cohomolab.group_ring import GroupSpec
    >>> from cohomolab.modules import trivial_module
    >>> _bar_tables(trivial_module(GroupSpec.of(3)), False)
    (((1, -1), (-1, 0)), [[[(0, 1)]], [[(0, 1)]]])
    """
    G = M.spec
    merged = _merged_table(G.orders)
    blocks = [M.element_rows(G.inv(g) if dual else g) for g in G.nonidentity_elements()]
    if dual:
        blocks = [_transposed(b) for b in blocks]
    return merged, blocks


def _sigma_rows(M: GModule, m: int) -> list[_Row]:
    """The Hom rows of the comparison map sigma_m from the standard
    resolution into the monomial resolution, m = 0, 1 or 2: d rows per
    source, in bar basis order, with columns on the degree-m monomials.
    sigma_0 is the identity of P_0 = Z[G].

    Write g = a_1^k_1 ... a_s^k_s, g_<i for its factors before a_i, and
    N_i(k) = 1 + a_i + ... + a_i^(k-1).  Source [g] meets x_i, for each
    k_i > 0, through g_<i N_i(k_i).  Source [g|h] meets, for i ascending
    with k = g_i > 0 and j <= i ascending with l = h_j > 0, x_i^2 through
    floor((k + l) / o_i) g_<i h_<i when j = i (nothing when that is 0), and
    x_j x_i through -g_<i h_<j N_j(l) N_i(k) when j < i: the sign makes up
    for the one d gives the mixed monomial.  Each block is a sum of the
    module's element matrices, reduced mod N, built once per call, and its
    row t is written straight into the source's row t at its target's
    columns.
    """
    d = M.rank
    if not m:
        return [{t: 1} for t in range(d)]
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
    rows: list[_Row] = []

    def put(k: int, c: int, outer: int, runs: tuple[tuple[int, int], ...]) -> None:
        # c g N_i(k) ... over the (i, k) of ``runs``, as a sum of elements,
        # into the current source's rows at target k
        key = (c, outer, runs)
        blk = blocks.get(key)
        if blk is None:
            elems = [elements[outer]]
            for i, e in runs:
                elems = [g[:i] + (g[i] + b,) + g[i + 1 :] for g in elems for b in range(e)]
            terms = [(c, M.element_rows(g)) for g in elems]
            blk = blocks[key] = _sparse_rows(_combine(terms, d), M.modulus)
        base = k * d
        for row, brow in zip(source, blk):
            for u, x in brow:
                row[base + u] = x

    if m == 1:
        for a, g in enumerate(elements[1:], 1):
            rows += (source := [{} for _ in range(d)])
            for i, k in enumerate(g):
                if k:
                    put(target[i][0], 1, a // tails[i] * tails[i], ((i, k),))
        return rows
    mul = _product_table(G.orders)
    for a, b in itertools.product(range(1, len(elements)), repeat=2):
        g, h = elements[a], elements[b]
        rows += (source := [{} for _ in range(d)])
        for i, k in enumerate(g):
            if not k:
                continue
            head = a // tails[i] * tails[i]
            for j, l in enumerate(h[: i + 1]):
                if not l:
                    continue
                outer = mul[head][b // tails[j] * tails[j]]
                if j < i:
                    put(target[i][j], -1, outer, ((j, l), (i, k)))
                elif q := (k + l) // G.orders[i]:
                    put(target[i][i], q, outer, ())
    return rows


def _leg_rows(
    M: GModule,
    resolution: str,
    m: int,
    dual: bool = False,
    limits: EngineLimits | None = None,
    tables: _BarTables | None = None,
) -> Iterator[_Row]:
    """The Hom rows, phi -> phi . D, of the differential D of
    ``resolution`` leaving degree m, antipode-transposed when ``dual``.  A
    monomial leg is the rows :func:`_minimal_rows` builds: on the complete
    resolution degree 0 is the norm N_G, its own antipode, and a negative
    degree m the dual of the differential leaving -m.  A
    standard-resolution leg is the rows of :func:`_bar_rows`, priced before
    the first, read through ``tables`` (:func:`_bar_tables`, built here for
    ``dual`` when the caller passes none); a dual leg is the transpose of
    that plain-shaped one (:func:`_columns`), its sources in ascending
    index: the entry order of the antipode-transposed matrix.

    >>> from cohomolab.group_ring import GroupSpec
    >>> from cohomolab.modules import trivial_module
    >>> Z = trivial_module(GroupSpec.of(2))
    >>> list(_leg_rows(Z, "bar", 1)), list(_leg_rows(Z, "bar", 2))
    ([{}], [{0: 2}])
    """
    if resolution != "bar":
        yield from _minimal_rows(M, m, dual, False)
        return
    tables = tables or _bar_tables(M, dual)
    rows = _bar_rows(M, m, limits, tables)
    # the (|G| - 1)^(m - 1) targets of the plain shape are the dual's sources
    yield from _columns(rows, M.rank * len(tables[0]) ** (m - 1)) if dual else rows


def _bar_rows(
    M: GModule, m: int, limits: EngineLimits | None, tables: _BarTables
) -> Iterator[_Row]:
    """The :func:`_cell_rows` of every cell of the standard-resolution leg
    leaving degree m, in bar basis order, read through ``tables``: the leg
    in their plain shape, priced by :func:`_bar_leg` before this returns.
    Through dual tables these rows are the columns of the dual leg."""
    _bar_leg(M, m, limits)
    cells = itertools.product(range(len(tables[0])), repeat=m)
    return (row for e in cells for row in _cell_rows(M, m, tables, e)[1])


def _columns(rows: Iterable[_Row], width: int) -> list[_Row]:
    """The ``width`` columns of a map given by its streamed rows, in column
    order, as {row: value} dicts: the rows, transposed."""
    cols: list[_Row] = [{} for _ in range(width)]
    for r, row in enumerate(rows):
        for k, c in row.items():
            cols[k][r] = c
    return cols


def _apply(M: GModule, rows: Iterable[_Row], flat: Sequence[int]) -> list[int]:
    """The flat cochain phi . D for a flat cochain phi and the Hom rows of D,
    reduced mod the module's modulus."""
    # a plain loop: the rows are short, sigma's one or two entries
    N, out = M.modulus, []
    for row in rows:
        x = 0
        for k, c in row.items():
            x += c * flat[k]
        out.append(x % N if N else x)
    return out


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
    lift: Callable[[list[int]], list[int]] | None = None,
) -> tuple[Cochain, ...]:
    """Each generator's residue modulo the coboundaries, torsion first by
    ascending order (a pivot read leaves its diagonal in elimination
    order), checked to be a cocycle in one pass, which is skipped when there is no
    generator: ``vanishes`` says whether phi . D vanishes, mod N where the
    module has one, for all the residues together.  That is
    :func:`_runs_vanish` on a plain standard-resolution leg and
    :func:`_rows_vanish` on any other.  On the Morse complex ``pres`` is
    the presentation on its critical coordinates, and each residue is
    ``lift``-ed to a bar cochain before the check.  Mod N the Hermite basis
    has a pivot in every row, so the residues lie in [0, N)."""
    gens = sorted((d == 0, d, i) for i, d in enumerate(pres.diagonal) if d != 1)
    vecs = [pres.residue(pres.generator_column(i)) for _, _, i in gens]
    if lift:
        vecs = [lift(vec) for vec in vecs]
    if vecs and not vanishes(vecs):
        raise VerificationError(f"extracted degree-{degree} representative is not a cocycle")
    return tuple(Cochain.from_flat(degree, vec, count, M.rank) for vec in vecs)


def _rows_vanish(rows: Iterable[_Row], N: int, vecs: list[list[int]]) -> bool:
    """Whether phi . D vanishes, mod N when N is set, for each flat cochain
    phi of ``vecs``, against every Hom row of D in turn."""
    for row in rows:
        for vec in vecs:
            x = 0
            for k, c in row.items():
                x += c * vec[k]
            if x % N if N else x:
                return False
    return True


def _runs_vanish(M: GModule, m: int, tables: _BarTables, vecs: list[list[int]]) -> bool:
    """Whether phi . D vanishes, mod N where the module has one, for each
    flat cochain phi of ``vecs``, D the standard resolution's differential
    leaving degree m, against every run of :func:`_bar_values` in turn, on
    a leg the caller has priced.  Over Z the cochains are read at once,
    packed by Kronecker substitution into one integer per coordinate: a
    signed slot per cochain, wider than :func:`_bar_weight` times its
    largest entry, so no slot carries into the next and a packed value is 0
    only where every slot is."""
    N = M.modulus
    if not N and len(vecs) > 1:
        top = _bar_weight(tables[1], m) * max(abs(x) for vec in vecs for x in vec)
        shifts = range(0, (top.bit_length() + 1) * len(vecs), top.bit_length() + 1)
        vecs = [[sum(x << w for x, w in zip(col, shifts)) for col in zip(*vecs)]]
    for values in _bar_values(M, m, tables, vecs):
        if any(x % N for x in values) if N else any(values):
            return False
    return True


@dataclass
class _MorsePresentation:
    """A presentation on the critical coordinates of :func:`_morse_complex`
    with the methods of a :class:`~cohomolab.intlinalg.QuotientPresentation`
    that the result reads, on bar cochains: a cochain is projected before
    the presentation reads it, every residue it returns is lifted, and
    coordinates are taken only of cochains that ``closed`` finds to be
    cocycles.  Everything else, the diagonal included, is the critical
    presentation's own."""

    critical: QuotientPresentation
    project: Callable[[Sequence[int]], list[int]]
    lift: Callable[[Sequence[int]], list[int]]
    closed: Callable[[list[list[int]]], bool]

    def __getattr__(self, name: str):
        # the diagonal, the Hermite bases and the transforms
        if name == "critical":
            raise AttributeError(name)
        return getattr(self.critical, name)

    def coordinates(self, vec: Sequence[int]) -> list[int]:
        if not self.closed([list(vec)]):
            raise ValueError("vector is not in the lattice")
        return self.critical.coordinates(self.project(vec))

    def residue(self, vec: Sequence[int]) -> list[int]:
        return self.lift(self.critical.residue(self.project(vec)))


def _morse_complex(
    M: GModule, n: int, mod: int | None, tables: _BarTables, limits: EngineLimits | None
) -> tuple[list[_Row], Iterator[_Row], int, Callable, Callable]:
    """The Morse complex of the standard resolution at degree n, as a leg
    source on the critical coordinates of degree n (see the module
    docstring): the nonzero columns of leg n's complement, which span the
    image; the rows of leg n + 1's complement, a generator read only where
    a kernel is needed; the critical width; ``project``, which takes a bar
    cocycle to the critical coordinates of a cohomologous one that vanishes
    on the cells matched downward; and ``lift``, which takes a critical
    vector back to the bar cochain that does.  All three legs are priced
    before any table or pivot is built; then leg n - 1's guards are read
    (:func:`_morse_reach`), and legs n and n + 1 (:func:`_morse_leg`)."""
    for m in range(max(n - 1, 1), n + 2):
        _bar_leg(M, m, limits)
    if n > 1:  # leg n - 1's pivots move cochains of degree n - 1; no R is read
        _morse_reach(M.spec.orders, n - 1)
    # project and leg n's complement read the pivots its critical rows
    # reach; lift gives every pivot column of leg n + 1 a value
    leg = _morse_leg(M, n, tables, limits, mod, False) if n else ()
    top = _morse_leg(M, n + 1, tables, limits, mod, True)
    N = mod or 0
    solved, coords = top[2], list(top[3])
    raw, complement = _morse_complement(M, n, tables, leg, mod) if n else ([], [])
    image = [c for c in _columns(complement, len(leg[3])) if c] if n else []

    def kernel() -> Iterator[_Row]:
        yield from _morse_complement(M, n + 1, tables, top, mod)[1]

    width = M.rank * (M.spec.order - 1) ** n

    def lift(v: Sequence[int]) -> list[int]:
        # a cell matched downward takes 0, one matched upward -R(j) . v
        x = [0] * width
        for q, y in zip(coords, v):
            x[q] = y
        for j, R in solved.items():
            x[j] = -sum(y * x[q] for q, y in R.items())
        return [y % N for y in x] if N else x

    def project(vec: Sequence[int]) -> list[int]:
        # vec - D y, y on leg n's pivot columns solving D y = vec on their
        # rows, which the solve order allows one column at a time
        if not n:
            return [vec[q] for q in coords]
        pivots, rows, order, _ = leg
        y: dict[int, int] = {}
        for j in order:
            row = rows[pivots[j]]
            acc = vec[pivots[j]] - sum(x * y[k] for k, x in row.items() if k in y)
            y[j] = acc * pow(row[j], -1, N) % N if N else acc * row[j]
        out = [vec[q] - sum(x * y[k] for k, x in row.items() if k in y) for q, row in zip(coords, raw)]
        return [x % N for x in out] if N else out

    return image, kernel(), len(coords), project, lift


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
    Smith diagonals of the maps they need, d_in alone where |G| kills H;
    each standard-resolution leg among them is read off the Morse complex
    (:func:`_morse_leg` and :func:`_morse_complement`), and each monomial
    leg straight off its skeleton (:func:`_minimal_rows`).  Any other
    modulus N switches kernels and quotients to congruences.  Every other
    call runs one quotient on a leg source picked once: the Morse complex
    of :func:`_morse_complex` for a plain standard-resolution leg (ordinary
    cohomology), the same :func:`_minimal_rows` for a monomial leg, its
    image the nonzero rows of the transpose, and the listed legs for a
    dual standard-resolution leg (homology), its image the nonzero rows of
    the plain shape.  The image, the cocycles (the saturation of the image
    where |G| kills H, otherwise the kernel of the outgoing rows, listed
    only where they double as the row-by-row check) and the quotient are
    taken the same way on each.  Where |G| kills H the quotient is read
    off the pivots of the saturation's one sparse elimination
    (:func:`saturation_presentation`), and otherwise through both Hermite
    bases and a Smith form with transforms (:func:`quotient_presentation`).
    A failed Morse guard raises :class:`VerificationError`.
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

    tables = _bar_tables(M, step < 0) if resolution == "bar" else None

    def leg(k: int) -> Iterator[_Row]:
        # the streamed Hom rows of the map between degrees n and k, built
        # on the first read; a standard-resolution call meets only degrees
        # >= 1 here
        return _leg_rows(M, resolution, max(n, k), step < 0, limits, tables)

    if smith:
        # the Smith diagonals of both maps, see the module docstring.  A
        # standard-resolution leg is read off the Morse complex, a 1 per
        # pivot and its critical complement, and a monomial leg straight off
        # its skeleton.  SNF(A) = SNF(A^T), so a map with more rows than
        # columns goes in as its columns and every search runs over the
        # short side
        def diagonal(k: int, rows: int, cols: int) -> list[int]:
            m = max(n, k)
            if tables:
                read = _morse_leg(M, m, tables, limits, mod, False)
                listed = _morse_complement(M, m, tables, read, mod)[1]
                units = M.rank * len(_morse_splits(M.spec.orders, m))
                # a complement has no fewer rows than columns: its columns go in
                rows, cols = len(listed), len(read[3])
                source = _columns(listed, cols)
            else:
                units, source = 0, _minimal_rows(M, m, step < 0, rows > cols)
            return [1] * units + smith_diagonal(source, min(rows, cols), max(rows, cols), mod=mod)

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
    # one quotient for every leg source: a plain standard-resolution leg
    # reads the Morse complex and checks representatives run by run; any
    # other leg is read by leg(), checked row by row.  The image of a
    # monomial leg is the nonzero rows of its transpose, of a dual
    # standard-resolution leg (homology) the nonzero rows of the plain
    # shape its dual tables read, so no leg is transposed twice
    by_runs = has_out and resolution == "bar" and step > 0
    if by_runs:
        icols, out, width, project, lift = _morse_complex(M, n, mod, tables, limits)
    else:
        if not has_in:
            icols = []
        elif tables:
            icols = [row for row in _bar_rows(M, max(n, k_in), limits, tables) if row]
        else:
            icols = [c for c in _minimal_rows(M, max(n, k_in), step < 0, True) if c]
        out = leg(k_out) if has_out else ()
        width, lift = dim, None
    # a killed call always wants representatives, and reads H off the
    # pivots that saturate the image
    sat = saturation_columns(icols) if killed else None
    if sat is not None:
        pres = saturation_presentation(sat, width)
    else:
        if want and not by_runs:
            out = list(out)  # the kernel's rows double as the check
        kcols = kernel_columns(out, width, mod=mod)
        if not want:
            inv = quotient_invariants(kcols, icols, width, mod=N)
            return CohomologyResult(n, kind, inv, M.label, resolution, route)
        pres = quotient_presentation(kcols, icols, width, mod=mod)
    inv = pres.invariants()
    if killed:
        _check_killed(inv, M.spec.order, n)
    # a rank-0 module has no coordinates, and its cochains no values
    count = dim // M.rank if M.rank else 0
    vanishes = partial(_runs_vanish, M, k_out, tables) if by_runs else partial(_rows_vanish, out, N)
    reps = _extract_representatives(pres, M, n, count, vanishes, lift)
    if lift:
        pres = _MorsePresentation(pres, project, lift, vanishes)
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

    @staticmethod
    def price_identity_check(M: GModule, limits: EngineLimits | None = None) -> None:
        """Refuse, by ``limits`` (from the environment when None), the
        |G|^3 triples of :meth:`cocycle_identity_holds` over ``M``, d values
        each, priced as a |G|^2 x |G| d matrix."""
        order = M.spec.order
        limits = limits or EngineLimits.from_env()
        limits.check_cells(order**2, order * M.rank, "factor-set identity check")

    def cocycle_identity_holds(self, *, limits: EngineLimits | None = None) -> bool:
        """Full enumeration of g f(h,k) - f(gh,k) + f(g,hk) - f(g,h) = 0,
        reduced mod N: per pair (g, h) and module coordinate t, one vector
        over all k, priced first (:meth:`price_identity_check`)."""
        M = self.module
        self.price_identity_check(M, limits)
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
    limits = limits or EngineLimits.from_env()
    check = is_cocycle_2(M, gamma, limits=limits)
    if not check:
        raise ValueError(
            "not a cocycle: " + "; ".join(check.violations[:4])
        )
    spec = M.spec
    d = M.rank
    # the table holds d values per pair of elements: price it before sigma
    # lists the elements
    limits.check_cells(spec.order**2, d, "factor-set table")
    flat = _apply(M, _sigma_rows(M, 2), gamma.flat())
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
