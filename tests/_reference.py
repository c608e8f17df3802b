"""Reference implementations the library's row sources are tested against.

They work on group-ring matrices (:class:`~cohomolab.group_ring.RingMatrix`)
entry by entry: a ring element acts on a module as the sum of its element
matrices, a Hom leg is read off the entries of a differential, and the
comparison map sigma is built as a ring matrix.  The library itself never
builds any of these; its faces functions list the same blocks directly.
"""

from __future__ import annotations

from typing import Iterator

from cohomolab.engine import _Block, _hom_rows, _Source
from cohomolab.group_ring import GroupSpec, RingElement, RingMatrix, partial_norm
from cohomolab.intlinalg import IntMatrix
from cohomolab.modules import GModule, _combine
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
