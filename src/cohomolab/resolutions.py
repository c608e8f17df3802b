"""Free resolutions of Z over the integral group ring of a finite abelian group.

Two chain complexes are built here, both as sparse matrices over the group
ring in fixed bases:

* the small polynomial-shaped resolution whose degree-n basis is the set of
  degree-n monomials in one variable per group generator, and
* the normalized standard (bar) resolution, used as an independent oracle.

Both extend to a complete (doubly infinite) resolution for Tate cohomology
by splicing the dual complex along the norm map in degree 0.  The comparison
chain map from the standard resolution to the monomial one, in degrees 0
to 2, is never built as a ring matrix: the engine writes its Hom rows
straight from its blocks (``engine._sigma_rows``), as it does for both
differentials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from cohomolab.group_ring import (
    GroupSpec,
    RingElement,
    RingMatrix,
    full_norm,
    partial_norm,
)
from cohomolab.limits import EngineLimits


def monomial_basis(s: int, n: int) -> list[tuple[int, ...]]:
    """All exponent vectors of length s summing to n, lexicographically
    descending; length C(n+s-1, n).

    >>> monomial_basis(2, 2)
    [(2, 0), (1, 1), (0, 2)]
    """
    if s < 1:
        raise ValueError("need at least one variable")
    if n < 0:
        raise ValueError("degree must be >= 0")
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for k in range(remaining, -1, -1):
            rec(prefix + (k,), remaining - k, slots - 1)

    rec((), n, s)
    return out


def minimal_diff(spec: GroupSpec, n: int) -> RingMatrix:
    """Differential of the monomial resolution, degree n -> n-1.

    Dropping one power of the i-th variable from a monomial with exponents
    (k_1, ..., k_s) contributes the coefficient (-1)^(k_1+...+k_(i-1)) times
    (a_i - 1) for odd k_i, or the partial norm 1 + a_i + ... + a_i^(o_i - 1)
    for even k_i > 0.

    The at most 4s distinct coefficients, +-(a_i - 1) and +-N_i for each i,
    are built once per call and shared by every entry that uses them.  The
    engine does not build this matrix: it reads the Hom rows of the same
    pattern off monomial indices, and this is the reference the row source
    is tested against.
    """
    if n < 1:
        raise ValueError("differential starts at degree 1")
    s = spec.ngens
    one = RingElement.one(spec)
    # shared[i][k_i % 2][sign]: the coefficient for an odd or even k_i
    shared = []
    for i in range(s):
        norm = partial_norm(spec, i, spec.orders[i])
        step = RingElement.generator(spec, i) - one
        shared.append(((norm, -norm), (step, -step)))
    src = monomial_basis(s, n)
    dst = monomial_basis(s, n - 1)
    dst_index = {m: i for i, m in enumerate(dst)}
    entries: dict[tuple[int, int], RingElement] = {}
    for col, mono in enumerate(src):
        ksum = 0
        for i, k in enumerate(mono):
            if k:
                # distinct i give distinct targets, so no entry is hit twice
                target = mono[:i] + (k - 1,) + mono[i + 1 :]
                entries[(dst_index[target], col)] = shared[i][k % 2][ksum % 2]
            ksum += k
    return RingMatrix(spec, len(dst), len(src), entries)


def bar_basis(spec: GroupSpec, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Normalized degree-n basis: n-tuples of non-identity elements."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    gens = spec.nonidentity_elements()
    return list(itertools.product(gens, repeat=n))


def bar_diff(spec: GroupSpec, n: int, limits: EngineLimits | None = None) -> RingMatrix:
    """Differential of the normalized standard resolution, degree n -> n-1.

    d[g_1|...|g_n] = g_1 [g_2|...|g_n]
                     + sum_{i=1}^{n-1} (-1)^i [g_1|...|g_i g_(i+1)|...|g_n]
                     + (-1)^n [g_1|...|g_(n-1)]
    with any tuple containing the identity read as zero.
    """
    if n < 1:
        raise ValueError("differential starts at degree 1")
    if limits is not None:
        limits.check_bar_degree(n)
        limits.check_cells((spec.order - 1) ** (n - 1), (spec.order - 1) ** n, "standard-resolution differential")
    src = bar_basis(spec, n)
    dst = bar_basis(spec, n - 1)
    dst_index = {t: i for i, t in enumerate(dst)}
    ident = spec.identity()
    one = RingElement.one(spec)
    entries: dict[tuple[int, int], RingElement] = {}

    def add(row: int, col: int, coeff: RingElement) -> None:
        key = (row, col)
        entries[key] = entries[key] + coeff if key in entries else coeff

    for col, tup in enumerate(src):
        add(dst_index[tup[1:]], col, RingElement.of_element(spec, tup[0]))
        for i in range(1, n):
            merged = spec.mul(tup[i - 1], tup[i])
            if merged == ident:
                continue
            target = tup[: i - 1] + (merged,) + tup[i + 1 :]
            add(dst_index[target], col, one.scale((-1) ** i))
        add(dst_index[tup[:-1]], col, one.scale((-1) ** n))
    return RingMatrix(spec, len(dst), len(src), entries)


# ---------------------------------------------------------------------------
# resolutions as objects, plus the complete (Tate) extension


@dataclass(frozen=True)
class MinimalResolution:
    spec: GroupSpec
    kind: str = "minimal"

    def rank(self, n: int) -> int:
        if n < 0:
            raise ValueError("rank of a negative degree")
        return comb(n + self.spec.ngens - 1, n)

    def diff(self, n: int) -> RingMatrix:
        return minimal_diff(self.spec, n)


@dataclass(frozen=True)
class BarResolution:
    spec: GroupSpec
    limits: EngineLimits | None = None
    kind: str = "bar"

    def rank(self, n: int) -> int:
        if n < 0:
            raise ValueError("rank of a negative degree")
        return (self.spec.order - 1) ** n

    def diff(self, n: int) -> RingMatrix:
        return bar_diff(self.spec, n, self.limits)


Resolution = MinimalResolution | BarResolution


def make_resolution(spec: GroupSpec, kind: str, limits: EngineLimits | None = None) -> Resolution:
    if kind == "minimal":
        return MinimalResolution(spec)
    if kind == "bar":
        return BarResolution(spec, limits)
    raise ValueError(f"unknown resolution kind {kind!r}")


def complete_rank(res: Resolution, n: int) -> int:
    """Rank of the complete resolution in (possibly negative) degree n."""
    return res.rank(n) if n >= 0 else res.rank(-n - 1)


def complete_diff(res: Resolution, n: int) -> RingMatrix:
    """Differential of the complete resolution leaving degree n.

    Degree 0 is the norm map into the spliced dual; negative degrees are the
    duals of the positive differentials, realized as antipode-transposes
    under Hom(R, R) = R via f -> sum_g f(g) g.
    """
    if n >= 1:
        return res.diff(n)
    if n == 0:
        return RingMatrix(res.spec, 1, 1, {(0, 0): full_norm(res.spec)})
    return res.diff(-n).antipode_transpose()
