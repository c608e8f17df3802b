"""Finite abelian groups and their integral group rings.

A group is a product of cyclic factors given by their orders; elements are
exponent tuples.  Ring elements are sparse integer combinations of group
elements.  The two distinguished families the resolution layer needs are the
generator monomials a_i^k and the geometric partial sums
1 + a_i + a_i^2 + ... + a_i^(k-1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping


@dataclass(frozen=True)
class GroupSpec:
    """Finite abelian group as a product of cyclic factors.

    orders lists the factor orders in a fixed sequence; elements are exponent
    tuples with component i taken mod orders[i].  Element order is the
    lexicographic product order, which every basis enumeration in the
    package shares.
    """

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.orders:
            raise ValueError("need at least one cyclic factor")
        if any(o < 2 for o in self.orders):
            raise ValueError("cyclic factor orders must be >= 2")

    @staticmethod
    def of(*orders: int) -> "GroupSpec":
        return GroupSpec(tuple(int(o) for o in orders))

    @property
    def ngens(self) -> int:
        return len(self.orders)

    @property
    def order(self) -> int:
        n = 1
        for o in self.orders:
            n *= o
        return n

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.ngens

    def generator(self, i: int, power: int = 1) -> tuple[int, ...]:
        e = [0] * self.ngens
        e[i] = power % self.orders[i]
        return tuple(e)

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(o) for o in self.orders)))

    def nonidentity_elements(self) -> list[tuple[int, ...]]:
        ident = self.identity()
        return [g for g in self.elements() if g != ident]

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((-x) % o for x, o in zip(a, self.orders))

    def index(self, a: tuple[int, ...]) -> int:
        idx = 0
        for x, o in zip(a, self.orders):
            idx = idx * o + x
        return idx

    def primary_decomposition(self) -> dict[int, "GroupSpec"]:
        """Sylow pieces, keyed by prime; each piece keeps the factor order."""
        from cohomolab.intlinalg import _factorize

        parts: dict[int, list[int]] = {}
        for o in self.orders:
            for p, e in _factorize(o):
                parts.setdefault(p, []).append(p**e)
        return {p: GroupSpec(tuple(v)) for p, v in parts.items()}


class RingElement:
    """Sparse element of the integral group ring Z[G].

    Elements are treated as immutable: the hash is computed once and kept.
    """

    __slots__ = ("group", "coeffs", "_hash")

    def __init__(self, group: GroupSpec, coeffs: Mapping[tuple[int, ...], int] | None = None):
        self.group = group
        self._hash: int | None = None
        self.coeffs: dict[tuple[int, ...], int] = {}
        if coeffs:
            for g, c in coeffs.items():
                if c:
                    self.coeffs[g] = self.coeffs.get(g, 0) + c
            self.coeffs = {g: c for g, c in self.coeffs.items() if c}

    @staticmethod
    def zero(group: GroupSpec) -> "RingElement":
        return RingElement(group)

    @staticmethod
    def one(group: GroupSpec) -> "RingElement":
        return RingElement(group, {group.identity(): 1})

    @staticmethod
    def of_element(group: GroupSpec, g: tuple[int, ...], coeff: int = 1) -> "RingElement":
        return RingElement(group, {g: coeff})

    @staticmethod
    def generator(group: GroupSpec, i: int, power: int = 1) -> "RingElement":
        return RingElement.of_element(group, group.generator(i, power))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingElement)
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.group, tuple(sorted(self.coeffs.items()))))
        return h

    def __add__(self, other: "RingElement") -> "RingElement":
        out = dict(self.coeffs)
        for g, c in other.coeffs.items():
            out[g] = out.get(g, 0) + c
        return RingElement(self.group, out)

    def __neg__(self) -> "RingElement":
        return RingElement(self.group, {g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        grp = self.group
        out: dict[tuple[int, ...], int] = {}
        for g, c in self.coeffs.items():
            for h, d in other.coeffs.items():
                k = grp.mul(g, h)
                out[k] = out.get(k, 0) + c * d
        return RingElement(grp, out)

    def scale(self, c: int) -> "RingElement":
        return RingElement(self.group, {g: c * v for g, v in self.coeffs.items()})

    def antipode(self) -> "RingElement":
        """Coefficient-preserving involution g -> g^-1 (a ring map here)."""
        grp = self.group
        return RingElement(grp, {grp.inv(g): c for g, c in self.coeffs.items()})

    def augmentation(self) -> int:
        return sum(self.coeffs.values())

    def items(self) -> Iterator[tuple[tuple[int, ...], int]]:
        return iter(sorted(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for g, c in sorted(self.coeffs.items()):
            parts.append(f"{c}*a^{g}")
        return " + ".join(parts)


def partial_norm(group: GroupSpec, i: int, k: int) -> RingElement:
    """1 + a_i + a_i^2 + ... + a_i^(k-1); exponents wrap, coefficients add.

    Satisfies the splitting rule
    partial_norm(i+k) = partial_norm(i) + a^i * partial_norm(k)
    and (a_i - 1) * partial_norm(k) = a_i^k - 1.
    """
    if k < 0:
        raise ValueError("length must be >= 0")
    out: dict[tuple[int, ...], int] = {}
    for j in range(k):
        g = group.generator(i, j)
        out[g] = out.get(g, 0) + 1
    return RingElement(group, out)


def full_norm(group: GroupSpec) -> RingElement:
    """Sum of all group elements (the norm / trace element)."""
    return RingElement(group, {g: 1 for g in group.elements()})


class RingMatrix:
    """Sparse matrix over Z[G]; differentials in the resolution layer."""

    __slots__ = ("group", "rows", "cols", "entries")

    def __init__(
        self,
        group: GroupSpec,
        rows: int,
        cols: int,
        entries: Mapping[tuple[int, int], RingElement] | None = None,
    ):
        self.group = group
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], RingElement] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError("entry outside matrix shape")
                if v:
                    self.entries[(i, j)] = v

    def entry(self, i: int, j: int) -> RingElement:
        return self.entries.get((i, j), RingElement.zero(self.group))

    def mul(self, other: "RingMatrix") -> "RingMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        by_row: dict[int, list[tuple[int, RingElement]]] = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, []).append((k, v))
        by_col: dict[int, list[tuple[int, RingElement]]] = {}
        for (k, j), v in other.entries.items():
            by_col.setdefault(k, []).append((j, v))
        out: dict[tuple[int, int], RingElement] = {}
        for i, row in by_row.items():
            for k, v in row:
                for j, w in by_col.get(k, ()):  # noqa: B905
                    prod = v * w
                    if prod:
                        key = (i, j)
                        out[key] = out[key] + prod if key in out else prod
        return RingMatrix(self.group, self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return not any(bool(v) for v in self.entries.values())

    def antipode_transpose(self) -> "RingMatrix":
        """Transpose with the antipode applied entrywise.

        This is the matrix of the dual map under the standard identification
        of Hom(Z[G]^n, Z[G]) with Z[G]^n via f -> sum_g f(g) g.  Entries
        that share one element object share its antipode too.
        """
        dual: dict[int, RingElement] = {}
        out = {}
        for (i, j), v in self.entries.items():
            w = dual.get(id(v))
            if w is None:
                w = dual[id(v)] = v.antipode()
            out[(j, i)] = w
        return RingMatrix(self.group, self.cols, self.rows, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        if (self.group, self.rows, self.cols) != (other.group, other.rows, other.cols):
            return False
        keys = set(self.entries) | set(other.entries)
        return all(self.entry(*k) == other.entry(*k) for k in keys)

    def __repr__(self) -> str:
        return f"RingMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"
