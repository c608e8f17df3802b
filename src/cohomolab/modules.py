"""Coefficient modules: explicit integer action matrices for each generator.

A module is either a lattice (modulus 0, free over Z) or free over Z/N
(modulus N > 0).  Construction always validates the action matrices: each
generator action must have the right multiplicative order and all actions
must commute.  Invertibility is implied by the order condition.

The divisible coefficient modules that show up in duality statements are
never materialized; :class:`DualDivisible` is a routing marker the engine
resolves through the dual-degree identity on the lattice inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from cohomolab.group_ring import GroupSpec, RingElement
from cohomolab.intlinalg import (
    AbelianInvariants,
    IntMatrix,
    kernel_basis,
    quotient_invariants,
    quotient_presentation,
)


@dataclass(frozen=True)
class GModule:
    spec: GroupSpec
    rank: int
    modulus: int  # 0 = lattice over Z, N > 0 = free module over Z/N
    actions: tuple[IntMatrix, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        if self.modulus < 0:
            raise ValueError("modulus must be >= 0")
        if len(self.actions) != self.spec.ngens:
            raise ValueError("need one action matrix per generator")
        for i, A in enumerate(self.actions):
            if A.rows != self.rank or A.cols != self.rank:
                raise ValueError(f"action {i} is not {self.rank}x{self.rank}")
        if self.modulus:
            reduced = tuple(A.mod(self.modulus) for A in self.actions)
            if reduced != self.actions:
                object.__setattr__(self, "actions", reduced)
        eye = IntMatrix.identity(self.rank)
        for i, (A, o) in enumerate(zip(self.actions, self.spec.orders)):
            if self._reduce(_mat_pow(A, o)) != eye:
                raise ValueError(f"action {i} does not have order dividing {o}")
        for i in range(len(self.actions)):
            for j in range(i + 1, len(self.actions)):
                ab = self.actions[i].mul(self.actions[j])
                ba = self.actions[j].mul(self.actions[i])
                if self._reduce(ab) != self._reduce(ba):
                    raise ValueError(f"actions {i} and {j} do not commute")

    def _reduce(self, A: IntMatrix) -> IntMatrix:
        return A.mod(self.modulus) if self.modulus else A

    @property
    def is_lattice(self) -> bool:
        return self.modulus == 0

    def action_power(self, i: int, k: int) -> IntMatrix:
        return _action_power(self, i, k % self.spec.orders[i])

    def act(self, x: RingElement) -> IntMatrix:
        """Matrix of x in Z[G] acting on the module (reduced mod N if finite)."""
        if x.group != self.spec:
            raise ValueError("ring element is over a different group")
        out = IntMatrix.zeros(self.rank, self.rank)
        for g, c in x.items():
            m = None
            for i, e in enumerate(g):
                p = self.action_power(i, e)
                m = p if m is None else m.mul(p)
            if m is None:
                m = IntMatrix.identity(self.rank)
            out = IntMatrix(
                self.rank,
                self.rank,
                tuple(
                    tuple(a + c * b for a, b in zip(ra, rb))
                    for ra, rb in zip(out.data, m.data)
                ),
            )
        return self._reduce(out)

    def relabel(self, label: str) -> "GModule":
        return GModule(self.spec, self.rank, self.modulus, self.actions, label)

    def __repr__(self) -> str:
        base = self.label or f"module(rank={self.rank})"
        ring = "Z" if self.is_lattice else f"Z/{self.modulus}"
        return f"<{base} over {ring}, G={','.join(map(str, self.spec.orders))}>"


@dataclass(frozen=True)
class DualDivisible:
    """Marker for the divisible dual of a lattice; never built as matrices.

    Cohomology requests against it are answered through the degree-shift
    identity relating it to the plain dual lattice.
    """

    inner: GModule
    label: str = ""

    def __post_init__(self) -> None:
        if not self.inner.is_lattice:
            raise ValueError("divisible dual is only defined for lattices")


def _mat_pow(A: IntMatrix, k: int) -> IntMatrix:
    out = IntMatrix.identity(A.rows)
    base = A
    while k:
        if k & 1:
            out = out.mul(base)
        base = base.mul(base)
        k >>= 1
    return out


@lru_cache(maxsize=None)
def _action_power(module: GModule, i: int, k: int) -> IntMatrix:
    return module._reduce(_mat_pow(module.actions[i], k))


def trivial_module(spec: GroupSpec, rank: int = 1) -> GModule:
    eye = IntMatrix.identity(rank)
    label = "trivial" if rank == 1 else f"trivial:{rank}"
    return GModule(spec, rank, 0, tuple(eye for _ in spec.orders), label)


def zmod_module(spec: GroupSpec, n: int, actions: Sequence[IntMatrix], label: str = "") -> GModule:
    if n < 2:
        raise ValueError("modulus must be >= 2")
    rank = actions[0].rows if actions else 0
    return GModule(spec, rank, n, tuple(actions), label or f"zmod:{n}")


@dataclass(frozen=True)
class CyclotomicSpec:
    """Root-of-unity action data: generator i acts as zeta^exps[i].

    zeta is a primitive root of unity of order p**m; the module is the ring
    it generates, as a lattice of rank (p-1)*p**(m-1) in the power basis.
    """

    spec: GroupSpec
    p: int
    m: int
    exps: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.p < 2 or any(self.p % d == 0 for d in range(2, self.p)):
            raise ValueError("p must be prime")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if len(self.exps) != self.spec.ngens:
            raise ValueError("need one exponent per generator")
        q = self.p**self.m
        if all(e % q == 0 for e in self.exps):
            raise ValueError("all exponents vanish: action would be trivial")

    @property
    def root_order(self) -> int:
        return self.p**self.m

    def is_normalized(self) -> bool:
        """First generator hits a primitive root, the others act trivially."""
        from math import gcd

        q = self.root_order
        if gcd(self.exps[0], q) != 1:
            return False
        return all(e % q == 0 for e in self.exps[1:])


def _companion_of_cyclotomic(p: int, m: int) -> IntMatrix:
    # Phi_{p^m}(t) = sum_{j=0}^{p-1} t^(j*p^(m-1)), monic of degree (p-1)p^(m-1)
    phi = (p - 1) * p ** (m - 1)
    coeffs = [0] * phi
    for j in range(p):  # includes the leading term, dropped below
        k = j * p ** (m - 1)
        if k < phi:
            coeffs[k] = 1
    rows = []
    for r in range(phi):
        row = [0] * phi
        if r > 0:
            row[r - 1] = 1
        row[phi - 1] = -coeffs[r]
        rows.append(row)
    return IntMatrix.from_rows(rows)


def cyclotomic_module(cs: CyclotomicSpec) -> GModule:
    C = _companion_of_cyclotomic(cs.p, cs.m)
    actions = tuple(_mat_pow(C, e % cs.root_order) for e in cs.exps)
    label = f"cyclo:{cs.p}:{cs.m}:{','.join(map(str, cs.exps))}"
    return GModule(cs.spec, C.rows, 0, actions, label)


def star_dual(m: GModule) -> GModule:
    """Linear dual Hom(M, Z) with the action g.f = f o g^-1."""
    if not m.is_lattice:
        raise ValueError("dual is only defined for lattices here")
    actions = tuple(
        _mat_pow(A, o - 1).transpose() for A, o in zip(m.actions, m.spec.orders)
    )
    return GModule(m.spec, m.rank, 0, actions, f"star({m.label})" if m.label else "star")


def _kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows = []
    for ra in a.data:
        for rb in b.data:
            rows.append([x * y for x in ra for y in rb])
    return IntMatrix.from_rows(rows, cols=a.cols * b.cols)


def _combine_modulus(n1: int, n2: int) -> int:
    if n1 == 0:
        return n2
    if n2 == 0 or n1 == n2:
        return n1
    raise ValueError(f"incompatible moduli {n1} and {n2}")


def tensor_diagonal(m1: GModule, m2: GModule) -> GModule:
    """Tensor over Z of two modules for the same group, diagonal action."""
    if m1.spec != m2.spec:
        raise ValueError("modules are over different groups")
    actions = tuple(_kron(a, b) for a, b in zip(m1.actions, m2.actions))
    label = f"tensor({m1.label},{m2.label})"
    return GModule(m1.spec, m1.rank * m2.rank, _combine_modulus(m1.modulus, m2.modulus), actions, label)


def tensor_outer(m1: GModule, m2: GModule) -> GModule:
    """Outer tensor across a product group whose orders concatenate the factors'."""
    spec = GroupSpec(m1.spec.orders + m2.spec.orders)
    eye1 = IntMatrix.identity(m1.rank)
    eye2 = IntMatrix.identity(m2.rank)
    actions = tuple(_kron(a, eye2) for a in m1.actions) + tuple(
        _kron(eye1, b) for b in m2.actions
    )
    label = f"tensor({m1.label},{m2.label})"
    return GModule(spec, m1.rank * m2.rank, _combine_modulus(m1.modulus, m2.modulus), actions, label)


def reduce_mod(m: GModule, n: int) -> GModule:
    if not m.is_lattice:
        raise ValueError("can only reduce a lattice")
    if n < 2:
        raise ValueError("modulus must be >= 2")
    return GModule(m.spec, m.rank, n, m.actions, f"reduce:{n}({m.label})")


def _augmentation_columns(m: GModule) -> list[list[int]]:
    cols = []
    for A in m.actions:
        for j in range(m.rank):
            col = [A.data[i][j] - (1 if i == j else 0) for i in range(m.rank)]
            if any(col):
                cols.append(col)
    return cols


def invariants_submodule(m: GModule) -> IntMatrix:
    """Basis (columns) of the fixed points M^G.

    For a finite module the columns generate M^G together with N*Z^rank.
    """
    stacked_rows: list[list[int]] = []
    for A in m.actions:
        for i in range(m.rank):
            stacked_rows.append(
                [A.data[i][j] - (1 if i == j else 0) for j in range(m.rank)]
            )
    if m.is_lattice:
        return kernel_basis(IntMatrix.from_rows(stacked_rows, cols=m.rank))
    from cohomolab.intlinalg import congruence_kernel_columns

    sparse = [
        [(j, row[j]) for j in range(m.rank) if row[j]] for row in stacked_rows
    ]
    cols = congruence_kernel_columns(sparse, m.rank, m.modulus)
    return IntMatrix.from_columns(cols, dim=m.rank)


def invariants_structure(m: GModule) -> AbelianInvariants:
    basis = invariants_submodule(m)
    if m.is_lattice:
        return AbelianInvariants(basis.cols, ())
    pres = quotient_presentation(basis.columns(), [], m.rank, mod=m.modulus)
    return pres.invariants()


def coinvariants(m: GModule) -> AbelianInvariants:
    """Structure of M / (augmentation ideal) M."""
    cols = _augmentation_columns(m)
    if m.is_lattice:
        return quotient_invariants(
            IntMatrix.identity(m.rank), IntMatrix.from_columns(cols, dim=m.rank)
        )
    eye = [[int(i == j) for i in range(m.rank)] for j in range(m.rank)]
    return quotient_presentation(eye, cols, m.rank, mod=m.modulus).invariants()


# ---------------------------------------------------------------------------
# description grammar:  trivial[:rank] | zmod:N:@file | cyclo:p:m:e1,...,es
#   | star(<module>) | dualD(<module>) | tensor(<module>,<module>)
#   | reduce:N(<module>)


def parse_module(text: str, spec: GroupSpec) -> GModule | DualDivisible:
    text = text.strip()
    mod = _parse_inner(text, spec)
    if isinstance(mod, GModule) and not mod.label:
        mod = mod.relabel(text)
    return mod


def _parse_inner(text: str, spec: GroupSpec) -> GModule | DualDivisible:
    if text.startswith("trivial"):
        rest = text[len("trivial") :]
        if rest == "":
            return trivial_module(spec, 1)
        if rest.startswith(":"):
            return trivial_module(spec, _parse_int(rest[1:], "rank"))
        raise ValueError(f"bad module description {text!r}")
    if text.startswith("zmod:"):
        body = text[len("zmod:") :]
        npart, sep, fpart = body.partition(":")
        n = _parse_int(npart, "modulus")
        if not sep or not fpart.startswith("@"):
            raise ValueError("zmod needs a matrix file: zmod:N:@file")
        actions = _read_action_file(fpart[1:])
        if len(actions) != spec.ngens:
            raise ValueError(
                f"matrix file has {len(actions)} blocks, group has {spec.ngens} generators"
            )
        return zmod_module(spec, n, actions, label=text)
    if text.startswith("cyclo:"):
        parts = text[len("cyclo:") :].split(":")
        if len(parts) != 3:
            raise ValueError("cyclotomic format is cyclo:p:m:e1,...,es")
        p = _parse_int(parts[0], "p")
        m = _parse_int(parts[1], "m")
        exps = tuple(_parse_int(e, "exponent") for e in parts[2].split(","))
        return cyclotomic_module(CyclotomicSpec(spec, p, m, exps))
    for head, wrap in (("star(", "star"), ("dualD(", "dualD")):
        if text.startswith(head) and text.endswith(")"):
            inner = _parse_inner(text[len(head) : -1], spec)
            if isinstance(inner, DualDivisible):
                raise ValueError(f"cannot apply {wrap} to a divisible dual")
            if wrap == "star":
                return star_dual(inner).relabel(text)
            return DualDivisible(inner, label=text)
    if text.startswith("tensor(") and text.endswith(")"):
        return _parse_tensor(text[len("tensor(") : -1], spec, text)
    if text.startswith("reduce:"):
        body = text[len("reduce:") :]
        npart, sep, rest = body.partition("(")
        if not sep or not rest.endswith(")"):
            raise ValueError("reduction format is reduce:N(<module>)")
        n = _parse_int(npart, "modulus")
        inner = _parse_inner(rest[:-1], spec)
        if isinstance(inner, DualDivisible):
            raise ValueError("cannot reduce a divisible dual")
        return reduce_mod(inner, n).relabel(text)
    raise ValueError(f"bad module description {text!r}")


def _parse_tensor(body: str, spec: GroupSpec, text: str) -> GModule:
    # Exponent lists inside cyclo:... use bare commas, so every top-level
    # comma is a candidate split point.  A split is accepted when both sides
    # parse over the full group (diagonal action) or over a prefix/suffix
    # partition of the generators (outer tensor); first success wins.
    splits = _top_level_commas(body)
    if not splits:
        raise ValueError("tensor needs two comma-separated factors")
    for cut in splits:
        left, right = body[:cut], body[cut + 1 :]
        try:
            m1 = _parse_inner(left, spec)
            m2 = _parse_inner(right, spec)
            if not isinstance(m1, DualDivisible) and not isinstance(m2, DualDivisible):
                return tensor_diagonal(m1, m2).relabel(text)
        except ValueError:
            pass
        for k in range(1, spec.ngens):
            try:
                m1 = _parse_inner(left, GroupSpec(spec.orders[:k]))
                m2 = _parse_inner(right, GroupSpec(spec.orders[k:]))
            except ValueError:
                continue
            if isinstance(m1, DualDivisible) or isinstance(m2, DualDivisible):
                continue
            return tensor_outer(m1, m2).relabel(text)
    raise ValueError(f"cannot interpret tensor factors in {text!r} over this group")


def _top_level_commas(body: str) -> list[int]:
    depth = 0
    out = []
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append(i)
    return out


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ValueError(f"bad {what}: {text!r}") from exc


def _read_action_file(path: str) -> list[IntMatrix]:
    try:
        with open(path, encoding="utf-8") as fh:
            content = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read matrix file {path!r}: {exc.strerror}") from exc
    blocks = [b for b in content.split("\n\n") if b.strip()]
    out = []
    for b in blocks:
        rows = [[int(x) for x in line.split()] for line in b.strip().splitlines()]
        out.append(IntMatrix.from_rows(rows))
    return out
