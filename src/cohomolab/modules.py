"""Coefficient modules: explicit integer action matrices for each generator.

A module is either a lattice (modulus 0, free over Z) or free over Z/N
(modulus N > 0).  Construction always validates the action matrices: each
generator action must have the right multiplicative order and all actions
must commute.  Invertibility is implied by the order condition.  A module
derived from a validated one (a relabel, the dual, a reduction mod N) is
not checked again: its actions pass whatever the original's did.

The divisible coefficient modules that show up in duality statements are
never materialized; :class:`DualDivisible` is a routing marker the engine
resolves through the dual-degree identity on the lattice inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Sequence

from cohomolab.group_ring import GroupSpec
from cohomolab.intlinalg import (
    AbelianInvariants,
    IntMatrix,
    _check_prime,
    quotient_invariants,
)
from cohomolab.limits import EngineLimits, ResourceCapExceeded


@dataclass(frozen=True)
class GModule:
    spec: GroupSpec
    rank: int
    modulus: int  # 0 = lattice over Z, N > 0 = free module over Z/N
    actions: tuple[IntMatrix, ...]
    label: str = ""
    # set by reduce_mod alone (relabel keeps it): the module is L/NL for a
    # lattice L, so its Hom complexes lift to complexes of free abelian groups
    lifts_to_lattice: bool = field(default=False, init=False, compare=False, repr=False)
    # group element g -> nonzero entries of its matrix, row by row, reduced
    # mod N, filled on first use: a generator power g_i^k is g_i^(k-1) times
    # A_i, any other element the product of its generator powers, one
    # sparse product each.  At most |G| entries of rank^2 cells, and every
    # route that fills it has passed a larger cap first: a bar leg's
    # check_cells is at least rank^2 (|G| - 1), and factor sets and the
    # sigma check (the comparison map's blocks) pass the order cap.
    # Minimal legs read its identity alone
    _elements: dict[tuple[int, ...], list[list[tuple[int, int]]]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )
    # the blocks of the monomial resolution's differentials, by
    # :meth:`block_rows` key, each filled on first use from the actions in
    # O(log o_i) sparse products: +-(A_i - I), +-(A_i^-1 - I), +-N_i(A) and
    # N_G(A), so at most 6s + 1 entries, kept per instance like the element
    # table.  A negated block negates its twin's entries, and N_G(A) is the
    # product of the tabled N_i(A), not a sum over |G| elements, which
    # costs far more at large rank
    _blocks: dict[tuple, list[list[tuple[int, int]]]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

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
        # sparse products: the actions are mostly permutation-like, so this
        # costs about rank^2 per product rather than rank^3
        eye = IntMatrix.identity(self.rank)
        N = self.modulus
        sparse = [_sparse_rows(A.data) for A in self.actions]
        for i, (A, o) in enumerate(zip(self.actions, self.spec.orders)):
            if _mat_pow(A, o, N) != eye:
                raise ValueError(f"action {i} does not have order dividing {o}")
        for i in range(len(self.actions)):
            for j in range(i + 1, len(self.actions)):
                if _times_sparse(sparse[i], sparse[j], N) != _times_sparse(sparse[j], sparse[i], N):
                    raise ValueError(f"actions {i} and {j} do not commute")

    @property
    def is_lattice(self) -> bool:
        return self.modulus == 0

    def element_rows(self, g: tuple[int, ...]) -> list[list[tuple[int, int]]]:
        """Nonzero entries, row by row, of the matrix of the group element g,
        reduced mod N, from the module's element table."""
        g = tuple(e % o for e, o in zip(g, self.spec.orders))
        table = self._elements
        rows = table.get(g)
        if rows is not None:
            return rows
        live = [i for i, e in enumerate(g) if e]
        if not live:
            rows = table[g] = [[(t, 1)] for t in range(self.rank)]
        elif len(live) > 1:
            i = live[-1]
            head = self.element_rows(g[:i] + (0,) * (len(g) - i))
            power = self.element_rows(self.spec.generator(i, g[i]))
            rows = table[g] = _times_sparse(head, power, self.modulus)
        else:
            # from the highest power of g_i already in the table, one
            # product per missing power
            i = live[0]
            k = g[i] - 1
            while k and self.spec.generator(i, k) not in table:
                k -= 1
            rows = self.element_rows(self.spec.generator(i, k))
            A = _sparse_rows(self.actions[i].data)
            for k in range(k + 1, g[i] + 1):
                rows = table[self.spec.generator(i, k)] = _times_sparse(rows, A, self.modulus)
        return rows

    def block_rows(
        self, i: int | None, e: int = 0, neg: bool = False
    ) -> list[list[tuple[int, int]]]:
        """Nonzero entries, row by row, of one block of the monomial
        resolution's differentials, negated when ``neg``: A_i^e - I for
        e >= 1 (e = 1 and the antipode e = o_i - 1 are used), A_i^e by
        repeated squaring; N_i(A) = I + A_i + ... + A_i^(o_i - 1) for e = 0,
        by doubling (:meth:`_norm`); and N_G(A), the product of the tabled
        N_i(A), for i = None.  Entries are reduced mod N, the negation
        included: a negated block is its tabled twin, negated."""
        key = (i, e, neg)
        rows = self._blocks.get(key)
        if rows is not None:
            return rows
        N = self.modulus
        if neg:
            rows = [[(j, -x % N if N else -x) for j, x in row] for row in self.block_rows(i, e)]
        elif i is None:
            rows = self.block_rows(0)
            for j in range(1, self.spec.ngens):
                rows = _times_sparse(rows, self.block_rows(j), N)
        elif e:
            power = _power_rows(_sparse_rows(self.actions[i].data), e, N)
            rows = _sparse_rows(
                _combine([(1, power), (-1, self.element_rows(self.spec.identity()))], self.rank), N
            )
        else:
            rows = self._norm(i)
        self._blocks[key] = rows
        return rows

    def _norm(self, i: int) -> list[list[tuple[int, int]]]:
        """Nonzero entries of N_i(A), row by row, reduced mod N, by doubling
        over the bits of o_i after the leading one, from N_1 = I and A:
        N_k = I + A + ... + A^(k-1) and A^k go to N_2k = N_k (I + A^k) and
        A^2k, then on a set bit to N_(k+1) = I + A N_k and A^(k+1).  So
        O(log o_i) products, and no power of A is tabled."""
        N, eye = self.modulus, self.element_rows(self.spec.identity())
        A = _sparse_rows(self.actions[i].data)
        norm, power = eye, A  # N_1 and A^1, from the leading bit; o_i >= 2
        for bit in bin(self.spec.orders[i])[3:]:
            norm = _times_sparse(norm, _plus(eye, power, N), N)
            power = _times_sparse(power, power, N)
            if bit == "1":
                norm = _plus(eye, _times_sparse(A, norm, N), N)
                power = _times_sparse(A, power, N)
        return norm

    def relabel(self, label: str) -> "GModule":
        """The same module under another label: a copy of these validated
        actions, ``lifts_to_lattice`` kept, with tables of its own."""
        return _derived(self, label=label)

    def __repr__(self) -> str:
        base = self.label or f"module(rank={self.rank})"
        ring = "Z" if self.is_lattice else f"Z/{self.modulus}"
        return f"<{base} over {ring}, G={','.join(map(str, self.spec.orders))}>"


def _derived(m: GModule, **changed) -> GModule:
    """A module made from the validated module ``m`` with the fields
    ``changed``, with tables of its own and without validating again: only
    for actions derived from ``m``'s, which pass every check that it did."""
    # set field by field, as __init__ does: a copied __dict__ (copy.copy)
    # makes every attribute read of the copy about 3x slower on 3.11
    out = object.__new__(GModule)
    changed = {"_elements": {}, "_blocks": {}, **changed}
    for f in fields(m):
        object.__setattr__(out, f.name, changed.get(f.name, getattr(m, f.name)))
    return out


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


def _mat_pow(A: IntMatrix, k: int, mod: int = 0) -> IntMatrix:
    """A^k by repeated squaring with sparse products, reduced mod ``mod``
    after each product when it is set."""
    return _dense(_power_rows(_sparse_rows(A.data), k, mod))


def _power_rows(
    A: list[list[tuple[int, int]]], k: int, mod: int = 0
) -> list[list[tuple[int, int]]]:
    """:func:`_mat_pow` on the nonzero entries of the rows of A: A^k in the
    same form."""
    out = [[(t, 1)] for t in range(len(A))]
    while k:
        if k & 1:
            out = _times_sparse(out, A, mod)
        k >>= 1
        if k:
            A = _times_sparse(A, A, mod)
    return out


def _plus(
    P: list[list[tuple[int, int]]], Q: list[list[tuple[int, int]]], mod: int = 0
) -> list[list[tuple[int, int]]]:
    """P + Q, each given and returned by the nonzero entries of its rows,
    reduced mod ``mod`` when it is set."""
    return _sparse_rows(_combine([(1, P), (1, Q)], len(P)), mod)


def _sparse_rows(data: Iterable[Sequence[int]], mod: int = 0) -> list[list[tuple[int, int]]]:
    """Nonzero entries, row by row, of the rows ``data``, reduced mod
    ``mod`` when it is set."""
    return [[(j, y) for j, x in enumerate(r) if (y := x % mod if mod else x)] for r in data]


def _combine(terms: Iterable[tuple[int, list[list[tuple[int, int]]]]], d: int) -> list[list[int]]:
    """The rows of the sum of c * R over the pairs (c, R) of ``terms``,
    each R a d x d matrix given by the nonzero entries of its rows."""
    out = [[0] * d for _ in range(d)]
    for c, R in terms:
        for r, row in zip(out, R):
            for j, x in row:
                r[j] += c * x
    return out


def _dense(rows: list[list[tuple[int, int]]]) -> IntMatrix:
    """The square matrix whose rows have the nonzero entries ``rows``."""
    d = len(rows)
    return IntMatrix(d, d, tuple(map(tuple, _combine([(1, rows)], d))))


def _times_sparse(
    P: list[list[tuple[int, int]]], A: list[list[tuple[int, int]]], mod: int = 0
) -> list[list[tuple[int, int]]]:
    """The product of two square matrices, each given by the nonzero
    entries of its rows, in the same form, reduced mod ``mod`` when it is
    set."""
    out = []
    for prow in P:
        acc = [0] * len(A)
        for k, a in prow:
            for j, x in A[k]:
                acc[j] += a * x
        out.append(acc)
    return _sparse_rows(out, mod)


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
        _check_prime(self.p)
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
    """Linear dual Hom(M, Z) with the action g.f = f o g^-1: the transposed
    inverses of commuting actions commute and keep their orders."""
    if not m.is_lattice:
        raise ValueError("dual is only defined for lattices here")
    actions = tuple(
        _mat_pow(A, o - 1).transpose() for A, o in zip(m.actions, m.spec.orders)
    )
    return _derived(m, actions=actions, label=f"star({m.label})" if m.label else "star")


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
    """L/nL for a lattice L: its actions reduced mod n, which keep their
    orders and commute as L's do."""
    if not m.is_lattice:
        raise ValueError("can only reduce a lattice")
    if n < 2:
        raise ValueError("modulus must be >= 2")
    return _derived(
        m,
        modulus=n,
        actions=tuple(A.mod(n) for A in m.actions),
        label=f"reduce:{n}({m.label})",
        lifts_to_lattice=True,
    )


def _augmentation_columns(m: GModule) -> list[list[int]]:
    cols = []
    for A in m.actions:
        for j in range(m.rank):
            col = [A.data[i][j] - (1 if i == j else 0) for i in range(m.rank)]
            if any(col):
                cols.append(col)
    return cols


def coinvariants(m: GModule) -> AbelianInvariants:
    """Structure of M / (augmentation ideal) M."""
    eye = [{j: 1} for j in range(m.rank)]
    return quotient_invariants(eye, _augmentation_columns(m), m.rank, mod=m.modulus)


# ---------------------------------------------------------------------------
# description grammar:  trivial[:rank] | zmod:N:@file | cyclo:p:m:e1,...,es
#   | star(<module>) | dualD(<module>) | tensor(<module>,<module>)
#   | reduce:N(<module>)


def parse_module(
    text: str, spec: GroupSpec, limits: EngineLimits | None = None
) -> GModule | DualDivisible:
    """Build the module a description names.

    Every module's rank x rank action matrices count against
    ``limits.max_cells`` (default :meth:`EngineLimits.from_env`), and the
    check runs before anything of that size is built, so an oversized
    request raises :class:`ResourceCapExceeded` at once.
    """
    text = text.strip()
    mod = _parse_inner(text, spec, limits or EngineLimits.from_env())
    if isinstance(mod, GModule) and not mod.label:
        mod = mod.relabel(text)
    return mod


def _parse_inner(text: str, spec: GroupSpec, limits: EngineLimits) -> GModule | DualDivisible:
    if text.startswith("trivial"):
        rest = text[len("trivial") :]
        if rest == "":
            return trivial_module(spec, 1)
        if rest.startswith(":"):
            rank = _parse_int(rest[1:], "rank")
            limits.check_cells(rank, rank, f"module {text!r}")
            return trivial_module(spec, rank)
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
        limits.check_cells(actions[0].rows, actions[0].rows, f"module {text!r}")
        return zmod_module(spec, n, actions, label=text)
    if text.startswith("cyclo:"):
        parts = text[len("cyclo:") :].split(":")
        if len(parts) != 3:
            raise ValueError("cyclotomic format is cyclo:p:m:e1,...,es")
        p = _parse_int(parts[0], "p")
        m = _parse_int(parts[1], "m")
        exps = tuple(_parse_int(e, "exponent") for e in parts[2].split(","))
        _check_cyclotomic_rank(p, m, text, limits)
        return cyclotomic_module(CyclotomicSpec(spec, p, m, exps))
    for head, wrap in (("star(", "star"), ("dualD(", "dualD")):
        if text.startswith(head) and text.endswith(")"):
            inner = _parse_inner(text[len(head) : -1], spec, limits)
            if isinstance(inner, DualDivisible):
                raise ValueError(f"cannot apply {wrap} to a divisible dual")
            if wrap == "star":
                return star_dual(inner).relabel(text)
            return DualDivisible(inner, label=text)
    if text.startswith("tensor(") and text.endswith(")"):
        return _parse_tensor(text[len("tensor(") : -1], spec, text, limits)
    if text.startswith("reduce:"):
        body = text[len("reduce:") :]
        npart, sep, rest = body.partition("(")
        if not sep or not rest.endswith(")"):
            raise ValueError("reduction format is reduce:N(<module>)")
        n = _parse_int(npart, "modulus")
        inner = _parse_inner(rest[:-1], spec, limits)
        if isinstance(inner, DualDivisible):
            raise ValueError("cannot reduce a divisible dual")
        return reduce_mod(inner, n).relabel(text)
    raise ValueError(f"bad module description {text!r}")


def _check_cyclotomic_rank(p: int, m: int, text: str, limits: EngineLimits) -> None:
    """Cap the rank (p-1)p^(m-1) squared without forming a huge power of p:
    once m - 1 passes the bit length of the cap, the rank is over it."""
    if p < 2 or m < 1:
        return  # CyclotomicSpec rejects these
    if m - 1 > limits.max_cells.bit_length():
        raise ResourceCapExceeded(
            f"module {text!r} has rank {p - 1}*{p}^{m - 1}, "
            f"over the cap of {limits.max_cells} cells",
            cap=limits.max_cells,
        )
    rank = (p - 1) * p ** (m - 1)
    limits.check_cells(rank, rank, f"module {text!r}")


def _parse_tensor(body: str, spec: GroupSpec, text: str, limits: EngineLimits) -> GModule:
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
            m1 = _parse_inner(left, spec, limits)
            m2 = _parse_inner(right, spec, limits)
            if not isinstance(m1, DualDivisible) and not isinstance(m2, DualDivisible):
                _check_tensor_rank(m1, m2, text, limits)
                return tensor_diagonal(m1, m2).relabel(text)
        except ValueError:
            pass
        for k in range(1, spec.ngens):
            try:
                m1 = _parse_inner(left, GroupSpec(spec.orders[:k]), limits)
                m2 = _parse_inner(right, GroupSpec(spec.orders[k:]), limits)
            except ValueError:
                continue
            if isinstance(m1, DualDivisible) or isinstance(m2, DualDivisible):
                continue
            _check_tensor_rank(m1, m2, text, limits)
            return tensor_outer(m1, m2).relabel(text)
    raise ValueError(f"cannot interpret tensor factors in {text!r} over this group")


def _check_tensor_rank(m1: GModule, m2: GModule, text: str, limits: EngineLimits) -> None:
    rank = m1.rank * m2.rank
    limits.check_cells(rank, rank, f"module {text!r}")


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
