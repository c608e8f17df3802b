"""Closed-form predictions and explicit generating cocycles.

This module is the independent side of the oracle protocol: everything in
it is computed from recurrences and small constructions, never from the
engine, so agreement between the two is evidence rather than tautology.

Each count is computed one way.  The summand multiplicities come from one
recurrence, run as a plain loop per call and cross-checked against the
alternating binomial closed form.  Every predicted structure is a list of
cyclic orders (p^m for each Z/p^m summand) that
:meth:`AbelianInvariants.from_diagonal` turns into invariant factors, the
same normalization the engine's Smith diagonals go through.

Two of the standard printed displays for these groups are internally
inconsistent (they contradict the recurrence they are printed next to, and
the engine sides with the recurrence).  Both readings are therefore kept:
``derived`` is the variant validated against the engine, ``printed``
reproduces the inconsistent display verbatim so that verification reports
can flag the mismatch instead of quietly repairing it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, gcd
from typing import Callable, Sequence

from cohomolab.engine import Cochain
from cohomolab.group_ring import GroupSpec
from cohomolab.intlinalg import (
    AbelianInvariants,
    IntMatrix,
    _check_prime,
    _factorize,
    kernel_columns,
)
from cohomolab.modules import (
    CyclotomicSpec,
    GModule,
    cyclotomic_module,
    reduce_mod,
    star_dual,
    trivial_module,
)
from cohomolab.resolutions import monomial_basis


# ---------------------------------------------------------------------------
# Multiplicities


def irreducible_multiplicity(n: int, s: int) -> int:
    """Number of Z/p summands in degree n over a rank-s p-group, for
    nontrivial irreducible lattice coefficients.

    The recurrence value is cross-checked against the alternating binomial
    closed form on every call; the two are proved equal by induction, so a
    mismatch would mean a coding error, not a mathematical one.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if s < 1:
        raise ValueError("rank must be at least 1")
    # row[k] holds m(i, k + 1), from degree i = 0 up: m(0, s) = 1, m(i, 1)
    # is 1 for even i and 0 for odd i, and m(i, s) = m(i, s-1) + m(i-1, s)
    row = [1] * s
    for i in range(1, n + 1):
        row[0] = 1 - i % 2
        for k in range(1, s):
            row[k] += row[k - 1]
    rec = row[-1]
    alt = (-1) ** n * sum((-1) ** i * comb(s + i - 1, i) for i in range(n + 1))
    if rec != alt:
        raise ArithmeticError(f"recurrence and closed form disagree at ({n}, {s})")
    return rec


_DISPLAY_FORMS = {
    0: ("1", lambda s: 1),
    1: ("s-1", lambda s: s - 1),
    2: ("(s^2+s+2)/2", lambda s: (s * s + s + 2) // 2),
    3: ("(s^3+5s-6)/6", lambda s: (s**3 + 5 * s - 6) // 6),
}


def multiplicity_display(n: int, s: int) -> int:
    """The compact polynomial displays usually quoted for degrees 0..3.

    The degree-2 display does not satisfy the recurrence (its correct value
    is (s^2-s+2)/2); it is evaluated verbatim here so reports can exhibit
    the discrepancy.
    """
    if n not in _DISPLAY_FORMS:
        raise ValueError("no quoted display beyond degree 3")
    if s < 1:
        raise ValueError("rank must be at least 1")
    return _DISPLAY_FORMS[n][1](s)


# ---------------------------------------------------------------------------
# Invariant-factor predictions


def irreducible_homology_factors(n: int, s: int, p: int) -> AbelianInvariants:
    """Degree-n homology with nontrivial irreducible lattice coefficients:
    an elementary abelian group of rank multiplicity(n, s)."""
    _check_prime(p)
    return AbelianInvariants(0, (p,) * irreducible_multiplicity(n, s))


def irreducible_tate_factors(n: int, s: int, p: int) -> AbelianInvariants:
    """Complete-resolution cohomology for the same coefficients.

    Degree 0 vanishes (no fixed points and the trace acts as zero); every
    other degree is elementary of rank multiplicity(|n| - 1, s).
    """
    _check_prime(p)
    if n == 0:
        return AbelianInvariants(0, ())
    return AbelianInvariants(0, (p,) * irreducible_multiplicity(abs(n) - 1, s))


TRIVIAL_VARIANTS = ("printed", "derived")


def trivial_module_factors(
    n: int, orders: Sequence[int], variant: str = "derived"
) -> AbelianInvariants:
    """Complete-resolution cohomology of the trivial lattice Z.

    Degree 0 is cyclic of order |G| (the trace quotient).  Degrees +-1
    vanish.  Elsewhere the answer splits over the primes dividing |G|; for
    each prime, the factor with the k-th largest exponent m_k (ties broken
    arbitrarily, k starting at 1) contributes (Z/p^{m_k})^e where

        derived:  e = multiplicity(|n| - 2, k)
        printed:  e = multiplicity(|n| - 1, k) + (-1)^n

    ``derived`` is the variant the engine confirms; ``printed`` reproduces
    the published display, which disagrees at even degrees (first seen as
    [2,2,2] instead of [2,2] at degree 2 over (2,2)).
    """
    if variant not in TRIVIAL_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    primary: dict[int, list[int]] = {}
    for o in orders:
        if o < 2:
            raise ValueError("group orders must be at least 2")
        for p, e in _factorize(o):
            primary.setdefault(p, []).append(e)
    sign = -1 if n % 2 else 1
    diag: list[int] = []
    for p, exps in primary.items():
        ms = sorted(exps, reverse=True)
        if n == 0:
            diag.append(p ** sum(ms))
        elif abs(n) > 1:
            for k, m in enumerate(ms, start=1):
                if variant == "derived":
                    e = irreducible_multiplicity(abs(n) - 2, k)
                else:
                    e = irreducible_multiplicity(abs(n) - 1, k) + sign
                if e < 0:
                    raise ArithmeticError(
                        f"printed exponent is negative at degree {n}, factor {k}"
                    )
                diag.extend([p**m] * e)
    return AbelianInvariants.from_diagonal(diag)


def predicted_invariants(
    module_text: str,
    spec: GroupSpec,
    degree: int,
    *,
    kind: str = "tate",
    variant: str = "derived",
) -> AbelianInvariants | None:
    """Closed-form prediction for a module-DSL text, or None when no
    formula covers it.

    ``kind`` is "tate" (complete resolution, any degree) or "ordinary"
    (degree >= 0; positive degrees agree with the complete ones, degree 0
    is the fixed-point group).  Covered: the rank-1 trivial lattice and any
    irreducible cyclotomic action, each optionally wrapped in star(...)
    since the dual lattice has the same invariants in every degree.
    """
    if kind not in ("tate", "ordinary"):
        raise ValueError(f"unknown kind {kind!r}")
    body = module_text.strip()
    while body.startswith("star(") and body.endswith(")"):
        body = body[5:-1].strip()
    if body == "trivial":
        if kind == "ordinary" and degree == 0:
            return AbelianInvariants(1, ())
        return trivial_module_factors(degree, spec.orders, variant)
    if body.startswith("cyclo:"):
        parsed = _parse_cyclo_text(body)
        if parsed is None:
            return None
        p, m, exps = parsed
        if gcd(*exps, p**m) != 1:
            return None  # action does not reach a full primitive root
        s_p = sum(1 for o in spec.orders if o % p == 0)
        if s_p == 0:
            return None
        if kind == "ordinary" and degree == 0:
            return AbelianInvariants(0, ())
        return irreducible_tate_factors(degree, s_p, p)
    return None


def _parse_cyclo_text(body: str) -> tuple[int, int, list[int]] | None:
    parts = body.split(":")
    if len(parts) != 4:
        return None
    try:
        p, m = int(parts[1]), int(parts[2])
        exps = [int(x) for x in parts[3].split(",")]
    except ValueError:
        return None
    if p < 2 or m < 1 or not exps:
        return None
    return p, m, exps


# ---------------------------------------------------------------------------
# Explicit generating cocycles


GENERATOR_CASES = (
    "trivial-H2",
    "torsion-H1",
    "torsion-H2",
    "cyclo-H1",
    "cyclo-H2",
    "dual-cyclo-H1",
    "dual-cyclo-H2",
)


@dataclass(frozen=True)
class GeneratorSpec:
    """One explicit generating cocycle.

    ``indices`` are 1-based factor positions: (k,) for a single-factor
    generator, (k, l) with k < l for a mixed one, () when the family has a
    single member.  For truncated divisible coefficients,
    ``truncation_exponent`` is the power K with the module reduced mod p^K
    and ``socle_generator`` the distinguished order-p element used in the
    values.
    """

    case: str
    indices: tuple[int, ...]
    module: GModule
    cochain: Cochain
    class_order: int
    truncation_exponent: int | None = None
    socle_generator: tuple[int, ...] | None = None


@dataclass(frozen=True)
class GeneratorFamily:
    """A complete generating family for one cohomology group.

    ``predicted`` is the closed-form structure of the subgroup the classes
    of ``members`` generate; verification computes the actual subgroup
    modulo coboundaries and compares.
    """

    case: str
    module: GModule
    degree: int
    members: tuple[GeneratorSpec, ...]
    predicted: AbelianInvariants


def _p_group_exponents(spec: GroupSpec) -> tuple[int, list[int]]:
    primary = spec.primary_decomposition()
    if len(primary) != 1:
        raise ValueError("explicit generators are built per prime; pass a p-group")
    p = next(iter(primary))
    ms = []
    for o in spec.orders:
        e = 0
        while o % p == 0:
            o //= p
            e += 1
        ms.append(e)
    return p, ms


def _pair_expo(s: int, i: int, j: int) -> tuple[int, ...]:
    e = [0] * s
    e[i - 1] += 1
    e[j - 1] += 1
    return tuple(e)


def _deg2_cochain(s: int, rank: int, entries: dict) -> Cochain:
    basis = monomial_basis(s, 2)
    index = {expo: i for i, expo in enumerate(basis)}
    vals = [[0] * rank for _ in basis]
    for expo, vec in entries.items():
        vals[index[expo]] = list(vec)
    return Cochain(2, tuple(tuple(v) for v in vals))


def _deg1_cochain(s: int, rank: int, entries: dict) -> Cochain:
    vals = [[0] * rank for _ in range(s)]
    for i, vec in entries.items():
        vals[i - 1] = list(vec)
    return Cochain(1, tuple(tuple(v) for v in vals))


def _solve_exact(B: IntMatrix, target: Sequence[int]) -> list[int]:
    """The integer solution of B v = target for injective B.

    Works through the rank-1 kernel of the augmented matrix [B | -target]:
    its generator (v, lam) has B v = lam * target, and lam = +-1 exactly
    when the target is in the image.
    """
    rows = [[*r, -t] for r, t in zip(B.data, target)]
    for col in kernel_columns(rows, B.cols + 1):
        lam = col[-1]
        if lam in (1, -1):
            return [lam * x for x in col[:-1]]
    raise ArithmeticError("target is not in the image")


def _first_action_minus_identity(module: GModule) -> IntMatrix:
    A = module.actions[0]
    d = module.rank
    return IntMatrix.from_rows(
        [[A.data[r][c] - (r == c) for c in range(d)] for r in range(d)]
    )


def _socle_element(module: GModule, p: int, K: int) -> tuple[int, ...]:
    """Order-p element killed by (first generator - 1) in a mod-p^K module.

    Taken as p^{K-1} times a mod-p kernel vector of the action matrix minus
    the identity.  The kernel is one-dimensional mod p because the map has
    determinant +-p; the vector is scaled so that its first nonzero residue
    is 1, which makes the element canonical.
    """
    for col in kernel_columns(_first_action_minus_identity(module).data, module.rank, mod=p):
        unit = pow(next(x for x in col if x), -1, p)
        return tuple(p ** (K - 1) * (unit * x % p) for x in col)
    raise ArithmeticError("module has no socle generator")


def _family(
    case: str, spec: GroupSpec
) -> tuple[GModule, int, AbelianInvariants, list[tuple[int, ...]], Callable[..., GeneratorSpec]]:
    """The module, degree and predicted structure of the family ``case``
    over ``spec``, the indices of its members in order, and the function
    that builds the member at given indices, so that one member costs no
    more than itself."""
    p, ms = _p_group_exponents(spec)
    s = spec.ngens

    if case == "trivial-H2":
        module = trivial_module(spec)

        def member(k: int) -> GeneratorSpec:
            cochain = _deg2_cochain(s, 1, {_pair_expo(s, k, k): (1,)})
            return GeneratorSpec(case, (k,), module, cochain, p ** ms[k - 1])

        predicted = AbelianInvariants.from_diagonal([p**m for m in ms])
        return module, 2, predicted, [(k,) for k in range(1, s + 1)], member

    if case in ("torsion-H1", "torsion-H2"):
        K = sum(ms)
        module = reduce_mod(star_dual(trivial_module(spec)), p**K)
        if case == "torsion-H1":

            def member(i: int) -> GeneratorSpec:
                cochain = _deg1_cochain(s, 1, {i: (p ** (K - ms[i - 1]),)})
                return GeneratorSpec(
                    case, (i,), module, cochain, p ** ms[i - 1], truncation_exponent=K
                )

            predicted = AbelianInvariants.from_diagonal([p**m for m in ms])
            return module, 1, predicted, [(i,) for i in range(1, s + 1)], member

        def member(k: int, l: int) -> GeneratorSpec:
            mkl = min(ms[k - 1], ms[l - 1])
            cochain = _deg2_cochain(s, 1, {_pair_expo(s, k, l): (p ** (K - mkl),)})
            return GeneratorSpec(case, (k, l), module, cochain, p**mkl, truncation_exponent=K)

        pairs = list(itertools.combinations(range(1, s + 1), 2))
        predicted = AbelianInvariants.from_diagonal(
            [p ** min(ms[k - 1], ms[l - 1]) for k, l in pairs]
        )
        return module, 2, predicted, pairs, member

    if case in ("cyclo-H1", "cyclo-H2"):
        module = cyclotomic_module(CyclotomicSpec(spec, p, ms[0], (1,) + (0,) * (s - 1)))
        d = module.rank
        one = (1,) + (0,) * (d - 1)
        if case == "cyclo-H1":

            def member() -> GeneratorSpec:
                return GeneratorSpec(case, (), module, _deg1_cochain(s, d, {1: one}), p)

            return module, 1, AbelianInvariants(0, (p,)), [()], member
        B = _first_action_minus_identity(module)

        def member(k: int) -> GeneratorSpec:
            # the root acts through the first factor, so the diagonal value
            # must absorb the k-th norm: (zeta - 1) v = p^{m_k}
            v = _solve_exact(B, [p ** ms[k - 1]] + [0] * (d - 1))
            entries = {_pair_expo(s, 1, k): one, _pair_expo(s, k, k): tuple(v)}
            return GeneratorSpec(case, (k,), module, _deg2_cochain(s, d, entries), p)

        predicted = AbelianInvariants(0, (p,) * (s - 1))
        return module, 2, predicted, [(k,) for k in range(2, s + 1)], member

    if case in ("dual-cyclo-H1", "dual-cyclo-H2"):
        lattice = cyclotomic_module(CyclotomicSpec(spec, p, ms[0], (1,) + (0,) * (s - 1)))
        K = ms[0] + sum(ms)
        module = reduce_mod(star_dual(lattice), p**K)
        d = module.rank
        u0 = _socle_element(module, p, K)
        if case == "dual-cyclo-H1":

            def member(k: int) -> GeneratorSpec:
                return GeneratorSpec(
                    case,
                    (k,),
                    module,
                    _deg1_cochain(s, d, {k: u0}),
                    p,
                    truncation_exponent=K,
                    socle_generator=u0,
                )

            predicted = AbelianInvariants(0, (p,) * (s - 1))
            return module, 1, predicted, [(k,) for k in range(2, s + 1)], member

        def member(*kl: int) -> GeneratorSpec:
            # (k,) for the diagonal x_k^2, (k, l) for the mixed x_k x_l
            expo = _pair_expo(s, kl[0], kl[-1])
            return GeneratorSpec(
                case,
                kl,
                module,
                _deg2_cochain(s, d, {expo: u0}),
                p,
                truncation_exponent=K,
                socle_generator=u0,
            )

        indices = [(k,) for k in range(1, s + 1)]
        indices += itertools.combinations(range(2, s + 1), 2)
        count = (s * s - s + 2) // 2
        return module, 2, AbelianInvariants(0, (p,) * count), indices, member

    raise ValueError(f"unknown case {case!r}; choose one of {GENERATOR_CASES}")


def generator_family(case: str, spec: GroupSpec) -> GeneratorFamily:
    """Build the complete generating family for ``case`` over ``spec``.

    In the cyclotomic cases the root of unity has the order p^m of the first
    factor, the largest faithful choice.  Families may be empty when the
    group shape leaves no valid indices, e.g. mixed pairs over a cyclic
    group.
    """
    module, degree, predicted, indices, member = _family(case, spec)
    members = tuple(member(*kl) for kl in indices)
    return GeneratorFamily(case, module, degree, members, predicted)


def generating_cocycle(
    case: str, spec: GroupSpec, indices: Sequence[int] = ()
) -> GeneratorSpec:
    """The single generator of ``case`` at the given 1-based indices,
    built without the rest of its family."""
    _, _, _, valid, member = _family(case, spec)
    wanted = tuple(indices)
    if wanted not in valid:
        raise ValueError(f"invalid indices {wanted} for {case}; valid: {valid}")
    # the member at the family's own indices, as generator_family builds it
    return member(*valid[valid.index(wanted)])
