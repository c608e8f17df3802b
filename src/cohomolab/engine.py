"""Cohomology engine: Hom and tensor complexes of a module over a resolution.

Everything here reduces to exact integer linear algebra.  A module of rank d
turns each group-ring matrix entry into a d x d integer block; kernels,
images and quotients of the assembled block matrices give the ordinary,
Tate and homology groups together with canonical cocycle representatives.

Route selection is about cost, never about semantics:

* ``kernel``            exact kernel + quotient presentation, keeps
                        representatives; used whenever dimensions are small.
* ``cokernel-torsion``  lattice coefficients in a degree where the group is
                        known to be finite: the invariant factors of the
                        cokernel of the incoming map already are the answer,
                        so the outgoing map is never assembled.
* ``congruence``        finite coefficient modulus N: kernels are computed
                        as congruence lattices mod N.
* ``dual-shift``        divisible coefficients, evaluated on the dual
                        lattice one degree up.

The cokernel-torsion shortcut is justified in two lines: torsion classes of
coker(d^{n-1}) are killed by some k, so k*t lies in ker(d^n) and therefore
d^n(t) is torsion in a torsion-free module, i.e. zero; conversely H^n in
these degrees is finite, hence torsion in the cokernel.  Both inclusions
together give equality, and the same argument applies verbatim to homology
in positive degrees and to every complete-resolution degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from cohomolab.group_ring import RingElement, RingMatrix
from cohomolab.intlinalg import (
    AbelianInvariants,
    IntMatrix,
    QuotientPresentation,
    cokernel_torsion,
    column_hnf,
    congruence_kernel_columns,
    hermite_reduce,
    kernel_basis,
    quotient_invariants,
    quotient_invariants_mod,
    quotient_presentation,
)
from cohomolab.limits import EngineLimits, ResourceCapExceeded
from cohomolab.modules import DualDivisible, GModule, star_dual
from cohomolab.resolutions import (
    Resolution,
    complete_diff,
    complete_rank,
    make_resolution,
    sigma,
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
        widths = {len(v) for v in self.values}
        if len(widths) > 1:
            raise ValueError("all value vectors must have the same width")

    def flat(self) -> list[int]:
        return [x for vec in self.values for x in vec]

    @staticmethod
    def from_flat(degree: int, flat: Iterable[int], count: int, rank: int) -> "Cochain":
        data = list(flat)
        if len(data) != count * rank:
            raise ValueError("flat vector has the wrong length")
        vals = tuple(tuple(data[i * rank : (i + 1) * rank]) for i in range(count))
        return Cochain(degree, vals)


# ---------------------------------------------------------------------------
# Block assembly


def _hom_constraint_rows(M: GModule, D: RingMatrix) -> Iterator[list[tuple[int, int]]]:
    """Rows of the map phi -> phi . D between Hom-spaces, as sparse
    (index, coeff) lists, streamed.

    Block-row j (source column of D), block-col i (target row of D) holds
    act(D[i, j]); dimensions (d*cols(D)) x (d*rows(D)).  This is the only
    block assembler: the tensor side passes ``D.antipode_transpose()``.
    """
    d = M.rank
    cache: dict[RingElement, IntMatrix] = {}
    by_source: dict[int, list[tuple[int, IntMatrix]]] = {}
    for (i, j), elem in D.entries.items():
        blk = cache.get(elem)
        if blk is None:
            blk = cache[elem] = M.act(elem)
        by_source.setdefault(j, []).append((i, blk))
    for j in range(D.cols):
        blocks = by_source.get(j, ())
        for t in range(d):
            row = []
            for i, blk in blocks:
                brow = blk.data[t]
                for u in range(d):
                    if brow[u]:
                        row.append((i * d + u, brow[u]))
            yield row


def _hom_matrix(M: GModule, D: RingMatrix) -> IntMatrix:
    """:func:`_hom_constraint_rows` as a dense block matrix, reduced mod the
    module's modulus."""
    width = M.rank * D.rows
    N = M.modulus
    rows = []
    for sparse in _hom_constraint_rows(M, D):
        row = [0] * width
        for k, c in sparse:
            row[k] = c % N if N else c
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=width)


def _apply(M: GModule, D: RingMatrix, flat: Sequence[int]) -> list[int]:
    """The flat cochain phi . D for a flat cochain phi, reduced mod the
    module's modulus."""
    out = [sum(c * flat[k] for k, c in row) for row in _hom_constraint_rows(M, D)]
    return [x % M.modulus for x in out] if M.modulus else out


def hom_complex_map(M: GModule, resolution: Resolution, n: int) -> IntMatrix:
    """The degree-n to degree-(n+1) map of Hom(resolution, M).

    >>> from cohomolab.group_ring import GroupSpec
    >>> from cohomolab.modules import trivial_module
    >>> from cohomolab.resolutions import make_resolution
    >>> G = GroupSpec.of(2, 4)
    >>> res = make_resolution(G, "minimal")
    >>> hom_complex_map(trivial_module(G), res, 1).data
    ((2, 0), (0, 0), (0, 4))
    """
    if n < 0:
        raise ValueError("ordinary Hom complex starts at degree 0")
    return _hom_matrix(M, resolution.diff(n + 1))


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
    _boundary_hnf: list[list[int]] | None = field(default=None, repr=False, compare=False)
    _count: int = field(default=0, repr=False, compare=False)
    _rank: int = field(default=0, repr=False, compare=False)

    def invariant_factors(self) -> list[int]:
        return list(self.invariants.torsion)

    @property
    def free_rank(self) -> int:
        return self.invariants.free_rank

    def reduce_cocycle(self, c: Cochain) -> Cochain:
        """Canonical representative of the class of ``c`` (same class, same
        output; requires a presentation-backed result)."""
        if self._boundary_hnf is None:
            raise ValueError("this result was computed without representative data")
        vec = hermite_reduce(c.flat(), self._boundary_hnf)
        if self._presentation is not None and self._presentation.mod:
            N = self._presentation.mod
            vec = [x % N for x in vec]
        return Cochain.from_flat(self.degree, vec, self._count, self._rank)

    def class_coordinates(self, c: Cochain) -> tuple[int, ...]:
        """Coordinates of the class of ``c`` in the reported decomposition."""
        if self._presentation is None:
            raise ValueError("this result was computed without representative data")
        return tuple(self._presentation.coordinates(c.flat()))

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
        K = IntMatrix.from_columns(cols + rels, dim=k)
        R = IntMatrix.from_columns(rels, dim=k)
        return quotient_invariants(K, R)


def _extract_representatives(
    pres: QuotientPresentation,
    boundary_hnf: list[list[int]],
    degree: int,
    count: int,
    rank: int,
    mod: int | None,
    checker,
) -> tuple[Cochain, ...]:
    torsion_reps: list[Cochain] = []
    free_reps: list[Cochain] = []
    for i, d in enumerate(pres.diagonal):
        if d == 1:
            continue
        vec = hermite_reduce(pres.generator_column(i), boundary_hnf)
        if mod:
            vec = [x % mod for x in vec]
        rep = Cochain.from_flat(degree, vec, count, rank)
        if checker is not None and not checker(rep.flat()):
            raise VerificationError(
                f"extracted degree-{degree} representative is not a cocycle"
            )
        (free_reps if d == 0 else torsion_reps).append(rep)
    return tuple(torsion_reps + free_reps)


def _zero_checker(A: IntMatrix, mod: int | None):
    def check(flat: Sequence[int]) -> bool:
        out = A.mul(IntMatrix.from_columns([list(flat)], dim=len(flat)))
        if mod:
            return all(x % mod == 0 for row in out.data for x in row)
        return out.is_zero()

    return check


# ---------------------------------------------------------------------------
# Cohomology of the Hom complex


def _hom_group(
    M: GModule,
    D_in: RingMatrix | None,
    diff_out: Callable[[], RingMatrix] | None,
    dim: int,
    out_dim: int,
    *,
    degree: int,
    kind: str,
    resolution: str,
    finite_degree: bool,
    want_representatives: bool | None,
    limits: EngineLimits,
) -> CohomologyResult:
    """ker/im of integer block maps; D_in feeds the image, diff_out the
    kernel, both already in Hom form.  The outgoing differential arrives as
    a thunk so a route that never touches it (the shortcut) never pays for
    it; ``out_dim`` sizes its matrix before it is built.  Lattice
    coefficients in a ``finite_degree`` may take the cokernel-torsion
    shortcut; a modulus N switches kernels and quotients to congruences."""
    N = M.modulus
    mod = N or None
    want = want_representatives
    if want is None:
        want = dim <= _AUTO_REPRESENTATIVE_DIM
    if not N and not want and finite_degree and D_in is not None:
        route = "cokernel-torsion"
    else:
        route = "congruence" if N else "kernel"
    # every matrix is capped on its own shape before it is built
    if D_in is not None:
        limits.check_cells(M.rank * D_in.cols, M.rank * D_in.rows, f"{route} image")
    if route == "cokernel-torsion":
        inv = AbelianInvariants(0, tuple(cokernel_torsion(_hom_matrix(M, D_in))))
        return CohomologyResult(degree, kind, inv, M.label, resolution, route)
    # a presentation costs about dim^3; the transform-free congruence
    # invariants do not, so they skip this cap
    if want or not N:
        limits.check_cells(dim, dim, f"{route} presentation")
    checker = None
    if diff_out is not None:
        limits.check_cells(out_dim, dim, f"{route} outgoing map")
        D_out = diff_out()
        if N:
            kcols = congruence_kernel_columns(_hom_constraint_rows(M, D_out), dim, N)
            kcols = [c for c in kcols if any(c)]
            if want:
                checker = _zero_checker(_hom_matrix(M, D_out), N)
        else:
            A = _hom_matrix(M, D_out)
            kcols = kernel_basis(A).columns()
            # the kernel matrix doubles as the cocycle checker
            checker = _zero_checker(A, None)
    else:
        kcols = IntMatrix.identity(dim).columns()
    icols = _hom_matrix(M, D_in).columns() if D_in is not None else []
    icols = [c for c in icols if any(c)]
    if not want:
        if N:
            inv = quotient_invariants_mod(kcols, icols, dim, N)
        else:
            inv = quotient_presentation(kcols, icols, dim).invariants()
        return CohomologyResult(degree, kind, inv, M.label, resolution, route)
    pres = quotient_presentation(kcols, icols, dim, mod=mod)
    boundary = column_hnf(icols, dim, mod=mod)
    reps = _extract_representatives(
        pres, boundary, degree, dim // M.rank, M.rank, mod, checker
    )
    return CohomologyResult(
        degree,
        kind,
        pres.invariants(),
        M.label,
        resolution,
        route,
        representatives=reps,
        _presentation=pres,
        _boundary_hnf=boundary,
        _count=dim // M.rank,
        _rank=M.rank,
    )


def _guard_group(M: GModule, limits: EngineLimits) -> None:
    if M.spec.order > limits.max_group_order:
        raise ValueError(
            f"group order {M.spec.order} exceeds the configured maximum "
            f"{limits.max_group_order}"
        )


def _complex_group(
    M: GModule,
    n: int,
    kind: str,
    resolution: str,
    limits: EngineLimits | None,
    want_representatives: bool | None,
) -> CohomologyResult:
    """The shared body of the three entry points.

    Cohomology maps degree n towards n+1, homology towards n-1 through the
    antipode-transposed (tensor side) differentials.  A neighbouring degree
    exists when it is >= 0, or always on the complete resolution.
    """
    limits = limits or EngineLimits.from_env()
    _guard_group(M, limits)
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
    res = make_resolution(M.spec, resolution, limits)
    if tate:
        rank, diff = partial(complete_rank, res), partial(complete_diff, res)
    else:
        rank, diff = res.rank, res.diff
    step = -1 if kind == "homology" else 1

    def leg(k: int) -> RingMatrix:
        D = diff(max(n, k))
        return D.antipode_transpose() if step < 0 else D

    d = M.rank
    has_in = tate or n - step >= 0
    has_out = tate or n + step >= 0
    return _hom_group(
        M,
        leg(n - step) if has_in else None,
        (lambda: leg(n + step)) if has_out else None,
        d * rank(n),
        d * rank(n + step) if has_out else 0,
        degree=n,
        kind=kind,
        resolution=resolution,
        finite_degree=n >= 1 or tate,
        want_representatives=want_representatives,
        limits=limits,
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
    :func:`tate_cohomology` for the complete-complex value.
    """
    if isinstance(M, DualDivisible):
        if n == 0:
            raise ValueError("degree-0 cohomology of a divisible dual is not finite")
        return dual_tate(M.inner, n, limits=limits)
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
    if not M.is_lattice:
        raise ValueError("the divisible-dual route starts from a lattice")
    shifted = tate_cohomology(
        star_dual(M), n + 1, limits=limits, want_representatives=False
    )
    return CohomologyResult(
        degree=n,
        kind="tate",
        invariants=shifted.invariants,
        module=f"dualD({M.label})",
        resolution="minimal",
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


def _cocycle_check(M: GModule, c: Cochain, limits: EngineLimits | None) -> CocycleCheck:
    from cohomolab.resolutions import minimal_diff, monomial_basis

    limits = limits or EngineLimits.from_env()
    _guard_group(M, limits)
    n = c.degree
    D = minimal_diff(M.spec, n + 1)
    if len(c.values) != D.rows:
        raise ValueError(
            f"degree-{n} cochain needs {D.rows} value vectors, got {len(c.values)}"
        )
    flat = _apply(M, D, c.flat())
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
    from cohomolab.resolutions import minimal_diff

    D = minimal_diff(M.spec, 1)
    return Cochain.from_flat(1, _apply(M, D, u), D.cols, M.rank)


def coboundary_1(M: GModule, xi: Cochain) -> Cochain:
    """The degree-2 coboundary of a degree-1 cochain."""
    if xi.degree != 1:
        raise ValueError("expected a degree-1 cochain")
    from cohomolab.resolutions import minimal_diff

    D = minimal_diff(M.spec, 2)
    if len(xi.values) != D.rows:
        raise ValueError("cochain does not match the resolution basis")
    return Cochain.from_flat(2, _apply(M, D, xi.flat()), D.cols, M.rank)


# ---------------------------------------------------------------------------
# Factor sets


@dataclass
class FactorSet:
    """A normalized group-pair table equivalent to a degree-2 class.

    ``table[(g, h)]`` is the module-element vector f(g, h); rows and columns
    over identity entries vanish by normalization.
    """

    module: GModule
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]]

    def __call__(self, g: tuple[int, ...], h: tuple[int, ...]) -> tuple[int, ...]:
        return self.table[(g, h)]

    def cocycle_identity_holds(self) -> bool:
        """Full enumeration of g f(h,k) - f(gh,k) + f(g,hk) - f(g,h) = 0."""
        spec = self.module.spec
        N = self.module.modulus
        acts = {
            g: self.module.act(RingElement.of_element(spec, g))
            for g in spec.elements()
        }
        for g, h, k in itertools.product(spec.elements(), repeat=3):
            act_g = acts[g]
            fhk = self.table[(h, k)]
            first = [
                sum(act_g.data[t][u] * fhk[u] for u in range(self.module.rank))
                for t in range(self.module.rank)
            ]
            total = [
                first[t]
                - self.table[(spec.mul(g, h), k)][t]
                + self.table[(g, spec.mul(h, k))][t]
                - self.table[(g, h)][t]
                for t in range(self.module.rank)
            ]
            if N:
                total = [x % N for x in total]
            if any(total):
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
    from cohomolab.resolutions import bar_basis

    spec = M.spec
    s2 = sigma(spec, 2)
    pairs = bar_basis(spec, 2)
    index = {pair: col for col, pair in enumerate(pairs)}
    d = M.rank
    flat = _apply(M, s2, gamma.flat())
    table = {}
    ident = spec.identity()
    for g, h in itertools.product(spec.elements(), repeat=2):
        if g == ident or h == ident:
            table[(g, h)] = (0,) * d
        else:
            col = index[(g, h)]
            table[(g, h)] = tuple(flat[col * d : (col + 1) * d])
    return FactorSet(M, table)
