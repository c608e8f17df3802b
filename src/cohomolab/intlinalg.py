"""Exact integer linear algebra: Smith diagonals, kernels, lattice quotients.

Everything here runs on Python's arbitrary-precision integers; there is no
floating point anywhere.  Matrices are immutable tuples of row tuples.  The
workhorses are

* :func:`smith_diagonal` -- the Smith diagonal, without transforms,
* :func:`kernel_columns` -- the one kernel routine, from sparse rows: a
  saturated basis of an integer kernel, or with a modulus N generators of
  the solutions of A x = 0 mod N,
* :func:`saturation_columns` -- the saturation of a lattice L from its
  spanning columns, when sparse elimination alone clears them, with the
  gain of each column; :func:`saturation_presentation` reads the quotient
  of the saturation by L off those pivots,
* :func:`quotient_invariants` -- structure of a lattice quotient L1/L2, over Z
  or with L1 and L2 taken modulo N*Z^n; :func:`quotient_presentation` adds
  the generator transforms.  Relations enter both as their echelon basis
  (Hermite with transforms); columns may be dense or {row: value} dicts.

The resolution matrices are over 99% zero with mostly unit entries, so the
Smith diagonal, the kernel and the saturation, over Z and over Z/N alike,
share one sparse elimination loop (:func:`_sparse_eliminate`): it clears
dividing pivots on {column: value} rows, which never grows coefficients,
scans each row once and again only when an elimination changes it, and
leaves the rows that held no such pivot when scanned to the dense Smith
elimination (:func:`_smith_eliminate`).  The gcd row echelon behind
:func:`echelon_rows` and the quotients also works on {column: value} rows.
A Hermite basis stays in the form its accumulator leaves it, (pivot,
{row: value}) pairs sorted by pivot: the canonical reduction, the
coordinates, the generator columns and the residues all read pivots off the
pairs, and no dense basis is built.

The elimination kernels accept an optional modulus: when the column span of
the input is known to contain N*Z^n, every entry may be reduced mod N without
changing the spanned lattice, which keeps coefficients tiny.  The finite
coefficient pipeline in the engine relies on this.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd
from typing import Iterable, Mapping, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g.

    >>> xgcd(12, 18)
    (6, -1, 1)
    >>> xgcd(0, -5)
    (5, 0, -1)
    """
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, stored as a tuple of row tuples."""

    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in r) for r in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        return IntMatrix(len(data), width, data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.data)) if self.data else ())

    def mod(self, n: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(tuple(x % n for x in r) for r in self.data))

@dataclass(frozen=True)
class AbelianInvariants:
    """Isomorphism type of a finitely generated abelian group.

    ``torsion`` is the invariant factor list, ascending divisibility, units
    dropped: Z^free_rank + Z/t1 + Z/t2 + ... with t1 | t2 | ...
    """

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        prev = None
        for t in self.torsion:
            if t < 2:
                raise ValueError("torsion entries must be > 1")
            if prev is not None and t % prev:
                raise ValueError("torsion entries must form a divisibility chain")
            prev = t

    @staticmethod
    def from_diagonal(diag: Iterable[int], free_rank: int = 0) -> "AbelianInvariants":
        """The group Z^free_rank + sum of Z/d over ``diag``, d >= 0.

        Each 0 gives a Z and each 1 nothing.  The entries need not form a
        divisibility chain: the gcd/lcm merge of :func:`_invariant_chain`
        turns, say, [2, 4, 3] into Z/2 + Z/12, and the units it leaves
        (Z/2 + Z/3 is Z/1 + Z/6) are dropped.

        >>> AbelianInvariants.from_diagonal([0, 2, 4, 3])
        AbelianInvariants(free_rank=1, torsion=(2, 12))
        """
        diag = list(diag)
        torsion = tuple(d for d in _invariant_chain(d for d in diag if d > 1) if d > 1)
        return AbelianInvariants(free_rank + diag.count(0), torsion)

    def order(self) -> int | None:
        if self.free_rank:
            return None
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def as_list(self) -> list[int]:
        return list(self.torsion)


# _factorize trial-divides by the d below this bound, then splits what is
# left by at most this many rho steps
_TRIAL_BOUND = 100
_RHO_STEPS = 1 << 21


def _factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorization of n as (prime, exponent) pairs, primes
    ascending; [] for n < 2.  Trial division by d < ``_TRIAL_BOUND`` takes
    the small primes; a cofactor left is decided by :func:`_check_prime`
    and, where a base witnesses it composite, split by Pollard-Brent rho
    (:func:`_rho_factor`) until every factor is checked prime.  A factor
    the test cannot decide, or a composite the rho search cannot split,
    raises ValueError.

    >>> _factorize(360), _factorize((2**31 - 1) * 101**2)
    ([(2, 3), (3, 2), (5, 1)], [(101, 2), (2147483647, 1)])
    """
    out: dict[int, int] = {}
    d = 2
    while d < _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
        d += 1
    rest = [n] if n > 1 else []
    while rest:
        c = rest.pop()
        if c >= d * d and _witnessed(c):
            f = _rho_factor(c)
            rest += [f, c // f]
            continue
        _check_prime(c)
        out[c] = out.get(c, 0) + 1
    return sorted(out.items())


def _rho_factor(n: int) -> int:
    """A factor 1 < f < n of a composite n with no prime factor below
    ``_TRIAL_BOUND``: Pollard's rho on x -> x^2 + c with Brent's cycle
    search and products of 128 differences per gcd, c = 1, 2, ... until
    one splits n.  It finds a prime factor p in about sqrt(p) steps, so it
    gives up with ValueError after ``_RHO_STEPS``, where every factor of n
    is past about 2^40."""
    steps = c = 0
    while steps < _RHO_STEPS:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps < _RHO_STEPS:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            steps += 2 * r
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g
    raise ValueError(f"cannot factor {n}: no factor found in {_RHO_STEPS} rho steps")


# Miller-Rabin to the first 13 prime bases decides primality exactly below
# this bound (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _witnessed(p: int) -> bool:
    """Whether p < 2, or one of ``_PRIME_BASES`` witnesses p composite:
    a proof at any size."""
    if p in _PRIME_BASES:
        return False
    d, r = p - 1, 0
    while d > 0 and d % 2 == 0:
        d, r = d // 2, r + 1

    def witness(a: int) -> bool:
        x = pow(a, d, p)
        if x in (1, p - 1):
            return False
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                return False
        return True

    return p < 2 or any(p % a == 0 or witness(a) for a in _PRIME_BASES)


def _check_prime(p: int) -> None:
    """Raise ValueError, "p must be prime", unless p is prime.  A base that
    witnesses p composite does so at any size; a p that no base witnesses
    is prime below ``_PRIME_BOUND`` and refused as undecided above it."""
    if _witnessed(p):
        raise ValueError(f"p must be prime: {p} is not prime")
    if p >= _PRIME_BOUND:
        raise ValueError(f"p must be prime: {p} is past the bound of the exact primality test")


# ---------------------------------------------------------------------------
# Smith normal form


def _find_pivot(a: list[list[int]], t: int, m: int, n: int) -> tuple[int, int] | None:
    # smallest absolute value, ties broken by lowest row index, then column
    best = None
    best_val = None
    for i in range(t, m):
        row = a[i]
        for j in range(t, n):
            x = row[j]
            if x:
                ax = -x if x < 0 else x
                if best_val is None or ax < best_val:
                    best_val = ax
                    best = (i, j)
                    if ax == 1:
                        return best
    return best


def _identity(k: int) -> list[list[int]]:
    rows = [[0] * k for _ in range(k)]
    for i in range(k):
        rows[i][i] = 1
    return rows


class _Eliminator:
    """Shared row/column operation bookkeeping for Smith elimination.

    With ``mod`` set, all entries (including transforms) are kept reduced
    mod N.  This is only sound when the caller treats the column span plus
    N*Z^m as the lattice of interest; see the module docstring.
    """

    def __init__(self, rows, m, n, mod=None, want_u=False, want_uinv=False, want_v=False):
        self.m, self.n, self.mod = m, n, mod
        if mod:
            self.a = [[x % mod for x in r] for r in rows]
        else:
            self.a = [list(r) for r in rows]
        self.u = _identity(m) if want_u else None
        self.uinv = _identity(m) if want_uinv else None
        self.v = _identity(n) if want_v else None

    def _red_row(self, row):
        if self.mod:
            m = self.mod
            for k in range(len(row)):
                row[k] %= m

    def row_combine(self, i, j, q):
        # row_i -= q * row_j
        if not q:
            return
        a, mod = self.a, self.mod
        ai, aj = a[i], a[j]
        for k in range(self.n):
            ai[k] -= q * aj[k]
        self._red_row(ai)
        if self.u is not None:
            ui, uj = self.u[i], self.u[j]
            for k in range(self.m):
                ui[k] -= q * uj[k]
            self._red_row(ui)
        if self.uinv is not None:
            for r in self.uinv:
                r[j] += q * r[i]
                if mod:
                    r[j] %= mod

    def row_swap(self, i, j):
        if i == j:
            return
        a = self.a
        a[i], a[j] = a[j], a[i]
        if self.u is not None:
            self.u[i], self.u[j] = self.u[j], self.u[i]
        if self.uinv is not None:
            for r in self.uinv:
                r[i], r[j] = r[j], r[i]

    def row_negate(self, i):
        self.a[i] = [-x for x in self.a[i]]
        self._red_row(self.a[i])
        if self.u is not None:
            self.u[i] = [-x for x in self.u[i]]
            self._red_row(self.u[i])
        if self.uinv is not None:
            for r in self.uinv:
                r[i] = -r[i] if not self.mod else (-r[i]) % self.mod

    def col_combine(self, j, k, q):
        # col_j -= q * col_k
        if not q:
            return
        mod = self.mod
        for r in self.a:
            r[j] -= q * r[k]
            if mod:
                r[j] %= mod
        if self.v is not None:
            for r in self.v:
                r[j] -= q * r[k]
                if mod:
                    r[j] %= mod

    def col_swap(self, j, k):
        if j == k:
            return
        for r in self.a:
            r[j], r[k] = r[k], r[j]
        if self.v is not None:
            for r in self.v:
                r[j], r[k] = r[k], r[j]


def _smith_eliminate(el: _Eliminator) -> list[int]:
    """Run Smith elimination in place; return the diagonal entries found."""
    a, m, n = el.a, el.m, el.n
    diag = []
    t = 0
    while t < min(m, n):
        piv = _find_pivot(a, t, m, n)
        if piv is None:
            break
        el.row_swap(t, piv[0])
        el.col_swap(t, piv[1])
        if a[t][t] < 0:
            el.row_negate(t)
        while True:
            p = a[t][t]
            # clear the pivot column (floor division leaves remainders in [0, p))
            dirty = False
            for i in range(t + 1, m):
                x = a[i][t]
                if x:
                    el.row_combine(i, t, x // p)
                    if a[i][t]:
                        dirty = True
            if dirty:
                i0 = min(
                    (i for i in range(t + 1, m) if a[i][t]),
                    key=lambda i: (a[i][t], i),
                )
                el.row_swap(t, i0)
                continue
            # clear the pivot row; column t is untouched by these
            p = a[t][t]
            dirty = False
            for j in range(t + 1, n):
                x = a[t][j]
                if x:
                    el.col_combine(j, t, x // p)
                    if a[t][j]:
                        dirty = True
            if dirty:
                j0 = min(
                    (j for j in range(t + 1, n) if a[t][j]),
                    key=lambda j: (a[t][j], j),
                )
                el.col_swap(t, j0)
                continue
            # enforce the divisibility chain
            p = a[t][t]
            bad = None
            if p > 1:
                for i in range(t + 1, m):
                    row = a[i]
                    for j in range(t + 1, n):
                        if row[j] % p:
                            bad = i
                            break
                    if bad is not None:
                        break
            if bad is None:
                break
            el.row_combine(t, bad, -1)
        diag.append(a[t][t])
        t += 1
    return diag


def _dict_row(r: Sequence[int] | dict[int, int], N: int = 0) -> dict[int, int]:
    """The nonzero entries of a dense or dict row as a new {column: value}
    dict, reduced mod N."""
    if isinstance(r, dict):
        if N:
            return {j: y for j, x in r.items() if (y := x % N)}
        return {j: x for j, x in r.items() if x}
    if N:
        r = [x % N for x in r]
    return dict(zip(compress(range(len(r)), r), compress(r, r)))


def _sparse_eliminate(
    rows: Sequence[dict[int, int]], N: int
) -> tuple[list[tuple[int, int, dict[int, int]]], list[dict[int, int]]]:
    """Clear dividing pivots from {column: nonzero entry} rows, in place.

    A dividing pivot is an entry whose gcd g with N (N == 0 reads the rows
    over Z) equals the gcd of its row with N and divides every entry of its
    column; a unit always is one.  The loop takes the shortest row holding
    one, in its column with the fewest entries, subtracts exact multiples of
    that row from the others to clear the column, and drops the row.  A row
    is scanned once, and again only when an elimination changes it, so a
    row that holds no dividing pivot when scanned stays residual even where
    a later elimination frees one: the residual only has to be exact, not
    short.

    Returns the pivots in elimination order as (g, column, row), ``row``
    being the pivot's row as it stood when dropped, and the residual rows.
    No residual row, and no later pivot row, touches an earlier pivot column.
    """
    live = {i: row for i, row in enumerate(rows) if row}
    cols: defaultdict[int, set[int]] = defaultdict(set)  # column -> rows
    for i, row in live.items():
        for j in row:
            cols[j].add(i)
    pivots: list[tuple[int, int, dict[int, int]]] = []
    heap = [(len(r), i) for i, r in live.items()]
    heapify(heap)
    while heap:
        size, i = heappop(heap)
        row = live.get(i)
        if row is None or len(row) != size:
            continue  # eliminated, or queued again under its new length
        g = gcd(*row.values(), N)
        best = None
        for j, x in row.items():
            if gcd(x, N) == g and (best is None or len(cols[j]) < len(cols[best])):
                if g == 1 or all(live[k][j] % g == 0 for k in cols[j]):
                    best = j
        if best is None:
            continue
        p = row[best]
        # the multiplier q solves q * p = x (mod N) for every x that g divides
        inv = pow(p // g, -1, N // g) if N else p // g
        del live[i]
        for j in row:
            cols[j].discard(i)
        for k in list(cols[best]):
            other = live[k]
            q = other[best] // g * inv
            for j, x in row.items():
                y = other.get(j, 0) - q * x
                if N:
                    y %= N
                if y:
                    if j not in other:
                        cols[j].add(k)
                    other[j] = y
                elif other.pop(j, 0):
                    cols[j].discard(k)
            if other:
                heappush(heap, (len(other), k))
            else:
                del live[k]
        pivots.append((g, best, row))
    return pivots, list(live.values())


def smith_diagonal(
    rows: Iterable[Sequence[int] | dict[int, int]], m: int, n: int, mod: int | None = None
) -> list[int]:
    """Nonzero diagonal of the Smith form of an m x n matrix, no transforms.

    ``rows`` may be streamed; each row is either dense, or a dict
    {column: value} of its nonzero entries (columns below ``n``), which is
    how the engine feeds the rows it assembles without ever building the
    dense matrix.  Dict rows are copied, never modified.  Returns rank-many
    entries in ascending divisibility, units first.  With ``mod`` the
    matrix is read over Z/mod: each entry is gcd(d, mod), and entries equal
    to mod (zero in Z/mod) are dropped.

    Sparse elimination (:func:`_sparse_eliminate`) contributes one diagonal
    entry per dividing pivot: the rest of a pivot's row is a multiple of the
    pivot, so column operations would clear it; they are never carried out.
    What is left without such a pivot goes to the dense
    :func:`_smith_eliminate`.

    The shape ``m`` x ``n`` is not read here; it stays in the signature
    because the benchmark's tracer (``perfbench/tracing.py``) binds both by
    name to count the cells of each call.

    >>> smith_diagonal([[2, 4], [6, 8]], 2, 2)
    [2, 4]
    >>> smith_diagonal([{0: 2, 1: 4}, {0: 6, 1: 8}], 2, 2)
    [2, 4]
    >>> smith_diagonal([[4, 0], [0, 6]], 2, 2, mod=12)
    [2]
    """
    N = mod or 0  # gcd(x, 0) == abs(x), so N == 0 reads the matrix over Z
    pivots, residual = _sparse_eliminate([_dict_row(r, N) for r in rows], N)
    diag = [g for g, _, _ in pivots]
    if residual:
        used = sorted({j for row in residual for j in row})
        dense = [[row.get(j, 0) for j in used] for row in residual]
        el = _Eliminator(dense, len(dense), len(used), mod=mod)
        diag.extend(gcd(d, N) for d in _smith_eliminate(el))
    return _invariant_chain(diag, N)


def solve_pivots(
    rows: Mapping[int, Sequence[tuple[int, int]]], pivots: dict[int, int], mod: int | None = None
) -> dict[int, dict[int, int]]:
    """R(j) for each pivot column j of unit pivots known in advance, in an
    order that solves each after every R it needs; ValueError where the
    pivots cannot be trusted.

    ``pivots`` maps a column j to the row that holds its pivot, and ``rows``
    gives the (column, value) pairs of at least those rows, by row index.
    R(j) is the pivot row of j without its pivot, each entry x in another
    pivot column k replaced by -x R(k), divided by the pivot: a solution x
    of A x = 0 on the pivot rows takes x_j = -R(j) . x on the non-pivot
    columns.  Every pivot must be a unit (mod N with ``mod``), no row may
    hold two pivots, and no R(j) may need itself: then the pivot block is
    triangular up to order with a unit diagonal.  A row that holds two
    pivots has both their columns, so their R's need each other and the
    walk meets that as a cycle.  With ``mod`` the entries are symmetric
    residues, of absolute value at most N/2.

    >>> solve_pivots({0: [(0, 1), (1, 2)], 1: [(1, 1), (2, 3)]}, {0: 0, 1: 1})
    {1: {2: 3}, 0: {2: -6}}
    >>> solve_pivots({0: [(0, 1), (1, 2)]}, {0: 0, 1: 0})
    Traceback (most recent call last):
    ValueError: R(0) needs itself
    """
    N = mod or 0
    h = N // 2
    if not all(r in rows for r in pivots.values()):
        raise ValueError("a pivot row is missing")
    solved: dict[int, dict[int, int]] = {}

    def reduce(row: Iterable[tuple[int, int]], skip: int) -> dict[int, int]:
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
            for k, _ in row:
                if k != j and k in pivots and k not in solved:
                    if k in walking:
                        raise ValueError(f"R({k}) needs itself")
                    stack.append(k)
                    walking.add(k)
                    break
            else:
                p = sum(x for k, x in row if k == j)
                if (gcd(p, N) != 1) if N else p not in (1, -1):
                    raise ValueError(f"the pivot of column {j} is {p}, no unit")
                # 1/p is p over Z; a unit times a nonzero entry stays nonzero
                inv = pow(p, -1, N) if N else p
                solved[j] = {
                    q: (x * inv + h) % N - h if N else x * inv for q, x in reduce(row, j).items()
                }
                stack.pop()
                walking.discard(j)
    return solved


def _invariant_chain(diag: Iterable[int], N: int = 0) -> list[int]:
    """Smith diagonal of diag(d1, d2, ...), all d > 0, units first.

    Pairs are merged as (a, b) -> (gcd, lcm), which keeps the diagonal
    equivalent; nothing is factored.  With a modulus N every entry divides
    N, and entries equal to N are zero in Z/N and dropped.
    """
    units = 0
    chain: list[int] = []
    for x in sorted(diag):
        if x == 1:
            units += 1
            continue
        if chain and x % chain[-1]:
            # merging x up the chain keeps each entry dividing the next: the
            # new entry gcd(c_k, lcm(...)) divides both c_k and the carry
            for k, c in enumerate(chain):
                g = gcd(c, x)
                chain[k], x = g, c // g * x
        chain.append(x)
    while N and chain and chain[-1] == N:
        chain.pop()
    return [1] * units + chain


# ---------------------------------------------------------------------------
# Integer row echelon / Hermite machinery


def _echelon_insert(
    pivots: dict[int, dict[int, int]], row: dict[int, int], mod: int | None = None
) -> None:
    """Insert one {column: nonzero} row, reduced mod ``mod``, into a gcd
    row-echelon accumulator (span preserving)."""
    while row:
        j = min(row)
        p = pivots.get(j)
        if p is None:
            if row[j] < 0:
                row = {k: -x for k, x in row.items()}
            pivots[j] = row
            return
        # both rows vanish left of the pivot column, so only their tails change
        a, b = p[j], row[j]
        if b % a == 0:
            q = b // a
            for k, y in p.items():
                x = row.get(k, 0) - q * y
                if mod:
                    x %= mod
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
        else:
            g, x, y = xgcd(a, b)
            qa, qb = a // g, b // g
            new_p, tail = {}, {}
            for k in p.keys() | row.keys():
                pa, rb = p.get(k, 0), row.get(k, 0)
                u, v = x * pa + y * rb, qa * rb - qb * pa
                if mod:
                    u, v = u % mod, v % mod
                if u:
                    new_p[k] = u
                if v:
                    tail[k] = v
            pivots[j] = new_p
            row = tail


# An echelon basis is kept as its accumulator leaves it: (pivot, {index:
# value}) pairs sorted by pivot, each vector vanishing before its pivot.
_Pairs = list[tuple[int, dict[int, int]]]


def _echelon_pairs(
    vectors: Iterable[Sequence[int] | dict[int, int]], mod: int | None = None, seed: int = 0
) -> _Pairs:
    """A gcd echelon basis of the span of ``vectors``, reduced mod ``mod``;
    ``seed`` > 0 adds mod*e_i for i < seed to the span first."""
    pivots = {i: {i: mod} for i in range(seed)} if mod else {}
    for v in vectors:
        _echelon_insert(pivots, _dict_row(v, mod or 0), mod=mod)
    return sorted(pivots.items())


def _hermite_pairs(
    cols: Iterable[Sequence[int] | dict[int, int]], dim: int, mod: int | None = None
) -> _Pairs:
    """The canonical column Hermite basis of the lattice spanned by
    ``cols``, each dense or a dict {row: value}, as pairs.

    With ``mod`` set the lattice is span(cols) + mod*Z^dim: the modulus
    sublattice is seeded first, so the basis always has a pivot in every
    row and all entries stay in [0, mod).  Pivots are positive, and the
    entries of earlier columns at each pivot row are reduced into [0, pivot).
    """
    pairs = _echelon_pairs(cols, mod, dim if mod else 0)
    # canonical reduction, last column first: each column is reduced by
    # later ones that already are, and a step at pivot p changes it only at
    # rows >= p, so the entries it leaves in [0, pivot) stay there
    for k in range(len(pairs) - 2, -1, -1):
        c = pairs[k][1]
        for p, b in pairs[k + 1 :]:
            x = c.get(p)
            if x:
                q = x // b[p]
                if q:
                    for j, y in b.items():
                        z = c.get(j, 0) - q * y
                        if z:
                            c[j] = z
                        else:
                            del c[j]
    return pairs


def _densify(pairs: _Pairs, width: int) -> list[list[int]]:
    out = []
    for _, c in pairs:
        row = [0] * width
        for k, x in c.items():
            row[k] = x
        out.append(row)
    return out


def _residue(v: list[int], pairs: _Pairs) -> list[int]:
    """Reduce ``v`` in place by the echelon basis ``pairs``; returns it."""
    for p, c in pairs:
        q = v[p] // c[p]
        if q:
            for k, x in c.items():
                v[k] -= q * x
    return v


def _solve(pairs: _Pairs, v: list[int]) -> list[int] | None:
    """Coordinates of ``v`` in the echelon basis ``pairs``, or None if it
    lies outside the lattice; ``v`` is consumed."""
    coords = []
    for p, c in pairs:
        q = 0
        if v[p]:
            q, r = divmod(v[p], c[p])
            if r:
                return None
            for k, x in c.items():
                v[k] -= q * x
        coords.append(q)
    return None if any(v) else coords


def _coords_in_span(pairs: _Pairs, targets: _Pairs, dim: int) -> list[list[int]]:
    """:func:`_solve` for many echelon targets; raises if one lies outside.
    A target vanishes before its pivot, so its coordinates start there."""
    pivots = [p for p, _ in pairs]
    out = []
    for p, t in targets:
        start = bisect_left(pivots, p)
        v = [0] * dim
        for k, x in t.items():
            v[k] = x
        y = _solve(pairs[start:], v)
        if y is None:
            raise ValueError("relation columns do not lie in the spanned lattice")
        out.append([0] * start + y)
    return out


def echelon_rows(rows: Iterable[Sequence[int]], mod: int | None = None) -> list[list[int]]:
    """Row echelon basis (over Z) of the row span, sorted by pivot column."""
    rlist = [list(r) for r in rows]
    if not rlist:
        return []
    return _densify(_echelon_pairs(rlist, mod), len(rlist[0]))


# ---------------------------------------------------------------------------
# Kernels


def kernel_columns(
    rows: Iterable[Iterable[tuple[int, int]]], n: int, mod: int | None = None
) -> list[list[int]]:
    """Generators of {x in Z^n : A x = 0}, or of {x : A x = 0 mod N} with
    ``mod`` N, as columns.

    ``rows`` yields the rows of A as sparse (index, coefficient) pairs;
    repeated indices add up.  Over Z the columns are a saturated basis: the
    quotient of Z^n by their span is torsion free.  With ``mod`` they
    generate the solutions together with N*Z^n, every entry lies in [0, N)
    and no column is zero.

    :func:`_sparse_eliminate` clears the dividing pivots.  A pivot (g, j,
    row) fixes x_j = -(row[j]/g)^-1 * sum_{k != j} (row[k]/g) x_k modulo
    N/g, exactly over Z (where row[j] = +-g); with a modulus and g > 1,
    (N/g)*e_j is one more generator.  The residual rows touch only
    non-pivot columns.  Their echelon form goes through the Smith
    elimination with V: a zero diagonal position frees its column of V, and
    with a modulus an entry d frees N/gcd(d, N) times its column.
    Non-pivot columns the residual rows do not touch are free.  Each
    generator extends to a solution by adding the pivots'
    back-substitution, in reverse elimination order.

    >>> kernel_columns([[(0, 2), (1, 3)]], 2)
    [[3, -2]]
    >>> kernel_columns([[(0, 1), (1, -1), (2, 2)], [(2, 3)]], 4)
    [[1, 1, 0, 0], [0, 0, 0, 1]]
    >>> kernel_columns([[(0, 2), (1, 2)]], 2, mod=4)
    [[2, 0], [3, 1]]
    """
    N = mod or 0
    sparse = []
    for r in rows:
        row: dict[int, int] = {}
        for k, c in r:
            row[k] = row.get(k, 0) + c
        sparse.append(_dict_row(row, N))
    pivots, residual = _sparse_eliminate(sparse, N)
    used = sorted({j for row in residual for j in row})
    basis: list[dict[int, int]] = []  # generators before back-substitution
    if residual:
        ech = echelon_rows([[row.get(j, 0) for j in used] for row in residual], mod=mod)
        el = _Eliminator(ech, len(ech), len(used), mod=mod, want_v=True)
        diag = _smith_eliminate(el)
        for t in range(len(used)):
            f = N // gcd(diag[t], N) if t < len(diag) else 1
            if f and f != N:
                basis.append({j: f * v[t] for j, v in zip(used, el.v) if v[t]})
    basis += ({j: N // g} for g, j, _ in pivots if N and g > 1)
    bound = set(used).union(j for _, j, _ in pivots)
    basis += ({j: 1} for j in range(n) if j not in bound)
    # x_j += -(row[j]/g)^-1 * sum of (row[k]/g) * x_k, pivots in reverse order
    steps = []
    for g, j, row in reversed(pivots):
        inv = pow(row[j] // g, -1, N // g) if N else row[j] // g
        steps.append((j, [(k, -(c // g) * inv) for k, c in row.items() if k != j]))
    out = []
    for vec in basis:
        x = [0] * n
        for j, v in vec.items():
            x[j] = v
        for j, terms in steps:
            x[j] += sum(q * x[k] for k, q in terms)
            if N:
                x[j] %= N
        out.append([v % N for v in x] if N else x)
    return out


def saturation_columns(
    cols: Iterable[Sequence[int] | dict[int, int]],
) -> list[tuple[int, int, dict[int, int]]] | None:
    """A basis of the saturation of the lattice L the columns span, read off
    the pivots of :func:`_sparse_eliminate`, or None when it leaves a
    residual.  The columns are copied, never modified.

    Each pivot (g, j, row) has row[j] = +-g, and g divides its row.  With no
    residual the pivot rows span L, and the columns Q = row/row[j], each 1
    at its pivot row j, have a unit-triangular minor on the pivot rows, as
    no later pivot row touches an earlier pivot column: so they span a
    saturated lattice of the rank of L, the saturation, and L is spanned by
    the g*Q.  Returns (g, j, Q) in elimination order; g is the gain of Q,
    and the saturation modulo L is the sum of the Z/g
    (:func:`saturation_presentation`).

    >>> saturation_columns([[2, 4, 0], [0, 3, 3]])
    [(2, 0, {0: 1, 1: 2}), (3, 1, {1: 1, 2: 1})]
    >>> saturation_columns([{0: 2, 1: 3}, {0: 3, 1: 2}]) is None
    True
    """
    pivots, residual = _sparse_eliminate([_dict_row(c) for c in cols], 0)
    if residual:
        return None
    return [(g, j, {k: x // row[j] for k, x in row.items()}) for g, j, row in pivots]


# ---------------------------------------------------------------------------
# Lattice quotients


def quotient_invariants(
    basis_cols: Sequence[Sequence[int] | dict[int, int]],
    relation_cols: Sequence[Sequence[int] | dict[int, int]],
    dim: int,
    mod: int | None = None,
) -> AbelianInvariants:
    """Structure of span(basis) / span(relations), without transforms.

    Columns are dense or {row: value} dicts.  With ``mod`` set both lattices
    include mod*Z^dim, as for :func:`quotient_presentation`, which gives the
    same group with generator lifts.  Rejects relations outside the spanned
    lattice.

    >>> quotient_invariants([[1, 1]], [[2, 2]], 2)
    AbelianInvariants(free_rank=0, torsion=(2,))
    >>> quotient_invariants([[1, 0], [0, 1]], [{0: 2}], 2, mod=4)
    AbelianInvariants(free_rank=0, torsion=(2, 4))
    """
    seed = dim if mod else 0
    hk = _echelon_pairs(basis_cols, mod, seed)
    r = len(hk)
    rel = _coords_in_span(hk, _echelon_pairs(relation_cols, mod, seed), dim)
    diag = smith_diagonal(rel, len(rel), r, mod=mod)
    return AbelianInvariants.from_diagonal(diag + [mod or 0] * (r - len(diag)))


@dataclass
class QuotientPresentation:
    """Quotient of a lattice by a sublattice, with coordinate transforms.

    The quotient is span(basis)/span(relations), whose echelon bases are
    kept as the sparse (pivot, {row: value}) pairs ``_basis`` and
    ``_relations``: Hermite bases (:func:`quotient_presentation`), or the
    pivot columns of a saturation in elimination order
    (:func:`saturation_presentation`).  :meth:`residue` reduces by the
    relations to canonical residues.  ``diagonal`` has one entry per basis
    position: d_i > 0 means a Z/d_i summand (1 = trivial), 0 means a free Z
    summand.  ``generator_column(i)`` lifts quotient generator i to ambient
    coordinates; ``coordinates`` is the inverse direction, mapping a lattice
    vector to its coordinate tuple in prod_i Z/d_i.
    """

    dim: int
    u: list[list[int]]
    uinv: list[list[int]]
    diagonal: list[int]
    _basis: _Pairs = field(repr=False, compare=False)
    _relations: _Pairs = field(repr=False, compare=False)
    mod: int | None = None

    @property
    def rank(self) -> int:
        return len(self._basis)

    def coordinates(self, vec: Sequence[int]) -> list[int]:
        y = _solve(self._basis, list(vec))
        if y is None:
            raise ValueError("vector is not in the lattice")
        out = []
        for i, d in enumerate(self.diagonal):
            c = sum(self.u[i][k] * y[k] for k in range(self.rank))
            out.append(c % d if d else c)
        return out

    def generator_column(self, i: int) -> list[int]:
        col = [0] * self.dim
        for (_, hcol), row in zip(self._basis, self.uinv):
            c = row[i]
            if c:
                for p, x in hcol.items():
                    col[p] += c * x
        if self.mod:
            col = [x % self.mod for x in col]
        return col

    def residue(self, vec: Sequence[int]) -> list[int]:
        """Canonical residue of ``vec`` modulo the relations: equal classes
        give equal residues."""
        return _residue(list(vec), self._relations)

    def invariants(self) -> AbelianInvariants:
        return AbelianInvariants.from_diagonal(self.diagonal)


def quotient_presentation(
    basis_cols: Sequence[Sequence[int] | dict[int, int]],
    relation_cols: Sequence[Sequence[int] | dict[int, int]],
    dim: int,
    mod: int | None = None,
) -> QuotientPresentation:
    """Like :func:`quotient_invariants` but keeps transforms for generators.

    Columns are dense or {row: value} dicts.  With ``mod`` set, both
    lattices implicitly include mod*Z^dim (neither generator list needs to
    spell that out) and all arithmetic stays reduced mod ``mod``; the
    reported diagonal then divides the modulus.

    The relations enter as their Hermite basis, whose coordinates in the
    basis's Hermite basis are echelon already and are the Smith input; so
    the presentation depends on the two lattices alone, not on the order or
    redundancy of either column list.  Both bases stay sparse through the
    coordinates, the generator columns and the residues.

    The relations below have the Hermite basis (2, 4), (0, 6):

    >>> p = quotient_presentation([[1, 0], [0, 1]], [[0, 6], [2, 10]], 2)
    >>> p.diagonal, p.residue([3, 7]), p.residue([1, 9])
    ([2, 6], [1, 3], [1, 3])
    >>> q = quotient_presentation([[1, 0], [0, 1]], [{0: 2}], 2, mod=4)
    >>> q.diagonal, q.residue([3, 6])
    ([2, 4], [1, 2])
    """
    hk = _hermite_pairs(basis_cols, dim, mod)
    rel = _hermite_pairs(relation_cols, dim, mod)
    r = len(hk)
    coords = _coords_in_span(hk, rel, dim)
    # r rows (coordinate space), one column per relation
    x_rows = [[c[i] for c in coords] for i in range(r)]
    el = _Eliminator(x_rows, r, len(rel), mod=mod, want_u=True, want_uinv=True)
    diag = _smith_eliminate(el)
    full = diag + [0] * (r - len(diag))
    if mod:
        full = [gcd(d, mod) if d else mod for d in full]
    return QuotientPresentation(dim, el.u, el.uinv, full, hk, rel, mod)


def saturation_presentation(
    saturation: Sequence[tuple[int, int, dict[int, int]]], dim: int
) -> QuotientPresentation:
    """The saturation of a lattice L modulo L, the sum of the Z/g, with
    transforms, from the (g, j, Q) of :func:`saturation_columns`: no
    Hermite basis is built and no relation is solved for.

    The basis is the Q and the relations the g*Q, each kept as (j, column)
    pairs in elimination order, so :func:`_residue` and :func:`_solve` are
    exact on them: no later column touches an earlier pivot row, where a
    basis column holds 1 and a relation g > 0.  The diagonal is the gains
    with identity transforms, unless the gains above 1, sorted, fail to
    form a divisibility chain: then the Smith form of their diagonal, with
    its transforms, merges the coprime parts, so Z/2 + Z/3 has the one
    generator of Z/6.

    >>> p = saturation_presentation(saturation_columns([[2, 0], [0, 3]]), 2)
    >>> p.diagonal, p.generator_column(1), p.residue([5, 5])
    ([1, 6], [1, -1], [1, 2])
    """
    basis = [(j, q) for _, j, q in saturation]
    relations = [(j, {k: g * x for k, x in q.items()}) for g, j, q in saturation]
    diag = [g for g, _, _ in saturation]
    u, uinv = _identity(len(diag)), _identity(len(diag))
    big = [i for i, g in enumerate(diag) if g > 1]
    gains = sorted(diag[i] for i in big)
    if any(b % a for a, b in zip(gains, gains[1:])):
        rows = [[diag[i] if i == k else 0 for k in big] for i in big]
        el = _Eliminator(rows, len(big), len(big), want_u=True, want_uinv=True)
        for a, (i, d) in enumerate(zip(big, _smith_eliminate(el))):
            diag[i] = d
            for b, k in enumerate(big):
                u[i][k], uinv[i][k] = el.u[a][b], el.uinv[a][b]
    return QuotientPresentation(dim, u, uinv, diag, basis, relations)
