"""Quotient surface singularities C^2/G via group-averaged trace sums.

Dimensions of the invariant ring are computed exactly: for each group
element the trace of the degree-m symmetric power is a sum of roots of
unity, tracked as an integer vector over the powers of a primitive root of
the lcm order N and reduced modulo the cyclotomic polynomial.  Averaging
over the group must then produce a rational integer, which is asserted at
every degree.

Only one period of degrees is stepped in that ring.  For an element with
eigenvalues l1 != l2, tr Sym^{m+N} - tr Sym^m = l1^m sum_{j=m+1}^{m+N} mu^j
with mu = l2/l1, a full period of a root of unity other than 1, which is 0;
a scalar element (l1 = l2 = l) gains N l^m instead.  So the group sums obey
T_{m+N} = T_m + N S_{m mod N}, S_k = sum over scalar g of l_g^k, an identity
in the cyclotomic ring itself.  Each S_k is reduced to an integer by the
same routine, and the extension adds integers, so it stays exact; a list
that is not a group fails at the same first degree, with the same message,
as stepping every degree would: if T_k is an integer and S_k is not, then
T_{k+N} is not an integer either.

For actions free in codimension one the series satisfies
``d_m + d_{m+1} = ((m+1)^2 + |G| - 1) / |G|`` at every m divisible by |G|,
the dimension count grows like m^2 / (2|G|), and the minimal normalized
volume of the quotient is 4/|G|, attained by the pushforward of the order
valuation at the origin (log discrepancy 2, volume 1/|G|).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import BudgetExceeded, NonIntegerDimension, PreconditionViolated
from .exactgeom import rat

# cells of one series: |G| N min(M, N) stepped in the cyclotomic ring, plus
# the M + 1 dimensions kept
_TRACE_BUDGET = 2_000_000


class GroupElement:
    """Eigenvalues of a 2x2 unitary as rotation numbers p/q (e^{2 pi i p/q})."""

    def __init__(self, eig1, eig2):
        self.eig1 = rat(eig1) % 1
        self.eig2 = rat(eig2) % 1

    def __repr__(self) -> str:
        return f"GroupElement(eig1={self.eig1!r}, eig2={self.eig2!r})"

    @property
    def is_identity(self) -> bool:
        return self.eig1 == 0 and self.eig2 == 0

    @property
    def has_unit_eigenvalue(self) -> bool:
        return self.eig1 == 0 or self.eig2 == 0


class FiniteGroupAction:
    def __init__(self, elements: tuple[GroupElement, ...], label: str = ""):
        if not any(e.is_identity for e in elements):
            raise PreconditionViolated("element list must contain the identity")
        self.elements = elements
        self.label = label

    def __repr__(self) -> str:
        return f"FiniteGroupAction(elements={self.elements!r}, label={self.label!r})"

    @property
    def order(self) -> int:
        return len(self.elements)


class DimensionSeries:
    """dims[m] = dimension of the degree-below-m part of the invariant ring."""

    def __init__(self, dims: tuple[int, ...]):
        if len(dims) < 2 or dims[0] != 0 or dims[1] != 1:
            raise NonIntegerDimension("series must start 0, 1")
        if any(b < a for a, b in zip(dims, dims[1:])):
            raise NonIntegerDimension("series must be nondecreasing")
        self.dims = dims

    def __repr__(self) -> str:
        return f"DimensionSeries(dims={self.dims!r})"

    def __getitem__(self, m: int) -> int:
        return self.dims[m]

    def __len__(self) -> int:
        return len(self.dims)


def cyclic_group(r: int, a: int) -> FiniteGroupAction:
    """The 1/r(1, a) action: element j has eigenvalue pair (j/r, aj/r)."""
    if r < 1:
        raise PreconditionViolated("group order must be positive")
    elements = tuple(
        GroupElement(Fraction(j, r), Fraction(a * j, r)) for j in range(r)
    )
    return FiniteGroupAction(elements=elements, label=f"Z{r}({1},{a})")


def binary_dihedral_group(m: int) -> FiniteGroupAction:
    """Order-4m binary dihedral subgroup of SU(2): rotations plus trace-zero flips."""
    if m < 1:
        raise PreconditionViolated("m must be positive")
    elements = [
        GroupElement(Fraction(j, 2 * m), Fraction(-j, 2 * m)) for j in range(2 * m)
    ]
    elements += [GroupElement(Fraction(1, 4), Fraction(3, 4))] * (2 * m)
    return FiniteGroupAction(elements=tuple(elements), label=f"BD{m}")


def check_free_in_codim1(g: FiniteGroupAction) -> bool:
    """True iff no non-identity element fixes a line (no eigenvalue 1)."""
    return all(e.is_identity or not e.has_unit_eigenvalue for e in g.elements)


# -- exact cyclotomic bookkeeping ---------------------------------------------


def _poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Division of integer polynomials with monic divisor, low-to-high coeffs."""
    num = list(num)
    dlen = len(den)
    quot = [0] * max(1, len(num) - dlen + 1)
    for i in range(len(num) - dlen, -1, -1):
        coeff = num[i + dlen - 1]
        if coeff == 0:
            continue
        quot[i] = coeff
        for j, dval in enumerate(den):
            num[i + j] -= coeff * dval
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _stretch(poly: list[int], k: int) -> list[int]:
    """The coefficients of poly(x^k)."""
    out = [0] * ((len(poly) - 1) * k + 1)
    out[::k] = poly
    return out


def cyclotomic_polynomial(order: int) -> list[int]:
    """Integer coefficients (low to high) of the order-th cyclotomic polynomial.

    Built bottom-up over the primes of order, each Phi once: from Phi_1 =
    x - 1, Phi_mp(x) = Phi_m(x^p) / Phi_m(x) for each prime p of order in
    turn (p does not divide m), up to the product r of those primes, then
    Phi_order(x) = Phi_r(x^(order / r))."""
    poly, radical, rest = [-1, 1], 1, order
    for p in range(2, order + 1):
        if rest == 1:
            break
        if rest % p:
            continue
        while rest % p == 0:
            rest //= p
        poly, rem = _poly_divmod(_stretch(poly, p), poly)
        assert rem == [0]
        radical *= p
    return _stretch(poly, order // radical)


def _reduce_to_integer(coeffs: list[int], cyclo: list[int]) -> int:
    trimmed = list(coeffs)
    while len(trimmed) > 1 and trimmed[-1] == 0:
        trimmed.pop()
    if len(trimmed) >= len(cyclo):
        _, trimmed = _poly_divmod(trimmed, cyclo)
    if any(c != 0 for c in trimmed[1:]):
        raise NonIntegerDimension(
            "trace average is not rational: element list is not closed"
        )
    return trimmed[0]


def _trace_sums(shifts: list[tuple[int, int]], order: int, M: int):
    """Yield sum_g tr Sym^m(g), reduced to an integer, for m = 0 .. M - 1.

    Degrees below one period are stepped in the cyclotomic ring; each later
    degree is T_m = T_{m mod N} + (m div N) N S_{m mod N}, with S_k reduced
    once, the first time a degree needs it.  Being a generator, it reduces
    no degree before the caller has checked the ones below it.
    """
    cyclo = cyclotomic_polynomial(order)
    # trace of Sym^m for one element: t_m = eig1 * t_{m-1} + eig2^m
    traces = [[1] + [0] * (order - 1) for _ in shifts]
    values = []
    for m in range(min(M, order)):
        total = [sum(col) for col in zip(*traces)]
        values.append(_reduce_to_integer(total, cyclo))
        yield values[m]
        for idx, (e1, e2) in enumerate(shifts):
            vec = traces[idx]
            shifted = vec[-e1:] + vec[:-e1]  # multiply by eig1: rotate by e1
            shifted[((m + 1) * e2) % order] += 1
            traces[idx] = shifted
    scalars = [e1 for e1, e2 in shifts if e1 == e2]
    scalar_sums: dict[int, int] = {}
    for m in range(order, M):
        k = m % order
        if k not in scalar_sums:
            power = [0] * order
            for e in scalars:
                power[(k * e) % order] += 1
            scalar_sums[k] = _reduce_to_integer(power, cyclo)
        yield values[k] + (m // order) * order * scalar_sums[k]


def invariant_dimension_series(g: FiniteGroupAction, M: int) -> DimensionSeries:
    """Exact d_m = dim of invariants of degree < m, for m = 0 .. M; a
    BudgetExceeded, before any degree is stepped, where the series would
    take more than _TRACE_BUDGET cells."""
    if M < 1:
        raise PreconditionViolated("M must be at least 1")
    order = math.lcm(*(math.lcm(e.eig1.denominator, e.eig2.denominator) for e in g.elements))
    cells = g.order * order * min(M, order) + M
    if cells > _TRACE_BUDGET:
        raise BudgetExceeded(f"a Molien series of {cells} cells exceeds the budget")
    shifts = [
        (int(e.eig1 * order) % order, int(e.eig2 * order) % order) for e in g.elements
    ]
    dims = [0]
    running = 0
    for m, value in enumerate(_trace_sums(shifts, order, M)):
        if value % g.order != 0:
            raise NonIntegerDimension(f"average at degree {m} is {value}/{g.order}")
        running += value // g.order
        dims.append(running)
    return DimensionSeries(dims=tuple(dims))


# -- invariant-ring volume and the minimal normalized volume -------------------


def pair_identity_check(g: FiniteGroupAction, m: int, series: DimensionSeries | None = None) -> bool:
    """d_m + d_{m+1} == ((m+1)^2 + |G| - 1)/|G| as an exact integer identity."""
    if m % g.order != 0:
        raise PreconditionViolated("m must be divisible by the group order")
    if not check_free_in_codim1(g):
        raise PreconditionViolated("action must be free in codimension 1")
    if series is None or len(series) <= m + 1:
        series = invariant_dimension_series(g, m + 1)
    rhs = Fraction((m + 1) ** 2 + g.order - 1, g.order)
    return Fraction(series[m] + series[m + 1]) == rhs


class QuotientVolume(NamedTuple):
    exact: Fraction
    estimate: float
    depth: int


def quotient_volume(
    g: FiniteGroupAction, M: int = 400, series: DimensionSeries | None = None
) -> QuotientVolume:
    """vol of the pushed-forward order valuation: exactly 1/|G|, plus the
    finite-depth estimate d_M / (M^2/2) for convergence display.  A series
    reaching degree M is reused; otherwise one is computed."""
    if not check_free_in_codim1(g):
        raise PreconditionViolated("action must be free in codimension 1")
    if series is None or len(series) <= M:
        series = invariant_dimension_series(g, M)
    return QuotientVolume(
        exact=Fraction(1, g.order),
        estimate=series[M] / (M**2 / 2),
        depth=M,
    )


class QuotientMinimum(NamedTuple):
    min_nvol: Fraction
    logdisc_witness: Fraction
    volume_witness: Fraction


def quotient_min_nvol(g: FiniteGroupAction) -> QuotientMinimum:
    """Minimal normalized volume 4/|G| with witness A = 2, vol = 1/|G|."""
    if not check_free_in_codim1(g):
        raise PreconditionViolated("action must be free in codimension 1")
    return QuotientMinimum(
        min_nvol=Fraction(4, g.order),
        logdisc_witness=Fraction(2),
        volume_witness=Fraction(1, g.order),
    )
