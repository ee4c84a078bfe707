"""Volume profiles of valuation filtrations and the interpolation calculus.

For a cone singularity graded by a reference valuation v0 and filtered by a
second monomial valuation v1, the profile t -> vol(R^(t)) measures the
asymptotic density of the filtration level t inside the graded pieces: n!
times the volume of {y in the dual cone : <v0, y> <= 1, <v1, y> >= t <v0, y>},
the Duistermaat-Heckman measure of v1 on the v0-slice.  It is built in closed
form from the model's simplicial cones (`simplicial_pieces`).  On a
simplicial cone with generators u_1, ..., u_n the substitution
y = sum mu_i u_i / <v0, u_i> maps the slice to the cone over the part of the
face {mu >= 0, sum mu_i = 1} where sum mu_i k_i >= t, with knots
k_i = <v1, u_i> / <v0, u_i>.  So the cone contributes its volume weight
|det U| / prod <v0, u_i> (Martelli-Sparks-Yau, hep-th/0503183) times the
share of that face, the tail of the uniform measure's B-spline: the divided
difference of x -> (x - t)_+^(n-1) at the knots (Curry-Schoenberg;
Brion-Vergne).  Between consecutive knots this is a polynomial of degree < n
in t, and repeated knots take confluent divided differences, so every piece
is exact.  A hypersurface contributes one simplex, the orthant left after
the reduction variable, weighted by that variable's exponent.  The same
pieces give vol(v1) = sum of weight / prod(knots), and the support starts at
c1 = min <u, v1> / <u, v0> over the model's `reeb_generators`; the discrete
cross-check counts graded colengths in the model's `lattice_region`.  So
nothing here asks which kind of model it holds.

Everything downstream is derived from the profile:

* the tail transform Theta(x) = n * integral_x^inf vol(R^(t)) x^n / t^(n+1) dt,
  which equals the volume of the filtered section ring at level x;
* the volume identity vol(v1) = degH / c1^n - n * integral_{c1}^inf
  vol(R^(t)) / t^(n+1) dt;
* the two-parameter interpolation Phi(lambda, s) between the graded volume
  (s = 0) and the rescaled filtration volume (s = 1), convex in s (C. Li,
  arXiv:1511.08164).  On monomial valuations it is the volume of
  (1 - s) v0 + s lambda v1, so the same pieces give it in closed form,
  Phi(lambda, s) = sum_s w_s / prod_i (1 - s + lambda s k_si)
  (Martelli-Sparks-Yau, hep-th/0503183; by Hermite-Genocchi this is the
  transform of the B-spline profile).  `phi_surface` evaluates that sum;
  `interpolation_volume` integrates the profile instead and is kept as the
  independent witness the checks compare it with;
* four independent expressions for the derivative of Phi at s = 0, whose
  mutual agreement certifies the calculus;
* the stability gap A(v1) - delta / degH * integral_0^inf Theta, nonnegative
  on semistable models and zero at the canonical valuation.

Every integral is a closed form in exact rational arithmetic: on a piece of
degree < n the kernels t^(-n-1) and lambda s / (1 - s + lambda s t)^(n+1)
integrate to Laurent polynomials with no logarithmic term.
"""

from __future__ import annotations

import math
from functools import cached_property
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    BoundViolated,
    IntegralDivergence,
    ModelError,
    NotInReebCone,
    PreconditionViolated,
)
from .exactgeom import RVector, rat
from .singularities import PolarizedConeData
from .valuation import (
    ValuationReport,
    integer_pairings,
    lattice_count_oracle,
    _count_box,
    _scaled_int_vector,
    _strict_upper,
)


# -- piecewise polynomial helpers ---------------------------------------------


def _poly_eval(coeffs: Sequence, t):
    result = 0 * t
    for c in reversed(coeffs):
        result = result * t + c
    return result


def _poly_integral(coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    total = Fraction(0)
    for j, c in enumerate(coeffs):
        total += c * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1)
    return total


def _poly_tail_kernel(
    coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction, n: int
) -> Fraction:
    """integral_lo^hi poly(t) t^(-n-1) dt; requires deg(poly) < n (no log terms)."""
    total = Fraction(0)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        if j == n:
            raise IntegralDivergence("degree-n term would produce a logarithm")
        power = j - n
        total += c * (hi**power - lo**power) / power
    return total


def _poly_compose_affine(
    coeffs: Sequence[Fraction], b0: Fraction, b1: Fraction
) -> list[Fraction]:
    """Coefficients of u -> poly(b0 + b1 u), of the same degree."""
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        new = [o * b0 for o in out] + [Fraction(0)]
        for k, o in enumerate(out):
            new[k + 1] += o * b1
        new[0] += c
        out = new
    return out


@dataclass(frozen=True)
class PiecewisePoly:
    """Polynomial pieces on consecutive intervals of a rational breakpoint grid."""

    breakpoints: tuple[Fraction, ...]
    pieces: tuple[tuple[Fraction, ...], ...]  # coeffs low -> high per interval

    def __post_init__(self):
        if len(self.pieces) != max(0, len(self.breakpoints) - 1):
            raise ValueError("need one piece per breakpoint interval")
        if any(b >= c for b, c in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")


# -- the profile ---------------------------------------------------------------


@dataclass
class VolumeProfile:
    """t -> vol(R^(t)) with its support bounds, the filtration volume and
    the (weight, knots) pairs of the simplicial cones it is summed from."""

    n: int
    degH: Fraction
    c1: Fraction
    c2: Fraction
    vol_v1: Fraction
    pieces: PiecewisePoly
    simplices: tuple[tuple[Fraction, tuple[Fraction, ...]], ...]  # (weight, knots)
    v0_weights: RVector | None = None
    v1_weights: RVector | None = None
    label: str = ""

    def __post_init__(self):
        if self.c1 <= 0 or self.c2 < self.c1:
            raise ModelError("support bounds must satisfy 0 < c1 <= c2")
        self._validate_shape()

    def _validate_shape(self):
        """Probe that the pieces are nonincreasing and within [0, degH]."""
        bps = self.pieces.breakpoints
        probes: list[Fraction] = []
        for lo, hi in zip(bps, bps[1:]):
            probes += [lo, lo + (hi - lo) / 2, hi]
        last = self.degH
        for t in probes:
            value = self.vol_r_exact(t)
            if value < 0 or value > self.degH:
                raise ModelError(f"profile value {value} at t={t} outside [0, degH]")
            if value > last:
                raise ModelError(f"profile increases at t={t}")
            last = value

    @cached_property
    def regions(self) -> list[tuple[Fraction, Fraction, tuple[Fraction, ...]]]:
        """[0, c2] cut into regions: constant degH up to the first
        breakpoint, then the polynomial pieces."""
        bps = self.pieces.breakpoints
        regs = [(Fraction(0), bps[0], (self.degH,))] if bps[0] > 0 else []
        return regs + [
            (lo, hi, tuple(coeffs))
            for (lo, hi), coeffs in zip(zip(bps, bps[1:]), self.pieces.pieces)
        ]

    @cached_property
    def _exact_pieces(self) -> tuple[tuple[Fraction, ...], ...]:
        """degH, the polynomial pieces and 0, indexed by `_piece_index`."""
        return ((self.degH,),) + self.pieces.pieces + ((Fraction(0),),)

    @cached_property
    def _float_pieces(self) -> tuple[tuple[float, ...], ...]:
        return tuple(tuple(map(float, coeffs)) for coeffs in self._exact_pieces)

    @cached_property
    def _breakpoint_ratios(self) -> tuple[tuple[int, int], ...]:
        return tuple((b.numerator, b.denominator) for b in self.pieces.breakpoints)

    @cached_property
    def _section_integral(self) -> Fraction:
        return theta_integral(self, Fraction(0))

    @cached_property
    def _kernel_tails(self) -> tuple[Fraction, ...]:
        """Per region, integral of vol_r(t) t^(-n-1) over the regions after
        it: each region but the first integrated once, summed from c2 down."""
        tails = [Fraction(0)]
        for lo, hi, coeffs in reversed(self.regions[1:]):
            tails.append(tails[-1] + _poly_tail_kernel(coeffs, lo, hi, self.n))
        return tuple(reversed(tails))

    def _piece_index(self, t) -> int:
        """The index of t's piece in `_exact_pieces`: how many breakpoints lie
        strictly below t, except that t = c2 above the first breakpoint
        counts all of them.  Compared exactly at t = a / b."""
        a, b = t.as_integer_ratio()
        bps = self._breakpoint_ratios
        i = 0
        while i < len(bps) and bps[i][0] * b < a * bps[i][1]:
            i += 1
        if 0 < i == len(bps) - 1 and bps[i][0] * b == a * bps[i][1]:
            return len(bps)
        return i

    def vol_r(self, t) -> float:
        """Profile value at t as a float: the region is chosen exactly at t's
        binary value, then the piece is evaluated by float Horner steps."""
        t = float(t)
        return _poly_eval(self._float_pieces[self._piece_index(t)], t)

    def vol_r_exact(self, t) -> Fraction:
        """Profile value at a rational t, exactly."""
        return _poly_eval(self._exact_pieces[self._piece_index(t)], t)


# -- building profiles from models ---------------------------------------------


def _bspline_tail(knots: Sequence[Fraction], hi: Fraction, n: int) -> list[Fraction]:
    """Divided difference of x -> (x - t)_+^(n-1) at the knots, in powers of t.

    Valid for t in an interval (lo, hi) that contains no knot: a knot k >= hi
    has k > t and contributes (k - t)^(n-1), a knot k <= lo contributes 0.
    Where a run of sorted knots is equal the difference quotient is replaced
    by the Taylor coefficient, the j-th x-derivative over j!, which is
    C(n-1, j) (k - t)^(n-1-j) at an active knot.
    """
    ks = sorted(knots)

    def taylor(k: Fraction, j: int) -> list[Fraction]:
        coeffs = [Fraction(0)] * n
        if k >= hi:
            m = n - 1 - j
            for i in range(m + 1):
                coeffs[i] = math.comb(n - 1, j) * math.comb(m, i) * (-1) ** i * k ** (m - i)
        return coeffs

    column = [taylor(k, 0) for k in ks]
    for j in range(1, n):
        column = [
            taylor(ks[i], j)
            if ks[i + j] == ks[i]
            else [(b - a) / (ks[i + j] - ks[i]) for a, b in zip(column[i], column[i + 1])]
            for i in range(n - j)
        ]
    return column[0]


def _support_start(model, v0: RVector, v1: RVector) -> Fraction:
    """c1 = min <u, v1> / <u, v0> over the model's Reeb generators u: the
    least v1-weight of a degree-1 element of the v0-graded ring."""
    gens = model.reeb_generators
    (p0, d0), (p1, d1) = (integer_pairings(gens, v)[1:] for v in (v0, v1))
    for v, pairings in ((v0, p0), (v1, p1)):
        if min(pairings) <= 0:
            raise NotInReebCone(f"{tuple(v)} is not in the Reeb cone")
    return min(Fraction(a * d0, b * d1) for a, b in zip(p1, p0))


def profile_from_model(model, v0_weights: Sequence, v1_weights: Sequence) -> VolumeProfile:
    """Exact piecewise-polynomial profile of the v1-filtration on the v0-graded ring.

    vol(R^(t)) = sum_s w_s [k_s1, ..., k_sn] (x - t)_+^(n-1) over the
    model's (weight, knots) pairs s; the breakpoints are the distinct knots,
    degH = vol(R^(0)) is the sum of the weights, the support starts at c1
    (`_support_start`) and vol(v1) = sum_s w_s / prod_i k_si, the volume of
    each simplicial cone at v1.
    """
    v0 = RVector(v0_weights)
    v1 = RVector(v1_weights)
    n = model.n
    simplices = model.simplicial_pieces(v0, v1)
    bps = sorted({k for _, knots in simplices for k in knots})
    pieces = []
    for hi in bps[1:]:
        coeffs = [Fraction(0)] * n
        for weight, knots in simplices:
            for j, c in enumerate(_bspline_tail(knots, hi, n)):
                coeffs[j] += weight * c
        pieces.append(tuple(coeffs))
    return VolumeProfile(
        n=n,
        degH=sum(weight for weight, _ in simplices),
        c1=_support_start(model, v0, v1),
        c2=bps[-1],
        vol_v1=sum(weight / math.prod(knots) for weight, knots in simplices),
        pieces=PiecewisePoly(breakpoints=tuple(bps), pieces=tuple(pieces)),
        simplices=tuple((weight, tuple(knots)) for weight, knots in simplices),
        v0_weights=v0,
        v1_weights=v1,
        label=model.label,
    )


def profile_to_dict(p: VolumeProfile) -> dict:
    """JSON-ready description: breakpoints and polynomial pieces as strings."""
    return {
        "n": p.n,
        "degH": str(p.degH),
        "c1": str(p.c1),
        "c2": str(p.c2),
        "vol_v1": str(p.vol_v1),
        "breakpoints": [str(b) for b in p.pieces.breakpoints],
        "pieces": [[str(c) for c in piece] for piece in p.pieces.pieces],
    }


# -- tail transform and integrals ----------------------------------------------


def _tail_kernel_integral(p: VolumeProfile, x: Fraction) -> Fraction:
    """integral_x^inf vol_r(t) t^(-n-1) dt, exact; x > 0: the part of x's
    region above x plus the cached integral beyond that region."""
    for (lo, hi, coeffs), beyond in zip(p.regions, p._kernel_tails):
        if x < hi:
            return _poly_tail_kernel(coeffs, max(lo, x), hi, p.n) + beyond
    return Fraction(0)


def tail_volume(p: VolumeProfile, x) -> float:
    """Theta(x) = n x^n * integral_x^inf vol_r(t) / t^(n+1) dt, as a float."""
    if x <= 0:
        raise ValueError("tail transform needs x > 0")
    return float(tail_volume_exact(p, x))


def tail_volume_exact(p: VolumeProfile, x) -> Fraction:
    """Theta(x) exactly; a float x counts as its exact binary value."""
    x = Fraction(x)
    if x >= p.c2:
        return Fraction(0)
    return p.n * x**p.n * _tail_kernel_integral(p, x)


def theta_integral(p: VolumeProfile, lo) -> Fraction:
    """integral_lo^inf Theta(t) dt in closed form, region by region."""
    lo = rat(lo)
    n = p.n
    total = Fraction(0)
    for (u, v, coeffs), g_v in zip(p.regions, p._kernel_tails):
        a = max(u, lo)
        if a >= v:
            continue
        # Theta(t) = n t^n G(t) on [a, v], with G(t) = G(v) + integral_t^v
        # vol_r s^(-n-1) ds = G(v) + sum_j c_j (v^(j-n) - t^(j-n)) / (j-n)
        # and G(v) the cached integral beyond the region
        theta_poly = [Fraction(0)] * (n + 1)
        const = g_v
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            power = j - n
            const += c * v**power / power
            theta_poly[j] -= n * c / power
        theta_poly[n] += n * const
        total += _poly_integral(theta_poly, a, v)
    return total


def profile_integral(p: VolumeProfile, lo) -> Fraction:
    """integral_lo^inf vol_r(t) dt in closed form."""
    lo = rat(lo)
    total = Fraction(0)
    for u, v, coeffs in p.regions:
        a = max(u, lo)
        if a >= v:
            continue
        total += _poly_integral(coeffs, a, v)
    return total


def section_integral(p: VolumeProfile) -> Fraction:
    """integral_0^inf vol(F S^(t)) dt = integral_0^inf Theta dt, exact;
    computed once per profile."""
    return p._section_integral


def volume_from_profile(p: VolumeProfile) -> Fraction:
    """vol(v1) = degH / c1^n - n integral_{c1}^inf vol_r(t) / t^(n+1) dt."""
    return p.degH / p.c1**p.n - p.n * _tail_kernel_integral(p, p.c1)


def section_volume(p: VolumeProfile, x) -> float:
    """vol(F S^(x)): Theta(x) for x > 0 and the full degree degH for x <= 0."""
    if x <= 0:
        return float(p.degH)
    return tail_volume(p, x)


def liu_bound_check(p: VolumeProfile, xs: Sequence) -> bool:
    """Pointwise bound vol(F S^(x)) + vol(v1) x^n >= degH, equality on (0, c1].

    Exact at rational sample points (a float counts as its exact binary value).
    """
    for x in map(Fraction, xs):
        if not 0 < x <= p.c2:
            raise PreconditionViolated("sample points must lie in (0, c2]")
        lhs = tail_volume_exact(p, x) + p.vol_v1 * x**p.n
        if lhs < p.degH or (x <= p.c1 and lhs != p.degH):
            return False
    return True


# -- the interpolation function Phi ---------------------------------------------


def interpolation_volume(p: VolumeProfile, lam, s) -> Fraction:
    """Phi(lambda, s): volume along the interpolation from v0 to lambda*v1,
    integrated from the profile.

    Phi(lambda, 0) = degH exactly; Phi(lambda, 1) = lambda^-n vol(v1);
    continuous and convex in s on [0, 1].  lambda and s are rationals (a
    float counts as its exact binary value) and the result is exact.  Kept
    as the profile-path witness: the report checks and the self-test compare
    it with the closed form of `interpolation_closed_form`, which never
    looks at the profile pieces.
    """
    lam, s = Fraction(lam), Fraction(s)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if not 0 <= s <= 1:
        raise ValueError("s must lie in [0, 1]")
    if s == 0:
        return p.degH
    shift, slope = 1 - s, lam * s
    # Phi = degH / u(c1)^n - n * integral_{c1}^inf vol_r(t) slope / u^(n+1) dt
    # with u = shift + slope * t; in u each piece is a polynomial of degree < n
    # and the integral is the tail kernel between the images of its ends
    tail = Fraction(0)
    for lo, hi, coeffs in p.regions:
        a = max(lo, p.c1)
        if a >= hi:
            continue
        in_u = _poly_compose_affine(coeffs, -shift / slope, 1 / slope)
        tail += _poly_tail_kernel(in_u, shift + slope * a, shift + slope * hi, p.n)
    return p.degH / (shift + slope * p.c1) ** p.n - p.n * tail


def interpolation_closed_form(p: VolumeProfile, lam, s) -> Fraction:
    """Phi(lambda, s) = sum_s w_s / prod_i (1 - s + lambda s k_si), exact.

    On monomial valuations Phi(lambda, s) is the volume of (1 - s) v0 +
    s lambda v1 (C. Li, arXiv:1511.08164), and each simplicial cone of
    weight w and knots k contributes its Martelli-Sparks-Yau term
    (hep-th/0503183).  lambda and s are rationals (a float counts as its
    exact binary value).
    """
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise ValueError("s must lie in [0, 1]")
    return Fraction(*_phi_ratio(p, Fraction(lam), s.numerator, s.denominator))


def _phi_ratio(p: VolumeProfile, lam: Fraction, j: int, m: int) -> tuple[int, int]:
    """Integers (num, den) with num / den = Phi(lambda, j / m), for 0 <= j <= m.

    With lambda = a / b and a knot k = u / q, the factor 1 - s + lambda s k
    is ((m - j) b q + j a u) / (m b q), so the sum needs no gcd.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    a, b = lam.numerator, lam.denominator
    num, den = 0, 1
    for weight, knots in p.simplices:
        top, bottom = weight.numerator, weight.denominator
        for k in knots:
            q = b * k.denominator
            top *= m * q
            bottom *= (m - j) * q + j * a * k.numerator
        num, den = num * bottom + top * den, den * bottom
    return num, den


@dataclass(frozen=True)
class DerivativeForms:
    """The four independent expressions for d/ds Phi(lambda, s) at s = 0."""

    via_profile_integral: Fraction
    via_tail_integral: Fraction
    via_tail_and_volume: Fraction
    via_section_integral: Fraction

    def spread(self) -> Fraction:
        vals = (
            self.via_profile_integral,
            self.via_tail_integral,
            self.via_tail_and_volume,
            self.via_section_integral,
        )
        scale = max(1, max(abs(v) for v in vals))
        return (max(vals) - min(vals)) / scale


def interpolation_derivative_forms(p: VolumeProfile, lam) -> DerivativeForms:
    """Evaluate the four derivative formulas from independent exact integrals."""
    lam = Fraction(lam)
    n = p.n
    degh = p.degH
    c1 = p.c1
    i_profile = profile_integral(p, c1)
    i_theta = theta_integral(p, c1)
    i_section = section_integral(p)
    theta_c1 = tail_volume_exact(p, c1)
    front = n * lam * degh
    form_a = front * (1 / lam - c1 - i_profile / degh)
    form_b1 = front * (
        1 / lam - c1 - (n + 1) / (n * degh) * i_theta - c1 * theta_c1 / (n * degh)
    )
    form_b = front * (
        1 / lam
        - c1 * (n + 1) / n
        - (n + 1) / (n * degh) * i_theta
        + c1 ** (n + 1) * p.vol_v1 / (n * degh)
    )
    form_c = front * (1 / lam - (n + 1) / (n * degh) * i_section)
    return DerivativeForms(
        via_profile_integral=form_a,
        via_tail_integral=form_b1,
        via_tail_and_volume=form_b,
        via_section_integral=form_c,
    )


@dataclass(frozen=True)
class PhiSurface:
    lambdas: tuple[float, ...]
    s_grid: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]


def phi_surface(
    p: VolumeProfile, lambdas: Sequence, s_count: int = 21
) -> PhiSurface:
    """Phi(lambda, j / (s_count - 1)) for each lambda and j.

    Each value is the exact Phi(lambda, s) = sum_s w_s / prod_i
    (1 - s + lambda s k_si) over the profile's simplices (C. Li,
    arXiv:1511.08164; Martelli-Sparks-Yau, hep-th/0503183), as in
    `interpolation_closed_form`, rounded to a float once: Python's
    int / int is correctly rounded.
    """
    m = s_count - 1
    s_grid = tuple(j / m for j in range(s_count))
    values = tuple(
        tuple(num / den for num, den in (_phi_ratio(p, lam, j, m) for j in range(s_count)))
        for lam in map(Fraction, lambdas)
    )
    return PhiSurface(lambdas=tuple(float(x) for x in lambdas), s_grid=s_grid, values=values)


# -- stability gap ----------------------------------------------------------------


def stability_gap(p: VolumeProfile, logdisc_v: float, delta, degL) -> float:
    """A(v) - delta / (L^n) * integral_0^inf vol(F S^(t)) dt.

    Nonnegative whenever the compactified cone is semistable; zero at the
    canonical valuation.
    """
    if not math.isfinite(float(logdisc_v)):
        raise ValueError("gap needs a finite log discrepancy")
    if float(delta) <= 0 or float(degL) <= 0:
        raise ValueError("delta and L^n must be positive")
    integral = float(section_integral(p))
    return float(logdisc_v) - float(delta) / float(degL) * integral


def nvol_lower_bound_check(
    report: ValuationReport, cone: PolarizedConeData, tol: float = 1e-9
) -> bool:
    """nvol(v) >= r^n degH, the sharp semistable lower bound."""
    bound = cone.r**cone.n * cone.degH
    if isinstance(report.nvol, Fraction):
        ok = report.nvol >= bound or float(bound - report.nvol) <= tol
    else:
        ok = float(report.nvol) >= float(bound) - tol
    if not ok:
        raise BoundViolated(f"nvol {report.nvol} below bound {bound}")
    return True


# -- discrete cross-check -----------------------------------------------------------


def profile_dimension_check(
    model, v0_weights: Sequence, v1_weights: Sequence, thresholds: Sequence[int]
) -> bool:
    """Graded-piece dimension sums equal the total colength at each threshold.

    Left side: sum over degrees k of dim(R_k) - dim(F^m R_k), enumerated per
    graded slice; right side: the lattice-counting oracle for v1 at m.  Both
    are exact integers and must agree.
    """
    v0 = RVector(v0_weights)
    v1 = RVector(v1_weights)
    for m in thresholds:
        lhs = _graded_colength(model, v0, v1, Fraction(m))
        rhs = lattice_count_oracle(model, v1, Fraction(m))
        if lhs != rhs:
            return False
    return True


def _graded_colength(model, v0: RVector, v1: RVector, m: Fraction) -> int:
    grade_vec, grade_scale = _scaled_int_vector(v0)
    weight_vec, weight_scale = _scaled_int_vector(v1)
    top = _strict_upper(weight_scale * m)
    ratios_min = _support_start(model, v0, v1)
    # the slices lie inside the region of v1-weight below m
    bounds, rows = model.lattice_region(v1, m)
    total = 0
    for k in range(int(m / ratios_min) + 2):
        # slice <v0, alpha> = k, weight < m
        grade = [(grade_vec, -k * grade_scale), ([-g for g in grade_vec], k * grade_scale)]
        total += _count_box(bounds, rows + grade, weight_vec, top)
    return total
