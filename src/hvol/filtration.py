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
is exact.  A hypersurface splits the numerator of its Hilbert series into a
piece on n knots and one on all n + 1 (Leibniz), a divided difference of one
order more whose terms of Phi and vol(v1) change sign.  The same pieces give
vol(v1) = sum of weight / prod(knots), and the support starts at the least
knot c1.  So nothing here asks which kind of model it holds.  On a
hypersurface, a v1 that gives a single monomial the least weight is no
valuation of the ring, since its initial form of f is that monomial; such a
v1 is accepted, and its profile is that of the monomial filtration of
C[z] / (in_{v0} f) by v1-weight, not of a valuation.

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
integrate to Laurent polynomials with no logarithmic term.  The arithmetic
runs on Python integers: a rational is an integer pair (num, den) with
den > 0, not reduced, and a polynomial is a list of integer numerators over
one denominator.  `VolumeProfile` holds its regions and simplices in that
form, built once by `profile_from_model` from the integers it works in.  The
kernels read them as they are and return integer pairs; a quantity is their
sum over a common denominator, and each public function builds what it
returns as one `Fraction` at the end.

Each profile memoizes the integrals that several quantities share, and no
memo outlives its profile:

* per region, G(v) = integral_v^inf vol_r(t) t^(-n-1) dt at its upper end
  v, as a reduced integer pair, each region integrated once
  (`_kernel_tails`);
* per point x > 0, G(x) as an integer pair, keyed by x in lowest terms
  (`_tail_integral_memo`), so that Theta(c1) = n c1^n G(c1), the volume
  identity and the Liu bound at c1 integrate from c1 once;
* the section integral, integral_0^inf Theta, as one `Fraction`
  (`section_integral`).

A memo only hands a quantity to the places that compute that same quantity;
no side of a check is derived from the other side.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import IntegralDivergence, ModelError, PreconditionViolated
from .exactgeom import RVector, _reduced, rat, to_float


# -- polynomial kernels on integers -------------------------------------------


def _horner(nums: Sequence[int], a: int, b: int) -> int:
    """sum_j nums[j] a^j b^(d-j) with d = len(nums) - 1: b^d poly(a / b)."""
    acc, scale = 0, 1
    for c in reversed(nums):
        acc = acc * a + c * scale
        scale *= b
    return acc


def _poly_eval(nums: Sequence[int], den: int, t: tuple[int, int]) -> Fraction:
    """poly(t) for the polynomial nums / den at t = (a, b)."""
    a, b = t
    return Fraction(_horner(nums, a, b), den * b ** (len(nums) - 1))


def _poly_integral(
    nums: Sequence[int], den: int, lo: tuple[int, int], hi: tuple[int, int]
) -> tuple[int, int]:
    """integral_lo^hi poly(t) dt for the polynomial nums / den, as integers
    (num, den): the antiderivative, over den * m! with m = len(nums), at both
    ends."""
    m = len(nums)
    scale = math.factorial(m)
    anti = [0] + [c * (scale // (j + 1)) for j, c in enumerate(nums)]
    (a, b), (c, d) = lo, hi
    top = _horner(anti, c, d) * b**m - _horner(anti, a, b) * d**m
    return top, den * scale * (b * d) ** m


def _poly_tail_kernel(
    nums: Sequence[int], den: int, lo: tuple[int, int], hi: tuple[int, int], n: int
) -> tuple[int, int]:
    """integral_lo^hi poly(t) t^(-n-1) dt for 0 < lo <= hi, as integers
    (num, den); requires deg(poly) < n (no log terms).  With u = 1 / t it is
    the integral of sum_j c_j u^(n-1-j) from 1 / hi to 1 / lo."""
    if any(nums[n:]):
        raise IntegralDivergence("the tail kernel needs deg(poly) < n: degree n gives a logarithm")
    padded = list(nums[:n]) + [0] * (n - len(nums))
    return _poly_integral(padded[::-1], den, hi[::-1], lo[::-1])


def _poly_compose_affine(
    nums: Sequence[int], den: int, b0: int, b1: int, e: int
) -> tuple[list[int], int]:
    """u -> poly((b0 + b1 u) / e) for the polynomial nums / den, of the same
    degree d: its integer numerators over den * e^d."""
    out = [nums[-1]]
    scale = 1
    for c in reversed(nums[:-1]):
        scale *= e
        new = [o * b0 for o in out] + [0]
        for k, o in enumerate(out):
            new[k + 1] += o * b1
        new[0] += c * scale
        out = new
    return out, den * scale


def _below(x: tuple[int, int], y: tuple[int, int]) -> bool:
    """x < y for rationals (num, den) with positive denominators."""
    return x[0] * y[1] < y[0] * x[1]


def _add(terms: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The sum of rationals (num, den) over a running common denominator,
    not reduced."""
    num, den = 0, 1
    for a, b in terms:
        num, den = num * b + a * den, den * b
    return num, den


def _sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """The sum of rationals (num, den), built as one Fraction."""
    return Fraction(*_add(terms))


# -- the profile ---------------------------------------------------------------


class VolumeProfile:
    """t -> vol(R^(t)) with its support bounds and the filtration volume, on
    integers.

    `regions` holds (lo, hi, nums, den) per region of [0, c2], in increasing
    order from the constant degH region: lo and hi are rationals (num, den)
    and the profile there is the polynomial nums / den, coefficients from low
    to high degree.  `simplices` holds (weight num, weight den, knots) per
    nonzero piece the profile is summed from, n or n + 1 knot pairs (num, den).
    """

    def __init__(
        self,
        n: int,
        degH: Fraction,
        c1: Fraction,
        c2: Fraction,
        vol_v1: Fraction,
        regions: tuple[tuple[tuple[int, int], tuple[int, int], tuple[int, ...], int], ...],
        simplices: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...],
    ):
        self.n = n
        self.degH = degH
        self.c1 = c1
        self.c2 = c2
        self.vol_v1 = vol_v1
        self.regions = regions
        self.simplices = simplices
        # x -> integral_x^inf vol_r(t) t^(-n-1) dt, both as integer pairs,
        # x reduced; filled by `_tail_kernel_integral`
        self._tail_integral_memo: dict[tuple[int, int], tuple[int, int]] = {}
        if c1.numerator <= 0 or c2.numerator * c1.denominator < c1.numerator * c2.denominator:
            raise ModelError("support bounds must satisfy 0 < c1 <= c2")
        self._validate_shape()

    def __repr__(self) -> str:
        return (
            f"VolumeProfile(n={self.n!r}, degH={self.degH!r}, c1={self.c1!r}, c2={self.c2!r}, "
            f"vol_v1={self.vol_v1!r}, regions={self.regions!r}, simplices={self.simplices!r})"
        )

    def _validate_shape(self):
        """Check that the regions tile [0, c2] in increasing order, and probe
        that the profile is nonincreasing within [0, degH]: each region's
        polynomial at its ends and midpoint, by integer Horner steps."""
        h_num, h_den = self.degH.numerator, self.degH.denominator
        last, end = (h_num, h_den), (0, 1)
        for lo, hi, nums, den in self.regions:
            (a, b), (c, d) = lo, hi
            if a * end[1] != end[0] * b or not _below(lo, hi):
                raise ModelError(
                    f"region [{Fraction(a, b)}, {Fraction(c, d)}] after {Fraction(*end)}: "
                    "the regions must tile [0, c2] in increasing order"
                )
            for t in (lo, (a * d + c * b, 2 * b * d), hi):
                value = _horner(nums, *t), den * t[1] ** (len(nums) - 1)
                if value[0] < 0 or value[0] * h_den > h_num * value[1]:
                    raise ModelError(
                        f"profile value {Fraction(*value)} at t={Fraction(*t)} outside [0, degH]"
                    )
                if _below(last, value):
                    raise ModelError(f"profile increases at t={Fraction(*t)}")
                last = value
            end = hi
        if end[0] * self.c2.denominator != self.c2.numerator * end[1]:
            raise ModelError(f"the regions end at {Fraction(*end)}, not at c2 = {self.c2}")

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        """The upper ends of the regions: the distinct knots, the last one c2."""
        return tuple(Fraction(*hi) for _, hi, _, _ in self.regions)

    @cached_property
    def _section_integral(self) -> Fraction:
        return Fraction(*_theta_integral(self, (0, 1)))

    @cached_property
    def _kernel_tails(self) -> tuple[tuple[int, int], ...]:
        """Per region, integral of vol_r(t) t^(-n-1) over the regions after
        it, as a reduced integer pair: each region but the first integrated
        once, summed from c2 down."""
        tails = [(0, 1)]
        for lo, hi, nums, den in reversed(self.regions[1:]):
            tails.append(_reduced(_add([tails[-1], _poly_tail_kernel(nums, den, lo, hi, self.n)])))
        return tuple(reversed(tails))

    def _piece_at(self, a: int, b: int) -> tuple[Sequence[int], int]:
        """The polynomial (nums, den) at t = a / b (b > 0): that of the first
        region with t <= hi, except that t = c2 after the first region, like
        t > c2, reads the 0 beyond c2."""
        last = len(self.regions) - 1
        for i, (_, (c, d), nums, den) in enumerate(self.regions):
            if a * d < c * b or (a * d == c * b and not 0 < i == last):
                return nums, den
        return (0,), 1

    def vol_r(self, t) -> float:
        """Profile value at t as a float: the region is chosen exactly at t's
        binary value, then its polynomial, each coefficient rounded once, is
        evaluated by float Horner steps."""
        t = float(t)
        nums, den = self._piece_at(*t.as_integer_ratio())
        result = 0 * t
        for c in reversed(nums):
            result = result * t + to_float(c, "a profile coefficient", den)
        return result

    def vol_r_exact(self, t) -> Fraction:
        """Profile value at a rational t (a float counts as its exact binary
        value), exactly."""
        a, b = t.as_integer_ratio()
        return _poly_eval(*self._piece_at(a, b), (a, b))


# -- building profiles from models ---------------------------------------------


def _bspline_tail(ks: Sequence[int], hi: int, n: int) -> tuple[list[int], int]:
    """Divided difference of x -> (x - t)_+^(n-1) at the sorted integer
    knots ks, of order len(ks) - 1, in powers of t: integer numerators over
    one denominator.

    Valid for t in an interval (lo, hi) that contains no knot: a knot k >= hi
    has k > t and contributes (k - t)^(n-1), a knot k <= lo contributes 0.
    Where a run of sorted knots is equal the difference quotient is replaced
    by the Taylor coefficient, the j-th x-derivative over j!, which is
    C(n-1, j) (k - t)^(n-1-j) at an active knot.  Every table entry is a
    list of numerators over one denominator, a product of knot gaps.
    """

    def taylor(k: int, j: int) -> tuple[list[int], int]:
        coeffs = [0] * n
        if k >= hi:
            m = n - 1 - j
            outer = math.comb(n - 1, j)
            for i in range(m + 1):
                coeffs[i] = (-1) ** i * outer * math.comb(m, i) * k ** (m - i)
        return coeffs, 1

    if ks[0] >= hi:  # (x - t)^(n-1) at every knot: its leading coefficient, or 0
        return [int(len(ks) == n)] + [0] * (n - 1), 1
    column = [taylor(k, 0) for k in ks]
    for j in range(1, len(ks)):
        new = []
        for i in range(len(ks) - j):
            gap = ks[i + j] - ks[i]
            if gap == 0:
                new.append(taylor(ks[i], j))
                continue
            (a, da), (b, db) = column[i], column[i + 1]
            new.append(([y * da - x * db for x, y in zip(a, b)], da * db * gap))
        column = new
    return column[0]


def profile_from_model(model, v0: Sequence, v1: Sequence) -> VolumeProfile:
    """Exact piecewise-polynomial profile of the v1-filtration on the v0-graded ring.

    vol(R^(t)) = sum_s w_s [k_s1, ..., k_sm] (x - t)_+^(n-1) over the
    model's pieces s on m = n or n + 1 knots; the breakpoints are the
    distinct knots, degH = vol(R^(0)) sums the weights on n knots, the
    support starts at the least knot c1 and vol(v1) = sum_s (-1)^(m-n) w_s /
    prod_i k_si.  Pieces of weight 0 add nothing but breakpoints, and
    neighbouring regions with equal polynomials, which a knot that the
    pieces cancel leaves behind, are merged.

    All knots are cleared to one denominator q, k = x / q.  An order m-1
    divided difference at the integers x, in powers of T = q t, is q^(n-m)
    times the one at the knots in powers of t, so the coefficient of t^j is
    q^(m-n+j) times that of T^j.
    """
    n = model.n
    pieces = model.simplicial_pieces(RVector(v0), RVector(v1))
    q = math.lcm(*(d for *_, knots in pieces for _, d in knots))
    xs = sorted({u * (q // d) for *_, knots in pieces for u, d in knots})
    simplices = tuple(piece for piece in pieces if piece[0])
    cleared = [
        (w_num * q ** (len(knots) - n), w_den, sorted(u * (q // d) for u, d in knots))
        for w_num, w_den, knots in simplices
    ]
    powers = [q**j for j in range(n)]
    degh = _sum((w_num, w_den) for w_num, w_den, ks in cleared if len(ks) == n)
    regions = [((0, 1), (xs[0], q), (degh.numerator,), degh.denominator)]
    for lo, hi in zip(xs, xs[1:]):
        nums, den = [0] * n, 1
        for w_num, w_den, ks in cleared:
            if ks[-1] < hi:  # every knot at or below the interval
                continue
            tail, tail_den = _bspline_tail(ks, hi, n)
            w_den *= tail_den
            nums = [s * w_den + w_num * c * den for s, c in zip(nums, tail)]
            den *= w_den
        nums = [c * p for c, p in zip(nums, powers)]
        g = math.gcd(den, *nums)
        nums, den = tuple(c // g for c in nums), den // g
        start, _, last, last_den = regions[-1]
        if den == last_den and nums[: len(last)] == last and not any(nums[len(last) :]):
            regions[-1] = (start, (hi, q), last, last_den)
        else:
            regions.append(((lo, q), (hi, q), nums, den))
    return VolumeProfile(
        n=n,
        degH=degh,
        c1=Fraction(xs[0], q),
        c2=Fraction(xs[-1], q),
        # weight / prod(knots) = w_num q^m / (w_den prod(x)), q^(m-n) in w_num
        vol_v1=_sum(((-1) ** (len(ks) - n) * w * q**n, d * math.prod(ks)) for w, d, ks in cleared),
        regions=tuple(regions),
        simplices=simplices,
    )


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)) for den > 0, without building the Fraction."""
    num, den = _reduced((num, den))
    return str(num) if den == 1 else f"{num}/{den}"


def profile_to_dict(p: VolumeProfile) -> dict:
    """JSON-ready description: breakpoints and the polynomial pieces after
    the constant degH region, as strings."""
    return {
        "n": p.n,
        "degH": str(p.degH),
        "c1": str(p.c1),
        "c2": str(p.c2),
        "vol_v1": str(p.vol_v1),
        "breakpoints": [_ratio_text(*hi) for _, hi, _, _ in p.regions],
        "pieces": [[_ratio_text(c, den) for c in nums] for _, _, nums, den in p.regions[1:]],
    }


# -- tail transform and integrals ----------------------------------------------


def _later(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """max(x, y) for rationals (num, den) with positive denominators."""
    return y if _below(x, y) else x


def _tail_kernel_integral(p: VolumeProfile, x: tuple[int, int]) -> tuple[int, int]:
    """integral_x^inf vol_r(t) t^(-n-1) dt as integers (num, den), for
    x = (a, b) in lowest terms with a, b > 0: the part of x's region above x
    plus the cached integral beyond that region.  Computed once per x and
    profile."""
    g = p._tail_integral_memo.get(x)
    if g is None:
        g = 0, 1
        for (lo, hi, nums, den), beyond in zip(p.regions, p._kernel_tails):
            if _below(x, hi):
                g = _add([_poly_tail_kernel(nums, den, _later(lo, x), hi, p.n), beyond])
                break
        p._tail_integral_memo[x] = g
    return g


def _theta(p: VolumeProfile, x: tuple[int, int]) -> tuple[int, int]:
    """Theta(x) = n x^n G(x) as integers (num, den), for x = (a, b) in lowest
    terms with a, b > 0."""
    g_num, g_den = _tail_kernel_integral(p, x)
    (a, b), n = x, p.n
    return n * a**n * g_num, b**n * g_den


def tail_volume_exact(p: VolumeProfile, x) -> Fraction:
    """Theta(x) exactly, for x > 0; a float x counts as its exact binary value."""
    a, b = x.as_integer_ratio()
    if a <= 0:
        raise PreconditionViolated(f"Theta(x) needs x > 0, not {x}")
    return Fraction(*_theta(p, (a, b)))


def theta_integral(p: VolumeProfile, lo) -> Fraction:
    """integral_lo^inf Theta(t) dt in closed form, region by region."""
    lo = rat(lo)
    return Fraction(*_theta_integral(p, (lo.numerator, lo.denominator)))


def _theta_integral(p: VolumeProfile, lo: tuple[int, int]) -> tuple[int, int]:
    """integral_lo^inf Theta(t) dt as integers (num, den), for lo >= 0."""
    n = p.n
    scale = math.factorial(n)
    terms = []
    for (u, v, nums, den), (g_num, g_den) in zip(p.regions, p._kernel_tails):
        a = _later(u, lo)
        if not _below(a, v):
            continue
        # Theta(t) = n t^n G(t) on [a, v], with G(t) = G(v) + integral_t^v
        # vol_r s^(-n-1) ds = G(v) + sum_j c_j (t^(j-n) - v^(j-n)) / (n-j)
        # and G(v) the cached integral beyond the region.  Over the
        # denominator D = den(G(v)) den n! v_num^n, with w_j = n! / (n-j) *
        # nums_j, the t^j coefficient is n w_j den(G(v)) v_num^n (j < n) and
        # the t^n one n (num(G(v)) den n! v_num^n - den(G(v)) S), where
        # S = sum_j w_j v_den^(n-j) v_num^j.
        v_num, v_den = v
        w = [scale // (n - j) * c for j, c in enumerate(nums)]
        v_pow = v_num**n
        s = _horner(w + [0] * (n + 1 - len(w)), v_num, v_den)
        theta = [n * wj * g_den * v_pow for wj in w] + [0] * (n - len(w))
        theta.append(n * (g_num * den * scale * v_pow - g_den * s))
        terms.append(_poly_integral(theta, g_den * den * scale * v_pow, a, v))
    return _add(terms)


def profile_integral(p: VolumeProfile, lo) -> Fraction:
    """integral_lo^inf vol_r(t) dt in closed form."""
    lo = rat(lo)
    return Fraction(*_profile_integral(p, (lo.numerator, lo.denominator)))


def _profile_integral(p: VolumeProfile, lo: tuple[int, int]) -> tuple[int, int]:
    """integral_lo^inf vol_r(t) dt as integers (num, den), for lo >= 0."""
    terms = []
    for u, v, nums, den in p.regions:
        a = _later(u, lo)
        if _below(a, v):
            terms.append(_poly_integral(nums, den, a, v))
    return _add(terms)


def section_integral(p: VolumeProfile) -> Fraction:
    """integral_0^inf vol(F S^(t)) dt = integral_0^inf Theta dt, exact;
    computed once per profile."""
    return p._section_integral


def volume_from_profile(p: VolumeProfile) -> Fraction:
    """vol(v1) = degH / c1^n - n integral_{c1}^inf vol_r(t) / t^(n+1) dt."""
    n, h, c1 = p.n, p.degH, p.c1
    g_num, g_den = _tail_kernel_integral(p, (c1.numerator, c1.denominator))
    degh_term = h.numerator * c1.denominator**n, h.denominator * c1.numerator**n
    return _sum([degh_term, (-n * g_num, g_den)])


def liu_bound_check(p: VolumeProfile, xs: Sequence) -> bool:
    """Pointwise bound vol(F S^(x)) + vol(v1) x^n >= degH, equality on (0, c1].

    Exact at rational sample points (a float counts as its exact binary value).
    """
    n = p.n
    h_num, h_den = p.degH.numerator, p.degH.denominator
    v_num, v_den = p.vol_v1.numerator, p.vol_v1.denominator
    c1, c2 = p.c1, p.c2
    for x in xs:
        a, b = x.as_integer_ratio()
        if a <= 0 or a * c2.denominator > c2.numerator * b:
            raise PreconditionViolated("sample points must lie in (0, c2]")
        t_num, t_den = _theta(p, (a, b))
        # lhs = Theta(x) + vol(v1) x^n = top / bottom, compared with degH
        x_pow = b**n
        bottom = t_den * v_den * x_pow
        top = t_num * v_den * x_pow + v_num * a**n * t_den
        lhs, rhs = top * h_den, h_num * bottom
        if lhs < rhs or (a * c1.denominator <= c1.numerator * b and lhs != rhs):
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
    (la, lb), (sa, sb) = lam.as_integer_ratio(), s.as_integer_ratio()
    if la <= 0:
        raise ValueError("lambda must be positive")
    if not 0 <= sa <= sb:
        raise ValueError("s must lie in [0, 1]")
    if sa == 0:
        return p.degH
    n = p.n
    # Phi = degH / u(c1)^n - n * integral_{c1}^inf vol_r(t) slope / u^(n+1) dt
    # with u = shift + slope * t, shift = 1 - s and slope = lambda s; in u each
    # piece is a polynomial of degree < n, through t = (b0 + b1 u) / e, and
    # the integral is the tail kernel between the images of its ends
    b0, b1, e = -(sb - sa) * lb, lb * sb, la * sa

    def u_of(t: tuple[int, int]) -> tuple[int, int]:
        return (sb - sa) * lb * t[1] + la * sa * t[0], lb * sb * t[1]

    c1 = p.c1.as_integer_ratio()
    u, w = u_of(c1)
    h_num, h_den = p.degH.as_integer_ratio()
    terms = [(h_num * w**n, h_den * u**n)]
    for lo, hi, nums, den in p.regions:
        a = _later(lo, c1)
        if _below(a, hi):
            in_u, in_den = _poly_compose_affine(nums, den, b0, b1, e)
            k_num, k_den = _poly_tail_kernel(in_u, in_den, u_of(a), u_of(hi), n)
            terms.append((-n * k_num, k_den))
    return _sum(terms)


def interpolation_closed_form(p: VolumeProfile, lam, s) -> Fraction:
    """Phi(lambda, s) = sum_s w_s (-lambda s)^(m-n) / prod_i (1 - s +
    lambda s k_si) over the pieces s on m knots, exact.

    On monomial valuations Phi(lambda, s) is the volume of (1 - s) v0 +
    s lambda v1 (C. Li, arXiv:1511.08164), and each simplicial cone of
    weight w and knots k contributes its Martelli-Sparks-Yau term
    (hep-th/0503183).  lambda and s are rationals (a float counts as its
    exact binary value).
    """
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise ValueError("s must lie in [0, 1]")
    return Fraction(*_phi_ratio(p, lam.as_integer_ratio(), s.denominator, [s.numerator])[0])


def _phi_ratio(
    p: VolumeProfile, lam: tuple[int, int], m: int, js: Sequence[int]
) -> list[tuple[int, int]]:
    """Integers (num, den) with num / den = Phi(lambda, j / m), for each j in
    js, 0 <= j <= m, and lambda = (a, b) with b > 0.

    With lambda = a / b and a knot k = u / q, the factor 1 - s + lambda s k
    is (m b q + j (a u - b q)) / (m b q), and -lambda s = -a j / (b m), so
    the sum needs no gcd, and each simplex's numerator and factors are set
    up once for all j.
    """
    a, b = lam
    if a <= 0:
        raise ValueError("lambda must be positive")
    terms = []
    for top, bottom, knots in p.simplices:
        extra = len(knots) - p.n
        top, bottom = top * (-a) ** extra, bottom * (b * m) ** extra
        factors = []
        for u, q in knots:
            q *= b
            top *= m * q
            factors.append((m * q, a * u - q))
        terms.append((top, bottom, extra, factors))
    out = []
    for j in js:
        num, den = 0, 1
        for top, bottom, extra, factors in terms:
            for base, step in factors:
                bottom *= base + j * step
            top *= j**extra
            num, den = num * bottom + top * den, den * bottom
        out.append((num, den))
    return out


def _combination(*terms) -> Fraction:
    """The sum of c * prod(factors) over the terms (c, *factors), an integer
    c times rationals (num, den)."""
    return _sum(
        (c * math.prod(f[0] for f in fs), math.prod(f[1] for f in fs)) for c, *fs in terms
    )


class DerivativeForms(NamedTuple):
    """The four independent expressions for d/ds Phi(lambda, s) at s = 0."""

    via_profile_integral: Fraction
    via_tail_integral: Fraction
    via_tail_and_volume: Fraction
    via_section_integral: Fraction

    def spread(self) -> Fraction:
        """(largest - least) / max(1, largest magnitude) over the four forms."""
        least, *_, largest = sorted(self)
        return (largest - least) / max(1, largest, -least)


def interpolation_derivative_forms(p: VolumeProfile, lam) -> DerivativeForms:
    """Evaluate the four derivative formulas from independent exact integrals.

    With front = n lambda degH, each is front times a bracket, multiplied out:
      profile:  front (1/lambda - c1 - I_vol / degH)
      tail:     front (1/lambda - c1 - (n+1) I_Theta / (n degH)
                       - c1 Theta(c1) / (n degH))
      volume:   front (1/lambda - (n+1) c1 / n - (n+1) I_Theta / (n degH)
                       + c1^(n+1) vol(v1) / (n degH))
      section:  front (1/lambda - (n+1) I_section / (n degH))
    where I_vol and I_Theta integrate vol_r and Theta from c1 and I_section
    integrates Theta from 0.
    """
    lam = lam.as_integer_ratio()
    n = p.n
    degh = p.degH.as_integer_ratio()
    c1 = p.c1.as_integer_ratio()
    i_profile = _profile_integral(p, c1)
    i_theta = _theta_integral(p, c1)
    i_section = section_integral(p).as_integer_ratio()
    theta_c1 = _theta(p, c1)
    return DerivativeForms(
        via_profile_integral=_combination((n, degh), (-n, lam, degh, c1), (-n, lam, i_profile)),
        via_tail_integral=_combination(
            (n, degh), (-n, lam, degh, c1), (-(n + 1), lam, i_theta), (-1, lam, c1, theta_c1)
        ),
        via_tail_and_volume=_combination(
            (n, degh),
            (-(n + 1), lam, degh, c1),
            (-(n + 1), lam, i_theta),
            (1, lam, p.vol_v1.as_integer_ratio(), *[c1] * (n + 1)),
        ),
        via_section_integral=_combination((n, degh), (-(n + 1), lam, i_section)),
    )


class PhiSurface(NamedTuple):
    lambdas: tuple[float, ...]
    s_grid: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]


def phi_surface(
    p: VolumeProfile, lambdas: Sequence, s_count: int = 21
) -> PhiSurface:
    """Phi(lambda, j / (s_count - 1)) for each lambda and j.

    Each value is the exact Phi(lambda, s) = sum_s w_s (-lambda s)^(m-n) /
    prod_i (1 - s + lambda s k_si) over the profile's simplices (C. Li,
    arXiv:1511.08164; Martelli-Sparks-Yau, hep-th/0503183), as in
    `interpolation_closed_form`, rounded to a float once: Python's
    int / int is correctly rounded.
    """
    m, js = s_count - 1, range(s_count)
    s_grid = tuple(j / m for j in js)
    try:
        values = tuple(
            tuple(num / den for num, den in _phi_ratio(p, lam.as_integer_ratio(), m, js))
            for lam in lambdas
        )
    except OverflowError:
        raise PreconditionViolated("Phi(lambda, s) is too large in magnitude for a float") from None
    return PhiSurface(
        lambdas=tuple(to_float(x, "lambda") for x in lambdas), s_grid=s_grid, values=values
    )


# -- stability gap ----------------------------------------------------------------


def stability_gap(p: VolumeProfile, logdisc_v0, logdisc_v1) -> Fraction:
    """A(v1) - delta / L^n * integral_0^inf vol(F S^(t)) dt, exactly, with
    delta = (n+1)/n A(v0) and L^n = degH.

    Nonnegative whenever the compactified cone is semistable; zero at the
    canonical valuation.
    """
    n = p.n
    a0, a1, h, i = rat(logdisc_v0), rat(logdisc_v1), p.degH, section_integral(p)
    # A(v1) - (n+1) A(v0) I / (n degH), over one denominator
    common = a0.denominator * n * h.numerator * i.denominator
    delta = (n + 1) * a0.numerator * h.denominator * i.numerator
    return Fraction(
        a1.numerator * common - a1.denominator * delta, a1.denominator * common
    )
