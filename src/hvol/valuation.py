"""Valuations on cone singularities: log discrepancy, volume, normalized volume.

Monomial weight vectors and toric Reeb vectors are evaluated exactly:

* toric cones: A = <m0, xi> against the Gorenstein vector, and n! vol(xi)
  and its gradient from the Martelli-Sparks-Yau closed form, a sum over a
  triangulation of the dual cone that each model builds once (`simplex_sum`
  evaluates such sums, and their gradients, for the minimizer too);
* weighted-homogeneous hypersurfaces: A = sum(weights) - d(a) where d(a) is
  the minimal weight of the defining monomials, volume d(a) / prod(weights).

Each evaluation clears the point's denominators once (w = z / D, see
`integer_pairings`) and pairs z with integer rows cached on the model: the
dual rays and the Gorenstein numerators M = e * m0 of a toric cone, the
monomial exponents of a hypersurface.  A, vol and domain membership are then
integer sums, and each result is one `Fraction` built at the end.  A weight
vector of the wrong length is a `ModelError`.

These functions are the formulas behind the model methods `logdisc`,
`volume` and `domain_logdisc` (singularities.py); the rest of the package
calls the methods.  `domain_logdisc` answers "is w in the domain, and what is
A there" in one integer pass, for the minimizer's objective.  The
hypersurface volume is the multiplicity of the initial degeneration, defined
where at least two monomials reach the least weight.

`lattice_count_oracle` counts monomials below a weight threshold by brute
force, over the box and facet rows that the model's `lattice_region` states;
it is the independent check on the closed volume formulas.  The count runs in
plain integers: it loops over every coordinate of the box but the last and
adds up the interval of the last coordinate that the rows leave, so it holds
no array of cells and its memory does not grow with the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .errors import BudgetExceeded, ModelError, NotInReebCone
from .exactgeom import RVector, rat

if TYPE_CHECKING:  # the model classes call into this module, so no runtime import
    from .singularities import ToricConeSingularity, WeightedHomogeneousHypersurface

_ENUM_BUDGET = 60_000_000  # bounding-box cells; the true count stays below 1e7


class MonomialValuation(RVector):
    """Strictly positive weight vector a_i on the ambient coordinates z_i."""

    def __new__(cls, weights: Sequence) -> "MonomialValuation":
        vec = super().__new__(cls, weights)
        if any(w <= 0 for w in vec):
            raise ValueError(f"monomial weights must be positive, got {tuple(vec)}")
        return vec


@dataclass(frozen=True)
class ValuationReport:
    """Exact A, vol and normalized volume A^n * vol of one valuation."""

    n: int
    logdisc: Fraction  # A, nonpositive on non-klt input
    volume: Fraction
    nvol: Fraction  # A^n * vol
    nonpositive_discrepancy: bool = False


# -- integer pairings --------------------------------------------------------


def _as_rvector(w: Sequence) -> RVector:
    return w if isinstance(w, RVector) else RVector(w)


def integer_pairings(
    rows: Sequence[Sequence[int]], w: RVector
) -> tuple[list[int], list[int], int]:
    """(z, [<row, z> for each row], D) where w = z / D, z integral, D least.

    The one place a point's denominators are cleared: every formula below
    reads A, vol and domain membership off these integers.  The rows (dual
    rays or monomial exponents) all have the model's length, so a weight
    vector of any other length is refused here, before `zip` could truncate.
    """
    if len(w) != len(rows[0]):
        raise ModelError(f"expected {len(rows[0])} weights, got {len(w)}")
    denom = math.lcm(*(c.denominator for c in w))
    z = [c.numerator * (denom // c.denominator) for c in w]
    return z, [sum(map(mul, row, z)) for row in rows], denom


# -- toric evaluation --------------------------------------------------------


def _require_reeb(x: "ToricConeSingularity", xi: RVector) -> tuple[list[int], list[int], int]:
    z, pairings, denom = integer_pairings(x.reeb_generators, xi)
    for gen, pairing in zip(x.dual.rays, pairings):
        if pairing <= 0:
            raise NotInReebCone(
                f"{tuple(xi)} pairs nonpositively with weight generator {tuple(gen)}"
            )
    return z, pairings, denom


def _toric_logdisc(x: "ToricConeSingularity", z: list[int], denom: int) -> Fraction:
    """<m0, xi> = <M, z> / (e D) with m0 = M / e."""
    m, e = x.gorenstein_numerators
    return Fraction(sum(map(mul, m, z)), e * denom)


def log_discrepancy_toric(x: "ToricConeSingularity", xi: Sequence) -> Fraction:
    z, _, denom = _require_reeb(x, _as_rvector(xi))
    return _toric_logdisc(x, z, denom)


def domain_logdisc_toric(x: "ToricConeSingularity", xi: Sequence) -> Fraction | None:
    """A(xi) when xi is a Reeb vector (every dual-ray pairing positive), else None."""
    z, pairings, denom = integer_pairings(x.reeb_generators, _as_rvector(xi))
    if min(pairings) <= 0:
        return None
    return _toric_logdisc(x, z, denom)


def valuation_volume_toric(x: "ToricConeSingularity", xi: Sequence) -> Fraction:
    """n! vol(xi) = sum over s of |det U_s| / prod_{u in s} <u, xi>.

    This is the Martelli-Sparks-Yau volume functional (hep-th/0503183): s
    runs over the simplicial cones of the model's triangulation of the dual
    cone, built once per model, and U_s holds the primitive dual rays of s.
    With xi = z / D the sum is D^n times a sum over integer pairings, taken
    over the common denominator prod_u <u, z> (each simplex uses distinct
    rays), so one `Fraction` is built at the end.
    """
    _, pairings, denom = _require_reeb(x, _as_rvector(xi))
    common = math.prod(pairings)
    numerator = sum(
        d * (common // math.prod(pairings[i] for i in rays))
        for d, rays in x.volume_triangulation
    )
    return Fraction(numerator * denom**x.n, common)


def volume_gradient_toric(x: "ToricConeSingularity", xi: Sequence) -> RVector:
    """The gradient of n! vol at xi, exactly: `simplex_sum` over the model's
    triangulation, which differentiates `valuation_volume_toric` term by term."""
    xi = _as_rvector(xi)
    _require_reeb(x, xi)
    return simplex_sum(x.reeb_generators, x.volume_triangulation, xi)[1]


def simplex_sum(
    generators: Sequence[Sequence[int]], simplices, w: RVector
) -> tuple[Fraction, RVector]:
    """(F(w), grad F(w)) exactly, for F(w) = sum_s d_s / prod_{u in s} <u, w>
    over (d_s, generator indices) pairs with k indices each, integer
    generators u and every <u, w> > 0.  The gradient is
    -sum_s d_s / prod_{u in s} <u, w> * sum_{u in s} u / <u, w>.

    With w = z / D, F is D^k / C times an integer sum and each gradient
    coordinate -D^(k+1) / C^2 times one, C the product of every <u, z>.
    """
    _, pairings, denom = integer_pairings(generators, w)
    common = math.prod(pairings)
    k = len(simplices[0][1])
    value, total = 0, [0] * len(w)
    for d, rays in simplices:
        weight = d * (common // math.prod(pairings[i] for i in rays))
        value += weight
        for i in rays:
            coeff = weight * (common // pairings[i])
            total = [t + coeff * u for t, u in zip(total, generators[i])]
    gradient = RVector(Fraction(-t * denom ** (k + 1), common * common) for t in total)
    return Fraction(value * denom**k, common), gradient


# -- hypersurface evaluation -------------------------------------------------


def log_discrepancy_hypersurface(
    w: "WeightedHomogeneousHypersurface", a: Sequence
) -> Fraction:
    """sum(a) - d(a); may be nonpositive for non-klt input (flagged, not an error).

    d(a) is the minimal a-weight <m, a> over the defining monomials m.
    """
    z, weights, denom = integer_pairings(w.exponents, _as_rvector(a))
    if min(z) <= 0:
        raise NotInReebCone("hypersurface weights must be strictly positive")
    return Fraction(sum(z) - min(weights), denom)


def domain_logdisc_hypersurface(
    w: "WeightedHomogeneousHypersurface", a: Sequence
) -> Fraction | None:
    """sum(a) - d(a) when every weight is positive and at least two monomials
    reach d(a), else None."""
    z, weights, denom = integer_pairings(w.exponents, _as_rvector(a))
    order = min(weights)
    if min(z) <= 0 or weights.count(order) < 2:
        return None
    return Fraction(sum(z) - order, denom)


def valuation_volume_hypersurface(w: "WeightedHomogeneousHypersurface", a: Sequence) -> Fraction:
    """d(a) / prod(a), the multiplicity of the a-initial degeneration; a
    `ModelError` where that initial form is a single monomial.

    With a = z / D and d(a) = d / D this is d * D^(nvars - 1) / prod(z).
    """
    a = _as_rvector(a)
    z, weights, denom = integer_pairings(w.exponents, a)
    if min(z) <= 0:
        raise ValueError(f"monomial weights must be positive, got {tuple(a)}")
    order = min(weights)
    if weights.count(order) < 2:
        raise ModelError("a-initial form of the defining polynomial is a single monomial")
    return Fraction(order * denom ** (w.nvars - 1), math.prod(z))


# -- reports -----------------------------------------------------------------


def nvol_report(model, weights: Sequence) -> ValuationReport:
    """Evaluate A, vol and A^n*vol for a toric or hypersurface model."""
    logdisc = model.logdisc(weights)
    volume = model.volume(weights)
    n = model.n
    return ValuationReport(
        n=n,
        logdisc=logdisc,
        volume=volume,
        nvol=logdisc**n * volume,
        nonpositive_discrepancy=logdisc <= 0,
    )


# -- brute-force lattice counting oracle -------------------------------------


def _strict_upper(bound: Fraction) -> int:
    """Largest integer strictly below bound."""
    return math.ceil(bound) - 1


def _count_box(
    bounds: list[tuple[int, int]],
    nonstrict: list[tuple[list[int], int]],
    strict_coefs: list[int],
    strict_max: int,
) -> int:
    """Count integer points in a box with <c,x>+b >= 0 constraints and <s,x> <= strict_max.

    Loops over every coordinate but the last, x_n.  There each row
    c x_n + r >= 0 (r collecting the constant and the other coordinates)
    bounds x_n below by ceil(-r / c) when c > 0 and above by floor(r / -c)
    when c < 0, or holds or fails outright when c = 0, and the lengths of the
    resulting intervals are added up.
    """
    sizes = [hi - lo + 1 for lo, hi in bounds]
    if any(s <= 0 for s in sizes):
        return 0
    total = math.prod(sizes)
    if total > _ENUM_BUDGET:
        raise BudgetExceeded(f"enumeration box of {total} cells exceeds budget")
    rows = [(coefs[:-1], coefs[-1], const) for coefs, const in nonstrict]
    rows.append(([-c for c in strict_coefs[:-1]], -strict_coefs[-1], strict_max))
    *head, (lo_last, hi_last) = bounds
    count = 0
    for prefix in iter_product(*[range(lo, hi + 1) for lo, hi in head]):
        lo, hi = lo_last, hi_last
        for coefs, c, const in rows:
            r = const + sum(map(mul, coefs, prefix))
            if c > 0:
                lo = max(lo, -(r // c))
            elif c < 0:
                hi = min(hi, r // -c)
            elif r < 0:
                hi = lo - 1
                break
        if hi >= lo:
            count += hi - lo + 1
    return count


def _scaled_int_vector(vec: Sequence[Fraction]) -> tuple[list[int], int]:
    scale = math.lcm(*(rat(v).denominator for v in vec))
    return [int(rat(v) * scale) for v in vec], scale


def lattice_count_oracle(model, a: Sequence, p) -> int:
    """dim of R / {v_a >= p} by monomial enumeration; the volume oracle.

    Counts the integer points alpha of the model's `lattice_region(a, p)`,
    its box and facet rows, with <alpha, a> < p: lattice points of the dual
    cone on a toric cone, standard monomials on a hypersurface.
    """
    a = RVector(a)
    p = rat(p)
    if p <= 0:
        raise ValueError("threshold p must be positive")
    bounds, rows = model.lattice_region(a, p)
    strict_coefs, scale = _scaled_int_vector(a)
    return _count_box(bounds, rows, strict_coefs, _strict_upper(scale * p))


def dual_cone_box(x: "ToricConeSingularity", a: RVector, p: Fraction) -> list[tuple[int, int]]:
    """Integer bounds per coordinate of {alpha in the dual cone : <alpha, a> <= p}.

    That polytope is conv(0, p u / <u, a>) over the dual rays u, so the box
    comes from the rays without enumerating vertices.
    """
    _, pairings, denom = _require_reeb(x, a)
    corners = [ray.scale(p * denom / pairing) for ray, pairing in zip(x.dual.rays, pairings)]
    return [
        (math.ceil(min(0, *coords)), math.floor(max(0, *coords))) for coords in zip(*corners)
    ]


def reduction_variable(
    w: "WeightedHomogeneousHypersurface", a: RVector
) -> tuple[int, int]:
    """(index, exponent) of a reduction variable compatible with the weights a.

    Standard monomials bound the exponent of one variable by its exponent in
    a weight-minimal defining monomial; that monomial must be a pure power of
    a variable appearing in no other monomial, otherwise the count does not
    represent the initial degeneration and we refuse.
    """
    _, weights, _ = integer_pairings(w.exponents, _as_rvector(a))
    order = min(weights)
    for j in range(w.nvars):
        owners = [k for k, m in enumerate(w.exponents) if m[j] > 0]
        if len(owners) != 1:
            continue
        mono = w.exponents[owners[0]]
        if any(mono[i] != 0 for i in range(w.nvars) if i != j):
            continue
        if weights[owners[0]] == order:
            return j, mono[j]
    raise ModelError(
        "lattice counting needs a weight-minimal monomial that is a pure power "
        "of a variable occurring in no other monomial"
    )
