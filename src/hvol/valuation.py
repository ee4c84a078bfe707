"""Valuations on cone singularities: log discrepancy, volume, normalized volume.

Monomial weight vectors and toric Reeb vectors are evaluated exactly:

* toric cones: A = <m0, xi> against the Gorenstein vector, and n! vol(xi)
  and its gradient from the Martelli-Sparks-Yau closed form, a sum over a
  triangulation of the dual cone that each model builds once (`simplex_sum`
  evaluates such sums, and their gradients, for the minimizer too);
* weighted-homogeneous hypersurfaces: A = sum(weights) - d(a) where d(a) is
  the minimal weight of the defining monomials, volume d(a) / prod(weights).

Each evaluation clears the point's denominators once (w = z / D, see
`integer_pairings`) and pairs z with the int tuples the model stores: the
dual rays and the Gorenstein numerators (M, e), m0 = M / e, of a toric cone,
the monomial exponents of a hypersurface.  A, vol and domain membership are
then integer sums, and each result is one `Fraction` built at the end.  A
weight vector of the wrong length is a `ModelError`; hypersurface weights
that are not all positive, where a formula needs them positive, are a
`NotInReebCone` (`hypersurface_pairings`).

These functions are the formulas behind the model methods `logdisc`,
`volume` and `domain_logdisc` (singularities.py); the rest of the package
calls the methods.  `domain_logdisc` answers "is w in the domain, and what is
A there" in one integer pass, for the minimizer's objective.  The
hypersurface volume is the multiplicity of the initial degeneration, defined
where at least two monomials reach the least weight.

`lattice_count_oracle` counts the monomials of a-weight below p, the
colength whose limit defines vol, from the Hilbert series that the model's
`series_pieces` states: on a toric cone one term per half-open cone of the
volume triangulation, the index-character of Martelli-Sparks-Yau.  It is the
independent check on the closed volume formulas; `hvol selftest` checks it
against a box sweep.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import BudgetExceeded, ModelError, NotInReebCone
from .exactgeom import RVector, _integral, int_kernel, rat

if TYPE_CHECKING:  # the model classes call into this module, so no runtime import
    from .singularities import ToricConeSingularity, WeightedHomogeneousHypersurface

_SERIES_BUDGET = 2_000_000  # table cells and parallelepiped points per oracle call


class MonomialValuation(RVector):
    """Strictly positive weight vector a_i on the ambient coordinates z_i."""

    def __new__(cls, weights: Sequence) -> "MonomialValuation":
        vec = super().__new__(cls, weights)
        if any(w <= 0 for w in vec):
            raise ValueError(f"monomial weights must be positive, got {vec}")
        return vec


class ValuationReport(NamedTuple):
    """Exact A, vol and normalized volume A^n * vol of one valuation."""

    n: int
    logdisc: Fraction  # A, nonpositive on non-klt input
    volume: Fraction
    nvol: Fraction  # A^n * vol
    nonpositive_discrepancy: bool = False


# -- integer pairings --------------------------------------------------------


def integer_pairings(
    rows: Sequence[Sequence[int]], w: Sequence
) -> tuple[list[int], list[int], int]:
    """(z, [<row, z> for each row], D) where w = z / D, z integral, D least.

    The one place a point's denominators are cleared: every formula below
    reads A, vol and domain membership off these integers.  The rows (dual
    rays or monomial exponents) all have the model's length, so a weight
    vector of any other length is refused here, before `zip` could truncate.
    """
    if len(w) != len(rows[0]):
        raise ModelError(f"expected {len(rows[0])} weights, got {len(w)}")
    z, denom = _integral(w)
    return z, [sum(map(mul, row, z)) for row in rows], denom


# -- toric evaluation --------------------------------------------------------


def _require_reeb(x: "ToricConeSingularity", xi: Sequence) -> tuple[list[int], list[int], int]:
    z, pairings, denom = integer_pairings(x.reeb_generators, xi)
    for gen, pairing in zip(x.reeb_generators, pairings):
        if pairing <= 0:
            raise NotInReebCone(
                f"{RVector(xi)} pairs nonpositively with weight generator {RVector(gen)}"
            )
    return z, pairings, denom


def _toric_logdisc(x: "ToricConeSingularity", z: list[int], denom: int) -> Fraction:
    """<m0, xi> = <M, z> / (e D) with m0 = M / e."""
    m, e = x.gorenstein_numerators
    return Fraction(sum(map(mul, m, z)), e * denom)


def log_discrepancy_toric(x: "ToricConeSingularity", xi: Sequence) -> Fraction:
    z, _, denom = _require_reeb(x, xi)
    return _toric_logdisc(x, z, denom)


def domain_logdisc_toric(x: "ToricConeSingularity", xi: Sequence) -> Fraction | None:
    """A(xi) when xi is a Reeb vector (every dual-ray pairing positive), else None."""
    z, pairings, denom = integer_pairings(x.reeb_generators, xi)
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
    _, pairings, denom = _require_reeb(x, xi)
    common = math.prod(pairings)
    numerator = sum(
        d * (common // math.prod(pairings[i] for i in rays))
        for d, rays in x.volume_triangulation
    )
    return Fraction(numerator * denom**x.n, common)


def volume_gradient_toric(x: "ToricConeSingularity", xi: Sequence) -> RVector:
    """The gradient of n! vol at xi, exactly: `simplex_sum` over the model's
    triangulation, which differentiates `valuation_volume_toric` term by term."""
    z, _, denom = _require_reeb(x, xi)
    _, common, total = simplex_sum(x.reeb_generators, x.volume_triangulation, z)
    return RVector(Fraction(-t * denom ** (x.n + 1), common * common) for t in total)


def simplex_sum(
    generators: Sequence[Sequence[int]], simplices, z: Sequence[int]
) -> tuple[int, int, list[int]]:
    """(N, C, T) at an integer point z with every <u, z> > 0, for
    F(z) = sum_s d_s / prod_{u in s} <u, z> over (d_s, generator indices)
    pairs and integer generators u: C is the product of every <u, z>,
    F(z) = N / C, and grad F(z) = -T / C^2, since the gradient is
    -sum_s d_s / prod_{u in s} <u, z> * sum_{u in s} u / <u, z>.

    With k indices per simplex F has degree -k, so at w = z / D it is
    D^k N / C with gradient -D^(k+1) T / C^2.
    """
    pairings = [sum(map(mul, u, z)) for u in generators]
    common = math.prod(pairings)
    value, total = 0, [0] * len(z)
    for d, rays in simplices:
        weight = d * (common // math.prod(pairings[i] for i in rays))
        value += weight
        for i in rays:
            coeff = weight * (common // pairings[i])
            total = [t + coeff * u for t, u in zip(total, generators[i])]
    return value, common, total


# -- hypersurface evaluation -------------------------------------------------


def hypersurface_pairings(
    w: "WeightedHomogeneousHypersurface", a: Sequence
) -> tuple[list[int], list[int], int]:
    """`integer_pairings` of the weights a with the monomial exponents; a
    NotInReebCone unless every weight is positive, the one error of every
    hypersurface formula that needs positive weights."""
    z, weights, denom = integer_pairings(w.monomials, a)
    if min(z) <= 0:
        raise NotInReebCone("hypersurface weights must be strictly positive")
    return z, weights, denom


def log_discrepancy_hypersurface(
    w: "WeightedHomogeneousHypersurface", a: Sequence
) -> Fraction:
    """sum(a) - d(a); may be nonpositive for non-klt input (flagged, not an error).

    d(a) is the minimal a-weight <m, a> over the defining monomials m.
    """
    z, weights, denom = hypersurface_pairings(w, a)
    return Fraction(sum(z) - min(weights), denom)


def domain_logdisc_hypersurface(
    w: "WeightedHomogeneousHypersurface", a: Sequence
) -> Fraction | None:
    """sum(a) - d(a) when every weight is positive and at least two monomials
    reach d(a), else None."""
    z, weights, denom = integer_pairings(w.monomials, a)
    order = min(weights)
    if min(z) <= 0 or weights.count(order) < 2:
        return None
    return Fraction(sum(z) - order, denom)


def valuation_volume_hypersurface(w: "WeightedHomogeneousHypersurface", a: Sequence) -> Fraction:
    """d(a) / prod(a), the multiplicity of the a-initial degeneration; a
    `ModelError` where that initial form is a single monomial.

    With a = z / D and d(a) = d / D this is d * D^(nvars - 1) / prod(z).
    """
    z, weights, denom = hypersurface_pairings(w, a)
    return Fraction(initial_order(weights) * denom ** (w.nvars - 1), math.prod(z))


def initial_order(weights: list[int]) -> int:
    """The least of the monomials' weights; a `ModelError` where one monomial
    alone attains it, outside the domain of the hypersurface's volume."""
    order = min(weights)
    if weights.count(order) < 2:
        raise ModelError("a-initial form of the defining polynomial is a single monomial")
    return order


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


# -- lattice counting oracle -------------------------------------------------


def series_pieces_toric(x: "ToricConeSingularity", a: Sequence) -> tuple[int, list]:
    """(D, pieces) for the dual cone's lattice points graded by A = D a: per
    simplicial cone s of the volume triangulation, (<u, A> over u in s,
    |det U_s|, the lazy `_half_open_degrees`).  a must be a Reeb vector."""
    _, pairings, denom = _require_reeb(x, a)
    rays = x.reeb_generators
    inner = [sum(col) for col in zip(*rays)]
    pieces = []
    for d, s in x.volume_triangulation:
        weights = [pairings[i] for i in s]
        pieces.append((weights, d, _half_open_degrees([rays[i] for i in s], weights, inner, d)))
    return denom, pieces


def _half_open_degrees(rays: list, weights: list[int], inner: list[int], det: int):
    """Yield <pi, A> over the det lattice points pi = sum_j lambda_j u_j,
    weights[j] = <u_j, A>, with lambda_j in [0, 1), or (0, 1] on open facets.

    Row b_j of B = det U^-1 is normal to the facet opposite u_j, open when
    `inner`, inside the dual cone, pushed to inner + eps e_1 + eps^2 e_2 + ...
    lies beyond it (the first nonzero of <b_j, inner>, b_j1, ..., b_jn is
    negative), so each lattice point lies in one half-open cone (Koeppe-
    Verdoolaege 2008).  x -> B x mod det embeds Z^n / U Z^n and B's columns
    generate it, each adding the cosets of its least multiple already in.
    A residue r is the point lambda = r / det, r_j = 0 read as det if open.
    """
    n = len(rays)
    normals = []
    for j, u in enumerate(rays):
        ((_, x),) = int_kernel(rays[:j] + rays[j + 1 :], n)
        normals.append([c * (det // sum(map(mul, x, u))) for c in x])
    is_open = [next(v for v in (sum(map(mul, b, inner)), *b) if v) < 0 for b in normals]
    group = {(0,) * n}
    for gen in zip(*normals):
        multiples, step = [(0,) * n], tuple(g % det for g in gen)
        while step not in group:
            multiples.append(step)
            step = tuple((s + g) % det for s, g in zip(step, gen))
        group = {tuple((c + m) % det for c, m in zip(g, mult)) for g in group for mult in multiples}
    for r in group:
        yield sum((c or det * o) * w for c, o, w in zip(r, is_open, weights)) // det


def _prefix_counts(weights: Sequence[int], top: int) -> list[int]:
    """#{k >= 0 : sum_j k_j w_j <= m} for m = 0..top, the coefficients of
    1 / ((1 - t) prod_j (1 - t^w_j)): a running sum per residue class mod w."""
    table = [1] * (top + 1)
    for w in weights:
        for r in range(min(w, top + 1)):
            table[r::w] = accumulate(table[r::w])
    return table


def lattice_count_oracle(model, a: Sequence, p) -> int:
    """dim of R / {v_a >= p} from the model's Hilbert series; the volume oracle.

    The monomials with <alpha, a> < p have degree at most top = ceil(D p) - 1
    in the grading by A = D a of `series_pieces`: #{k : sum_j k_j w_j <= top
    - s} per shift s of a piece (weights, size, shifts), read off one table.
    The (top + 1) * len(weights) + size cells per piece meet the budget first.
    """
    a = RVector(a)
    p = rat(p)
    if p <= 0:
        raise ValueError("threshold p must be positive")
    scale, pieces = model.series_pieces(a)
    top = math.ceil(scale * p) - 1
    cells = sum((top + 1) * len(weights) + size for weights, size, _ in pieces)
    if cells > _SERIES_BUDGET:
        raise BudgetExceeded(f"series tables of {cells} cells exceed budget")
    count = 0
    for weights, _, shifts in pieces:
        table = _prefix_counts(weights, top)
        count += sum(table[top - s] for s in shifts if s <= top)
    return count


def reduction_variable(
    w: "WeightedHomogeneousHypersurface", a: RVector
) -> tuple[int, int]:
    """(index, exponent) of a reduction variable compatible with the weights a.

    Standard monomials bound the exponent of one variable by its exponent in
    a weight-minimal defining monomial; that monomial must be a pure power of
    a variable appearing in no other monomial, otherwise the count does not
    represent the initial degeneration and we refuse.  The weights must be
    positive (`hypersurface_pairings`).
    """
    _, weights, _ = hypersurface_pairings(w, a)
    order = min(weights)
    for j in range(w.nvars):
        owners = [k for k, m in enumerate(w.monomials) if m[j] > 0]
        if len(owners) != 1:
            continue
        mono = w.monomials[owners[0]]
        if any(mono[i] != 0 for i in range(w.nvars) if i != j):
            continue
        if weights[owners[0]] == order:
            return j, mono[j]
    raise ModelError(
        "lattice counting needs a weight-minimal monomial that is a pure power "
        "of a variable occurring in no other monomial"
    )
