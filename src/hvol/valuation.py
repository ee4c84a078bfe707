"""Valuations on cone singularities: what every cone model shares.

Each model (singularities.py) states its own formulas for A, vol, its domain
and its Hilbert series as methods; this module holds the layer they all use:

* `integer_pairings` clears a weight vector's denominators once (w = z / D)
  and pairs z with the int rows a model stores, so A, vol and domain
  membership are integer sums and each result is one `Fraction` built at the
  end; a weight vector of the wrong length is a `ModelError` there;
* `simplex_sum`, the Martelli-Sparks-Yau sum over simplicial cones and its
  gradient, for the toric volume gradient, the minimizer and the log-Fano
  pipeline;
* `initial_order`, the least monomial weight where at least two monomials
  reach it, the domain of a hypersurface's volume;
* `nvol_report`, A, vol and A^n vol of one valuation through the model
  interface, and the record types `MonomialValuation` and `ValuationReport`;
* `lattice_count_oracle`, which counts the monomials of a-weight below p,
  the colength whose limit defines vol, from the Hilbert series that the
  model's `series_pieces` states (on a toric cone one term per half-open
  cone of the volume triangulation, the index-character of Martelli-Sparks-
  Yau, read by `_half_open_degrees`; one orthant over 1 - t^alpha on a
  hypersurface), the independent check on the closed volume formulas that
  `hvol selftest` checks against a box sweep.

The two volume closed forms, `valuation_volume_toric` and
`valuation_volume_hypersurface`, also live here as module functions that the
models' `volume` methods call: the benchmark tracer counts the minimizer's
objective evaluations through these two names.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import NamedTuple, Sequence

from .errors import BudgetExceeded, ModelError
from .exactgeom import RVector, _integral, _ridge_normal, rat

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

    The one place a point's denominators are cleared: every model formula
    reads A, vol and domain membership off these integers.  The rows (dual
    rays or monomial exponents) all have the model's length, so a weight
    vector of any other length is refused here, before `zip` could truncate.
    """
    if len(w) != len(rows[0]):
        raise ModelError(f"expected {len(rows[0])} weights, got {len(w)}")
    z, denom = _integral(w)
    return z, [sum(map(mul, row, z)) for row in rows], denom


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


def initial_order(weights: list[int]) -> int:
    """The least of the monomials' weights; a `ModelError` where one monomial
    alone attains it, outside the domain of the hypersurface's volume."""
    order = min(weights)
    if weights.count(order) < 2:
        raise ModelError("a-initial form of the defining polynomial is a single monomial")
    return order


# -- volume closed forms ------------------------------------------------------
# The models' `volume` methods call these two functions rather than holding
# the formulas themselves: the benchmark's tracer counts objective evaluations
# through these module-level names, and tests/test_trace_targets.py asserts
# that they are callables of this module.


def valuation_volume_toric(model, xi: Sequence) -> Fraction:
    """n! vol(xi) = sum over s of |det U_s| / prod_{u in s} <u, xi>.

    This is the Martelli-Sparks-Yau volume functional (hep-th/0503183): s
    runs over the simplicial cones of the toric model's triangulation of the
    dual cone, built once per model, and U_s holds the primitive dual rays of
    s.  With xi = z / D the sum is D^n times a sum over integer pairings,
    taken over the common denominator prod_u <u, z> (each simplex uses
    distinct rays), so one `Fraction` is built at the end.
    """
    _, pairings, denom = model.reeb_pairings(xi)
    common = math.prod(pairings)
    numerator = sum(
        d * (common // math.prod(pairings[i] for i in rays))
        for d, rays in model.volume_triangulation
    )
    return Fraction(numerator * denom**model.n, common)


def valuation_volume_hypersurface(model, a: Sequence) -> Fraction:
    """d(a) / prod(a), the multiplicity of the a-initial degeneration of a
    hypersurface model; a `ModelError` where that initial form is a single
    monomial.

    With a = z / D and d(a) = d / D this is d * D^(nvars - 1) / prod(z).
    """
    z, weights, denom = model.pairings(a)
    return Fraction(initial_order(weights) * denom ** (model.nvars - 1), math.prod(z))


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


def _half_open_degrees(rays: list, weights: list[int], inner: list[int], det: int):
    """Yield <pi, A> over the det lattice points pi = sum_j lambda_j u_j,
    weights[j] = <u_j, A>, with lambda_j in [0, 1), or (0, 1] on open facets.

    Row b_j of B = det U^-1 is normal to the facet opposite u_j: the signed
    maximal minors N of the other rays (`_ridge_normal`), <N, u_j> = +-det,
    times det / <N, u_j>.  The facet is open when `inner`, inside the dual
    cone, pushed to inner + eps e_1 + eps^2 e_2 + ... lies beyond it (the
    first nonzero of <b_j, inner>, b_j1, ..., b_jn is negative), so each
    lattice point lies in one half-open cone (Koeppe-Verdoolaege 2008).
    x -> B x mod det embeds Z^n / U Z^n and B's columns generate it, each
    adding the cosets of its least multiple already in.  A residue r is the
    point lambda = r / det, r_j = 0 read as det if open.
    """
    n = len(rays)
    normals = []
    for j, u in enumerate(rays):
        x = _ridge_normal(rays[:j] + rays[j + 1 :], n)
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
    - s} per shift s of a piece (weights, size, shifts, cancelled), less
    that per cancelled s, read off one table.  The (top + 1) * len(weights)
    + size cells per piece meet the budget first.
    """
    a = RVector(a)
    p = rat(p)
    if p <= 0:
        raise ValueError("threshold p must be positive")
    scale, pieces = model.series_pieces(a)
    top = math.ceil(scale * p) - 1
    cells = sum((top + 1) * len(weights) + size for weights, size, *_ in pieces)
    if cells > _SERIES_BUDGET:
        raise BudgetExceeded(f"series tables of {cells} cells exceed budget")
    count = 0
    for weights, _, shifts, cancelled in pieces:
        table = _prefix_counts(weights, top)
        count += sum(table[top - s] for s in shifts if s <= top)
        count -= sum(table[top - s] for s in cancelled if s <= top)
    return count
