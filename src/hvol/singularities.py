"""Singularity models: toric cones, weighted-homogeneous hypersurfaces,
polarized-cone numerology and the toric log-Fano pipeline.

A toric cone singularity is Spec of the semigroup ring of the dual cone; its
Gorenstein vector m0 (pairing to 1 with every primitive ray) encodes the
log discrepancy of toric valuations.  The polarized-cone data (n, r, degH)
is everything the normalized-volume lower bound depends on.

Both cone models offer one interface, and the rest of the package calls it
without asking which kind of model it holds.  For a weight vector w (a Reeb
vector on a toric cone, a monomial weight on a hypersurface):

* `logdisc(w)`, `volume(w)` and `domain_logdisc(w)`, the log discrepancy
  when w lies in the model's domain and None otherwise, in one integer pass;
  each model states its domain once, there, and `in_domain` only asks whether
  that is None;
* `reeb_generators`, the integer rows u with every <u, w> > 0 on admissible
  weights: the dual rays of a toric cone, the unit vectors of a hypersurface;
* `lattice_region(a, p)`, the integer box and facet rows holding the
  monomials of a-weight below p, which `valuation.lattice_count_oracle`
  counts;
* `simplicial_pieces(v0, v1)`, the (weight, knots) pairs that the volume
  profile of a filtration sums over (filtration.py);
* `convex_pieces`, the minimizer's convex programs (below);
* `canonical_xi`, the canonical grading where the model knows it (the toric
  library cones, the A_{k-1} cones of `akm_singularity`), None otherwise.

The minimizer (reeb.py) reads `convex_pieces`: the convex programs whose
least minimum is the minimum of A^n vol.  A toric cone gives one piece, its
whole Reeb cone.  A hypersurface gives one piece per face of its domain, the
weights where a set of monomials ties at the least weight, taken over weights
constant on the `symmetry_classes`.  Its results are therefore the minimum
among monomial valuations in these coordinates with such weights, not over all
valuations.  The pieces, not a start point or a seed, fix every run:
`minimize --seed` and `--tol` change no report, and a hypersurface's `--init`
is checked to lie in the domain and then unused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Sequence

from .errors import AngleOutOfRange, InvalidIndex, ModelError, NotInReebCone, NotQGorenstein
from .exactgeom import (
    Halfspace,
    PolyCone,
    Polytope,
    RVector,
    centroid,
    dual_cone,
    int_cone_rays,
    nullspace,
    rat,
    row_reduce,
    triangulate_cone,
)
from .valuation import (
    MonomialValuation,
    domain_logdisc_hypersurface,
    domain_logdisc_toric,
    dual_cone_box,
    integer_pairings,
    log_discrepancy_hypersurface,
    log_discrepancy_toric,
    reduction_variable,
    valuation_volume_hypersurface,
    valuation_volume_toric,
)


@dataclass(frozen=True)
class ConvexPiece:
    """One convex program of the minimizer, in the model's weights w.

    The piece is the cone of w = sum_j z_j basis_j with every <u, w> > 0 over
    the `generators` u and <b, w> >= 0 over the `bounds` b; its coordinates are
    z_j = w[free_j].  There A(w) = <row, w>, and on the slice A = n the
    normalized volume is n^n F(w) with F(w) = sum_s d_s / prod_{u in s} <u, w>
    over the `simplices` (d_s, generator indices), a convex function wherever
    every <u, w> > 0.  `vertices` are the vertices of the closed slice.
    """

    generators: tuple[tuple[int, ...], ...]
    simplices: tuple[tuple[int, tuple[int, ...]], ...]
    row: RVector
    basis: tuple[RVector, ...]
    free: tuple[int, ...]
    bounds: tuple[RVector, ...]
    vertices: tuple[RVector, ...]


@dataclass
class ToricConeSingularity:
    """X = Spec of the semigroup ring of sigma-dual; rays of sigma primitive."""

    n: int
    sigma: PolyCone
    m0: RVector
    dual: PolyCone = field(repr=False)
    canonical_xi: RVector | None = None
    label: str = ""

    @classmethod
    def from_rays(
        cls,
        rays: Sequence[Sequence],
        canonical_xi: Sequence | None = None,
        label: str = "",
    ) -> "ToricConeSingularity":
        sigma = PolyCone.from_rays(rays)
        n = sigma.dim
        m0 = _gorenstein_vector(sigma)
        dual = dual_cone(sigma)
        xi = RVector(canonical_xi) if canonical_xi is not None else None
        return cls(n=n, sigma=sigma, m0=m0, dual=dual, canonical_xi=xi, label=label)

    @cached_property
    def reeb_generators(self) -> tuple[tuple[int, ...], ...]:
        """Rays of the dual cone as integer tuples; xi is Reeb iff it pairs
        positively with all of them."""
        return tuple(tuple(int(c) for c in gen) for gen in self.dual.rays)

    @cached_property
    def gorenstein_numerators(self) -> tuple[tuple[int, ...], int]:
        """(M, e) with m0 = M / e, M integral and e the least such integer."""
        e = math.lcm(*(c.denominator for c in self.m0))
        return tuple(int(c * e) for c in self.m0), e

    @cached_property
    def volume_triangulation(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """(|det U_s|, dual-ray indices) of the simplicial cones tiling the dual
        cone, built on the first `volume` call, then reused.  The fan and the
        certificate that it tiles the cone are integer computations on the
        dual rays and the rays of sigma (`triangulate_cone`)."""
        return triangulate_cone(self.dual)

    @cached_property
    def convex_pieces(self) -> tuple[ConvexPiece, ...]:
        """The whole Reeb cone: F is the volume over `volume_triangulation`,
        A = <m0, xi>, and the slice of sigma has the vertices n rho_i, since
        every primitive ray rho_i pairs to 1 with m0 (`_gorenstein_vector`)."""
        units = tuple(RVector(int(i == j) for j in range(self.n)) for i in range(self.n))
        piece = ConvexPiece(
            generators=self.reeb_generators,
            simplices=self.volume_triangulation,
            row=self.m0,
            basis=units,
            free=tuple(range(self.n)),
            bounds=(),
            vertices=tuple(ray.scale(self.n) for ray in self.sigma.rays),
        )
        return (piece,)

    def logdisc(self, xi: Sequence) -> Fraction:
        """A(xi) = <m0, xi>; raises NotInReebCone outside the Reeb cone."""
        return log_discrepancy_toric(self, xi)

    def volume(self, xi: Sequence) -> Fraction:
        """n! times the volume of {y in the dual cone : <xi, y> <= 1}: the
        Martelli-Sparks-Yau closed form (hep-th/0503183) over
        `volume_triangulation`, which is built once per model."""
        return valuation_volume_toric(self, xi)

    def domain_logdisc(self, xi: Sequence) -> Fraction | None:
        """A(xi) when xi lies in the Reeb cone, where logdisc and volume are
        defined, and None otherwise."""
        return domain_logdisc_toric(self, xi)

    def in_domain(self, xi: Sequence) -> bool:
        """Whether xi lies in the Reeb cone."""
        return self.domain_logdisc(xi) is not None

    def lattice_region(self, a: RVector, p: Fraction) -> tuple[list, list]:
        """(box, rows) holding the lattice points alpha of the dual cone with
        <alpha, a> < p: the integer box around {<alpha, a> <= p} in the dual
        cone (`dual_cone_box`), and the facet rows <rho, alpha> >= 0 over the
        primitive rays rho of sigma.  a must be a Reeb vector."""
        return dual_cone_box(self, a, p), [([int(c) for c in ray], 0) for ray in self.sigma.rays]

    def simplicial_pieces(self, v0: RVector, v1: RVector) -> list[tuple[Fraction, tuple]]:
        """(weight, knots) per simplicial cone s of `volume_triangulation`:
        |det U_s| / prod_{u in s} <u, v0>, the terms of n! vol(v0), and the
        ratios <u, v1> / <u, v0>.  Both must be Reeb vectors."""
        (p0, d0), (p1, d1) = (integer_pairings(self.reeb_generators, xi)[1:] for xi in (v0, v1))
        for xi, pairings in ((v0, p0), (v1, p1)):
            if min(pairings) <= 0:
                raise NotInReebCone(f"{tuple(xi)} is not in the Reeb cone")
        return [
            (
                Fraction(d * d0**self.n, math.prod(p0[i] for i in rays)),
                tuple(Fraction(p1[i] * d0, p0[i] * d1) for i in rays),
            )
            for d, rays in self.volume_triangulation
        ]


def _gorenstein_vector(sigma: PolyCone) -> RVector:
    """Solve <m0, u> = 1 over every ray u in one elimination, then verify on
    all of them, since the reduced rows drop an inconsistent equation."""
    reduced, pivots = row_reduce([list(r) + [1] for r in sigma.rays], sigma.dim)
    m0 = RVector(row[-1] for row in reduced)
    if len(pivots) < sigma.dim or any(m0.dot(ray) != 1 for ray in sigma.rays):
        raise NotQGorenstein("no covector pairs to 1 with every primitive ray")
    return m0


@dataclass
class WeightedHomogeneousHypersurface:
    """Hypersurface {sum of monomials = 0} in C^(n+1), coefficients generic."""

    nvars: int
    monomials: tuple[RVector, ...]
    label: str = ""
    canonical_xi: RVector | None = None

    def __post_init__(self):
        if self.nvars < 2:
            raise ModelError("a hypersurface germ needs dimension n >= 1")
        if len(self.monomials) < 2:
            raise ModelError("a hypersurface model needs at least two monomials")
        mons = []
        for m in self.monomials:
            vec = RVector(m)
            if len(vec) != self.nvars:
                raise ModelError("monomial exponent length does not match nvars")
            if any(e < 0 or e.denominator != 1 for e in vec):
                raise ModelError("exponents must be nonnegative integers")
            mons.append(vec)
        self.monomials = tuple(mons)

    @cached_property
    def exponents(self) -> tuple[tuple[int, ...], ...]:
        """The monomials as integer tuples, paired with cleared weight vectors."""
        return tuple(tuple(int(e) for e in m) for m in self.monomials)

    @property
    def n(self) -> int:
        """Dimension of the hypersurface germ."""
        return self.nvars - 1

    @cached_property
    def reeb_generators(self) -> tuple[tuple[int, ...], ...]:
        """The unit vectors: weights are admissible iff all are positive."""
        return tuple(tuple(int(k == i) for k in range(self.nvars)) for i in range(self.nvars))

    def logdisc(self, a: Sequence) -> Fraction:
        """sum(a) - d(a); raises NotInReebCone unless every weight is positive."""
        return log_discrepancy_hypersurface(self, a)

    def volume(self, a: Sequence) -> Fraction:
        """d(a) / prod(a); raises ModelError if one monomial has the least weight."""
        return valuation_volume_hypersurface(self, a)

    def domain_logdisc(self, a: Sequence) -> Fraction | None:
        """sum(a) - d(a) when the weights are positive and tie at least two
        monomials at d(a), where volume is defined, and None otherwise."""
        return domain_logdisc_hypersurface(self, a)

    def in_domain(self, a: Sequence) -> bool:
        """Whether `volume` is defined at a."""
        return self.domain_logdisc(a) is not None

    def lattice_region(self, a: RVector, p: Fraction) -> tuple[list, list]:
        """(box, rows) holding the standard monomials alpha with <alpha, a> < p:
        each alpha_i below p / a_i, and the exponent of a's reduction
        variable below its exponent there; no facet rows."""
        if len(a) != self.nvars or any(weight <= 0 for weight in a):
            raise ModelError("weights must be positive and match the variable count")
        red, exp = reduction_variable(self, a)
        bounds = [(0, math.ceil(p / weight) - 1) for weight in a]
        bounds[red] = (0, min(bounds[red][1], exp - 1))
        return bounds, []

    def simplicial_pieces(self, v0: RVector, v1: RVector) -> list[tuple[Fraction, tuple]]:
        """One (weight, knots) pair: the orthant of the variables other than
        v1's reduction variable, with weight exp / prod v0_i, exp that
        variable's exponent, and knots v1_i / v0_i.  Weights must be positive."""
        v0, v1 = RVector(v0), RVector(v1)
        if any(min(integer_pairings(self.exponents, a)[0]) <= 0 for a in (v0, v1)):
            raise NotInReebCone("hypersurface weights must be strictly positive")
        red, exp = reduction_variable(self, v1)
        keep = [i for i in range(self.nvars) if i != red]
        weight = Fraction(exp) / math.prod(v0[i] for i in keep)
        return [(weight, tuple(v1[i] / v0[i] for i in keep))]

    @cached_property
    def convex_pieces(self) -> tuple[ConvexPiece, ...]:
        """One piece per face of the domain, over weights constant on the
        `symmetry_classes`.  Monomials that the symmetry identifies act as one
        monomial counted that often; a face is a set S of them, counted at
        least twice, that ties at the least weight.  There vol(w) =
        <m, w> / prod w = sum_k m_k / prod_{l != k} w_l for m in S, a sum of
        convex terms, and A = <1 - m, w>."""
        classes = self.symmetry_classes()
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for mono in self.exponents:
            groups.setdefault(tuple(sum(mono[k] for k in cls) for cls in classes), []).append(mono)
        reduced = list(groups)
        pieces = []
        for size in range(1, len(reduced) + 1):
            for tie in combinations(reduced, size):
                if sum(len(groups[m]) for m in tie) >= 2:
                    others = [m for m in reduced if m not in tie]
                    piece = _face_piece(self, classes, tie, others, groups)
                    if piece is not None:
                        pieces.append(piece)
        return tuple(pieces)

    def symmetry_classes(self) -> list[list[int]]:
        """Variable classes interchangeable by symmetries of the monomial set."""
        mset = frozenset(self.exponents)
        parent = list(range(self.nvars))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(self.nvars):
            for j in range(i + 1, self.nvars):
                swapped = frozenset(tuple(_swap(m, i, j)) for m in self.exponents)
                if swapped == mset:
                    parent[find(i)] = find(j)
        classes: dict[int, list[int]] = {}
        for i in range(self.nvars):
            classes.setdefault(find(i), []).append(i)
        return sorted(classes.values())


def _face_piece(model, classes, tie, others, groups) -> ConvexPiece | None:
    """The piece where the reduced monomials `tie` tie at or below `others`,
    in class weights y (one per symmetry class); None when no positive weight
    lies there, or when the ties force one of `others` to tie as well (the
    larger face then has the same cell).  `groups` maps a reduced monomial to
    the monomials it stands for.

    The cell lives in the coordinates z of y = sum_i z_i b_i over the kernel
    basis b_i of the ties.  Each b_i is cleared to the integer vector s_i b_i,
    so the cell's rows are integers in z'_i = z_i / s_i and
    `exactgeom.int_cone_rays` gives its rays.  Each ray maps back to the
    primitive z with z_i = s_i z'_i, which orders the rays as `cone_rays` in
    z would, and to the integer weight y' = sum_i z'_i s_i b_i on the ray of
    y.  The interior and klt tests read only signs, so they run on y'; the
    slice vertex y' n / <logdisc, y'> is the only `Fraction`, and it does not
    depend on the scale of y'.
    """
    dim = len(classes)
    m = tie[0]
    basis = nullspace([[a - b for a, b in zip(t, m)] for t in tie[1:]], dim)
    if not basis:
        return None
    scales = [math.lcm(*(c.denominator for c in b)) for b in basis]
    cols = [[c.numerator * (s // c.denominator) for c in b] for b, s in zip(basis, scales)]
    diffs = [[a - e for a, e in zip(o, m)] for o in others]
    # the closed cell in z': every y_j >= 0 and every <o - m, y> >= 0
    cons = [[col[j] for col in cols] for j in range(dim)]
    cons += [[sum(map(mul, d, col)) for col in cols] for d in diffs]
    rays = []
    for ray in int_cone_rays(cons, len(cols)):
        z = [c * s for c, s in zip(ray, scales)]
        g = math.gcd(*z)
        y = [sum(c * col[j] for c, col in zip(ray, cols)) for j in range(dim)]
        rays.append((tuple(c // g for c in z), y))
    rays.sort()
    # the rays' sum is interior unless some row vanishes on the whole cell
    mean = [sum(col) for col in zip(*(y for _, y in rays))]
    if not rays or min(mean) <= 0 or any(sum(map(mul, d, mean)) <= 0 for d in diffs):
        return None
    logdisc = [len(cls) - e for cls, e in zip(classes, m)]
    heights = [sum(map(mul, logdisc, y)) for _, y in rays]
    if min(heights) <= 0:
        tied = [mono for t in tie for mono in groups[t]]
        raise ModelError(f"not klt: the log discrepancy is not positive where {tied} tie")
    nvars = sum(map(len, classes))
    class_of = [next(j for j, cls in enumerate(classes) if k in cls) for k in range(nvars)]

    def expand(y: Sequence) -> RVector:
        return RVector(y[class_of[k]] for k in range(nvars))

    def free(b: RVector) -> int:
        j = next(j for j in range(dim) if b[j] == 1 and all(o[j] == 0 for o in basis if o is not b))
        return classes[j][0]

    mono = groups[m][0]
    others_full = [groups[o][0] for o in others]
    return ConvexPiece(
        generators=model.reeb_generators,
        simplices=tuple(
            (e, tuple(l for l in range(nvars) if l != k)) for k, e in enumerate(mono) if e > 0
        ),
        row=RVector(1 - e for e in mono),
        basis=tuple(expand(b) for b in basis),
        free=tuple(free(b) for b in basis),
        bounds=tuple(RVector(a - e for a, e in zip(o, mono)) for o in others_full),
        vertices=tuple(
            expand([Fraction(model.n * c, h) for c in y]) for (_, y), h in zip(rays, heights)
        ),
    )


def _swap(vec: Sequence, i: int, j: int) -> list:
    out = list(vec)
    out[i], out[j] = out[j], out[i]
    return out


def akm_singularity(n: int, k: int) -> WeightedHomogeneousHypersurface:
    """z_1^2 + ... + z_n^2 + z_{n+1}^k = 0 in C^(n+1)."""
    if n < 2 or k < 1:
        raise ModelError("need n >= 2 and k >= 1")
    monomials = []
    for i in range(n):
        exps = [0] * (n + 1)
        exps[i] = 2
        monomials.append(exps)
    last = [0] * (n + 1)
    last[n] = k
    monomials.append(last)
    return WeightedHomogeneousHypersurface(
        nvars=n + 1,
        monomials=tuple(RVector(m) for m in monomials),
        label=f"A{k - 1}^{n}",
        canonical_xi=canonical_weights(n, k),
    )


def canonical_weights(n: int, k: int) -> MonomialValuation:
    """Weights (k, ..., k, 2) of the canonical torus action on the A_{k-1} cone."""
    if n < 2 or k < 1:
        raise ModelError("need n >= 2 and k >= 1")
    return MonomialValuation([k] * n + [2])


# -- toric model library ------------------------------------------------------


def affine_space(n: int) -> ToricConeSingularity:
    """C^n: the first orthant cone, canonical Reeb vector (1, ..., 1)."""
    rays = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return ToricConeSingularity.from_rays(rays, canonical_xi=[1] * n, label=f"C^{n}")


def cyclic_quotient_cone(r: int, a: int) -> ToricConeSingularity:
    """C^2 / (1/r)(1, a) with gcd(a, r) = 1; canonical Reeb vector (r, 1 - a).

    The weight monoid sits in the cone spanned by (1, 0) and (a, r); the
    pushforward of the order-of-vanishing valuation at the origin pairs to the
    monomial degree p + q, which is the stored canonical Reeb vector.
    """
    if r < 1:
        raise ModelError("r must be a positive integer")
    if r == 1:
        return affine_space(2)
    if math.gcd(a, r) != 1:
        raise ModelError("cyclic quotient data must have gcd(a, r) = 1")
    sigma_rays = [[0, 1], [r, -a]]
    return ToricConeSingularity.from_rays(
        sigma_rays, canonical_xi=[r, 1 - a], label=f"C^2/(1/{r})({1},{a})"
    )


def conifold() -> ToricConeSingularity:
    """xy = zw, the cone over a square; canonical Reeb vector (0, 0, 2).

    The canonical vector is scaled to match the hypersurface weights
    (2, 2, 2, 2) of the same singularity, giving A = 4.
    """
    rays = [[1, 0, 0], [0, 1, 0], [-1, 0, 1], [0, -1, 1]]
    return ToricConeSingularity.from_rays(rays, canonical_xi=[0, 0, 2], label="conifold")


# -- polarized cone numerology -------------------------------------------------


def fano_index_check(r, n: int) -> bool:
    """Index factor of an (n-1)-dimensional log-Fano base must lie in (0, n]."""
    r = rat(r)
    return 0 < r <= n


@dataclass(frozen=True)
class PolarizedConeData:
    """Cone over a polarized log-Fano base, reduced to (n, r, degH)."""

    n: int
    r: Fraction
    degH: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", rat(self.r))
        object.__setattr__(self, "degH", rat(self.degH))
        if self.degH <= 0:
            raise ModelError("degH must be positive")
        if not fano_index_check(self.r, self.n):
            raise InvalidIndex(f"r = {self.r} outside (0, {self.n}]")


@dataclass(frozen=True)
class ConeInvariants:
    beta: Fraction
    antilog_power: Fraction  # (-K - D)^n of the compactified cone
    nvol_lower_bound: Fraction  # (n/(n+1))^n * antilog_power
    nvol_canonical: Fraction  # r^n * degH = nvol of the canonical valuation


def cone_invariants(c: PolarizedConeData) -> ConeInvariants:
    """Cone angle, anti-log-canonical power, and the sharp lower bound.

    The bound (n/(n+1))^n (-K-D)^n collapses to r^n degH exactly, i.e. it is
    attained by the canonical valuation; the equality is asserted here.
    """
    n = c.n
    beta = c.r / n
    antilog_power = c.r**n * Fraction(n + 1, n) ** n * c.degH
    lower = Fraction(n, n + 1) ** n * antilog_power
    canonical = c.r**n * c.degH
    assert lower == canonical, "sharpness identity must hold exactly"
    return ConeInvariants(
        beta=beta,
        antilog_power=antilog_power,
        nvol_lower_bound=lower,
        nvol_canonical=canonical,
    )


# -- toric log-Fano example pipeline -------------------------------------------


@dataclass(frozen=True)
class ToricLogFanoReport:
    p_star: RVector
    gammas: tuple[Fraction, ...]
    lifted: Polytope
    frak_p_star: RVector
    s: Fraction
    beta_i: tuple[Fraction, ...]
    beta_n: Fraction


def toric_log_fano(facets: Sequence[Halfspace], r) -> ToricLogFanoReport:
    """Lift a lattice polytope to the cone polytope and verify the centroid law.

    Input facets describe P in R^(n-1) via <eta_i, x> + a_i >= 0.  The report
    carries the barycenter p*, the angles gamma_i = r l_i(p*), the lifted
    polytope with facets <eta_i, y'> + a_i y_n >= 0 and y_n <= 1, and the
    angles of the lifted pair at s = r (n+1)/n.  The lifted polytope is
    conv(0, P x {1}), so its vertices are the origin and (v, 1) over the
    vertices v of P, with no second vertex enumeration.  The lifted
    barycenter must equal n/(n+1) (p*, 1) exactly, which forces beta_n = r/n.
    """
    r = rat(r)
    if not facets:
        raise ModelError("no facets given")
    base_dim = facets[0].normal.dim
    n = base_dim + 1
    base = Polytope.from_hrep(list(facets), base_dim)
    if not base.is_full_dimensional:
        raise ModelError("base polytope is not full-dimensional")
    p_star = centroid(base)
    gammas = tuple(r * h.value(p_star) for h in facets)
    if any(g > 1 for g in gammas):
        raise AngleOutOfRange(f"some r*l_i(p*) exceeds 1: {tuple(map(str, gammas))}")
    if any(g <= 0 for g in gammas):
        raise AngleOutOfRange("barycenter must be interior: some l_i(p*) <= 0")
    lifted_hrep = [
        Halfspace(RVector(list(h.normal) + [h.offset]), Fraction(0)) for h in facets
    ]
    lifted_hrep.append(
        Halfspace(RVector([0] * base_dim + [-1]), Fraction(1))
    )
    # y_n >= 0 on the lifted facets because P is bounded and full-dimensional
    vrep = [RVector([0] * n)] + [RVector(list(v) + [1]) for v in base.vrep]
    lifted = Polytope(dim=n, hrep=tuple(lifted_hrep), vrep=tuple(sorted(vrep)))
    frak_p_star = centroid(lifted)
    expected = RVector(list(p_star) + [Fraction(1)]).scale(Fraction(n, n + 1))
    if frak_p_star != expected:
        raise ModelError("lifted barycenter violates the n/(n+1) law")
    s = r * Fraction(n + 1, n)
    beta_i = tuple(s * h.value(frak_p_star) for h in lifted_hrep[:-1])
    beta_n = s * lifted_hrep[-1].value(frak_p_star)
    assert beta_i == gammas
    assert beta_n == r / n
    return ToricLogFanoReport(
        p_star=p_star,
        gammas=gammas,
        lifted=lifted,
        frak_p_star=frak_p_star,
        s=s,
        beta_i=beta_i,
        beta_n=beta_n,
    )
