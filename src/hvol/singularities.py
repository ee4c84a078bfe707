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
  each model states its domain once, there;
* `reeb_generators`, the integer rows u with every <u, w> > 0 on admissible
  weights: the dual rays of a toric cone, the unit vectors of a hypersurface;
* `series_pieces(a)`, (D, pieces): the Hilbert series of the monomials graded
  by A = D a integral, pieces (weights, size, shifts) of sum_s t^s / prod_w
  (1 - t^w) over `size` shifts, which `valuation.lattice_count_oracle` sums;
* `simplicial_pieces(v0, v1)`, the (weight, knots) pairs that the volume
  profile of a filtration sums over (filtration.py);
* `convex_pieces`, the minimizer's convex programs (below);
* `canonical_xi`, the canonical grading where the model knows it (the toric
  library cones, the A_{k-1} cones of `akm_singularity`), None otherwise.

Behind the interface each model stores its lattice data as int tuples,
cleared once by its constructor: a toric cone's `sigma.rays`, `dual.rays`
and `gorenstein_numerators` (M, e) with m0 = M / e, a hypersurface's
`monomials`.  Its `convex_pieces` are int tuples too, rationals as integer
numerators over integer denominators (`ConvexPiece`).

The minimizer (reeb.py) reads `convex_pieces`: the convex programs whose
least minimum is the minimum of A^n vol.  A toric cone gives one piece, its
whole Reeb cone.  A hypersurface gives one piece per face of its domain, the
weights where a set of monomials ties at the least weight, taken over weights
constant on the `symmetry_classes`.  Its results are therefore the minimum
among monomial valuations in these coordinates with such weights, not over all
valuations.  The pieces, not a start point or a seed, fix every run:
`minimize --seed` and `--tol` change no report, and a hypersurface's `--init`
is checked to lie in the domain and then unused.

The toric log-Fano pipeline (`toric_log_fano`) takes a toric cone's integer
route through the cone over P x {1}; the `Fraction` polytope layer (vertex
enumeration, centroids) is its witness in `selftest` (criterion 11).
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import NamedTuple, NoReturn, Sequence

from .errors import (
    AngleOutOfRange,
    EmptyRegion,
    InvalidIndex,
    ModelError,
    NotInReebCone,
    NotQGorenstein,
    UnboundedRegion,
)
from .exactgeom import (
    PolyCone,
    RVector,
    _vector,
    dual_cone,
    facets_among,
    int_cone_rays,
    int_det,
    int_kernel,
    int_rank,
    rat,
    triangulate_cone,
)
from .valuation import (
    MonomialValuation,
    domain_logdisc_hypersurface,
    domain_logdisc_toric,
    hypersurface_pairings,
    initial_order,
    integer_pairings,
    log_discrepancy_hypersurface,
    log_discrepancy_toric,
    reduction_variable,
    series_pieces_toric,
    simplex_sum,
    valuation_volume_hypersurface,
    valuation_volume_toric,
)


class ConvexPiece(NamedTuple):
    """One convex program of the minimizer, in the model's weights w, in integers.

    The piece is the cone of w = sum_j z_j basis_j with every <u, w> > 0 over
    the `generators` u and <b, w> >= 0 over the `bounds` b; its coordinates are
    z_j = w[free_j], and basis_j = x / s for its pair (x, s), s = x[free_j].
    There A(w) = <R, w> / r for the `row` (R, r), and on the slice A = n the
    normalized volume is n^n F(w) with F(w) = sum_s d_s / prod_{u in s} <u, w>
    over the `simplices` (d_s, generator indices), a convex function wherever
    every <u, w> > 0.  The `vertices` of the closed slice are pairs (V, h),
    the vertex V / h.
    """

    generators: tuple[tuple[int, ...], ...]
    simplices: tuple[tuple[int, tuple[int, ...]], ...]
    row: tuple[tuple[int, ...], int]
    basis: tuple[tuple[tuple[int, ...], int], ...]
    free: tuple[int, ...]
    bounds: tuple[tuple[int, ...], ...]
    vertices: tuple[tuple[tuple[int, ...], int], ...]


class ToricConeSingularity:
    """X = Spec of the semigroup ring of sigma-dual; rays of sigma primitive.
    `gorenstein_numerators` is (M, e) with m0 = M / e (`_gorenstein_vector`)."""

    def __init__(
        self,
        n: int,
        sigma: PolyCone,
        gorenstein_numerators: tuple[tuple[int, ...], int],
        m0: RVector,
        dual: PolyCone,
        canonical_xi: RVector | None = None,
        label: str = "",
    ):
        self.n = n
        self.sigma = sigma
        self.gorenstein_numerators = gorenstein_numerators
        self.m0 = m0
        self.dual = dual
        self.canonical_xi = canonical_xi
        self.label = label

    def __repr__(self) -> str:
        return (
            f"ToricConeSingularity(n={self.n!r}, sigma={self.sigma!r}, "
            f"gorenstein_numerators={self.gorenstein_numerators!r}, m0={self.m0!r}, "
            f"canonical_xi={self.canonical_xi!r}, label={self.label!r})"
        )

    @classmethod
    def from_rays(
        cls,
        rays: Sequence[Sequence],
        canonical_xi: Sequence | None = None,
        label: str = "",
    ) -> "ToricConeSingularity":
        sigma = PolyCone.from_rays(rays)
        dual = dual_cone(sigma)
        m, e = numerators = _gorenstein_vector(sigma)
        m0 = RVector(Fraction(c, e) for c in m)
        xi = RVector(canonical_xi) if canonical_xi is not None else None
        return cls(sigma.dim, sigma, numerators, m0, dual, canonical_xi=xi, label=label)

    @property
    def reeb_generators(self) -> tuple[tuple[int, ...], ...]:
        """Rays of the dual cone; xi is Reeb iff it pairs positively with all
        of them."""
        return self.dual.rays

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
        piece = ConvexPiece(
            generators=self.reeb_generators,
            simplices=self.volume_triangulation,
            row=self.gorenstein_numerators,
            basis=tuple((tuple(int(i == j) for j in range(self.n)), 1) for i in range(self.n)),
            free=tuple(range(self.n)),
            bounds=(),
            vertices=tuple((tuple(self.n * c for c in ray), 1) for ray in self.sigma.rays),
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

    def series_pieces(self, a: Sequence) -> tuple[int, list]:
        """Half-open cones of `volume_triangulation` (`valuation.series_pieces_toric`)."""
        return series_pieces_toric(self, a)

    def simplicial_pieces(self, v0: RVector, v1: RVector) -> list[tuple[Fraction, tuple]]:
        """(weight, knots) per simplicial cone s of `volume_triangulation`:
        |det U_s| / prod_{u in s} <u, v0>, the terms of n! vol(v0), and the
        ratios <u, v1> / <u, v0>.  Both must be Reeb vectors."""
        (p0, d0), (p1, d1) = (integer_pairings(self.reeb_generators, xi)[1:] for xi in (v0, v1))
        for xi, pairings in ((v0, p0), (v1, p1)):
            if min(pairings) <= 0:
                raise NotInReebCone(f"{xi} is not in the Reeb cone")
        return [
            (
                Fraction(d * d0**self.n, math.prod(p0[i] for i in rays)),
                tuple(Fraction(p1[i] * d0, p0[i] * d1) for i in rays),
            )
            for d, rays in self.volume_triangulation
        ]


def _gorenstein_vector(sigma: PolyCone) -> tuple[tuple[int, ...], int]:
    """(M, e) with m0 = M / e pairing to 1 with every primitive ray u, in
    integers.  Since the rays span, the rows (u, -1) have at most one kernel
    vector, the primitive (M, e) with e > 0 (`int_kernel`; e is its free
    column), and <M, u> = e on every ray; with none, no covector pairs to 1
    with every ray."""
    kernel = int_kernel([ray + (-1,) for ray in sigma.rays], sigma.dim + 1)
    if not kernel:
        raise NotQGorenstein("no covector pairs to 1 with every primitive ray")
    *m, e = kernel[0][1]
    return tuple(m), e


class WeightedHomogeneousHypersurface:
    """Hypersurface {sum of monomials = 0} in C^(n+1), coefficients generic.
    The `monomials` are its exponent vectors, stored as int tuples."""

    def __init__(
        self,
        nvars: int,
        monomials: Sequence[Sequence],
        label: str = "",
        canonical_xi: RVector | None = None,
    ):
        if nvars < 2:
            raise ModelError("a hypersurface germ needs dimension n >= 1")
        if len(monomials) < 2:
            raise ModelError("a hypersurface model needs at least two monomials")
        mons = []
        for m in monomials:
            exps = [rat(e) for e in m]
            if len(exps) != nvars:
                raise ModelError("monomial exponent length does not match nvars")
            if any(e < 0 or e.denominator != 1 for e in exps):
                raise ModelError("exponents must be nonnegative integers")
            mons.append(tuple(e.numerator for e in exps))
        self.nvars = nvars
        self.monomials = tuple(mons)
        self.label = label
        self.canonical_xi = canonical_xi

    def __repr__(self) -> str:
        return (
            f"WeightedHomogeneousHypersurface(nvars={self.nvars!r}, monomials={self.monomials!r}, "
            f"label={self.label!r}, canonical_xi={self.canonical_xi!r})"
        )

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
        """d(a) / prod(a); raises NotInReebCone unless every weight is positive,
        ModelError if one monomial has the least weight."""
        return valuation_volume_hypersurface(self, a)

    def domain_logdisc(self, a: Sequence) -> Fraction | None:
        """sum(a) - d(a) when the weights are positive and tie at least two
        monomials at d(a), where volume is defined, and None otherwise."""
        return domain_logdisc_hypersurface(self, a)

    def series_pieces(self, a: Sequence) -> tuple[int, list]:
        """(D, [piece]), A = D a: the standard monomials, exponent below exp in the
        reduction variable, sum_{j < exp} t^(j A_red) / prod_{i != red} (1 - t^A_i).
        Refused outside the domain of `volume`, with its ModelError."""
        z, weights, denom = hypersurface_pairings(self, a)
        initial_order(weights)
        red, exp = reduction_variable(self, a)
        return denom, [(z[:red] + z[red + 1 :], exp, range(0, exp * z[red], z[red]))]

    def simplicial_pieces(self, v0: RVector, v1: RVector) -> list[tuple[Fraction, tuple]]:
        """One (weight, knots) pair: the orthant of the variables other than
        v1's reduction variable, with weight exp / prod v0_i, exp that
        variable's exponent, and knots v1_i / v0_i.  Weights must be positive."""
        v0, v1 = RVector(v0), RVector(v1)
        hypersurface_pairings(self, v0)
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
        for mono in self.monomials:
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
        mset = frozenset(self.monomials)
        parent = list(range(self.nvars))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(self.nvars):
            for j in range(i + 1, self.nvars):
                swapped = frozenset(tuple(_swap(m, i, j)) for m in self.monomials)
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

    The cell lives in the coordinates z of y = sum_f z_f b_f over the kernel
    basis of the ties (`exactgeom.int_kernel`): one primitive integer vector
    x per free column f, with b_f = x / x_f.  So the cell's rows are integers
    in z'_f = z_f / x_f, and the integer double description
    (`exactgeom.int_cone_rays`) gives its extreme rays.  Each ray maps back
    to the primitive z with z_f = x_f z'_f, the key that sorts the rays, and
    to the integer weight y' = sum_f z'_f x on the ray of y.
    The interior and klt tests read only signs, so they run on y'; the slice
    vertex is the pair (n y', <logdisc, y'>) and the basis vector b_f the pair
    (x, x_f), each variable taking the entry of its class.  A piece's
    coordinate for b_f is the weight of the first variable of class f.
    """
    dim = len(classes)
    m = tie[0]
    kernel = int_kernel([[a - b for a, b in zip(t, m)] for t in tie[1:]], dim)
    if not kernel:
        return None
    cols = [x for _, x in kernel]
    scales = [x[f] for f, x in kernel]
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
    mono = groups[m][0]
    others_full = [groups[o][0] for o in others]
    return ConvexPiece(
        generators=model.reeb_generators,
        simplices=tuple(
            (e, tuple(l for l in range(nvars) if l != k)) for k, e in enumerate(mono) if e > 0
        ),
        row=(tuple(1 - e for e in mono), 1),
        basis=tuple((tuple(x[j] for j in class_of), x[f]) for f, x in kernel),
        free=tuple(classes[f][0] for f, _ in kernel),
        bounds=tuple(tuple(a - e for a, e in zip(o, mono)) for o in others_full),
        vertices=tuple(
            (tuple(model.n * y[j] for j in class_of), h) for (_, y), h in zip(rays, heights)
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
        monomials=tuple(map(tuple, monomials)),
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


class PolarizedConeData:
    """Cone over a polarized log-Fano base, reduced to (n, r, degH)."""

    def __init__(self, n: int, r, degH):
        self.n = n
        self.r = rat(r)
        self.degH = rat(degH)
        if self.degH <= 0:
            raise ModelError("degH must be positive")
        if not fano_index_check(self.r, self.n):
            raise InvalidIndex(f"r = {self.r} outside (0, {self.n}]")

    def __repr__(self) -> str:
        return f"PolarizedConeData(n={self.n!r}, r={self.r!r}, degH={self.degH!r})"


class ConeInvariants(NamedTuple):
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


class ToricLogFanoPair(NamedTuple):
    """A toric log-Fano pair as `toric_log_fano` reads it: the facets of
    P = {x : <eta_i, x> + a_i >= 0} as integer rows (R_i, c_i), R_i = c_i
    (eta_i, a_i) with c_i > 0, and the index r."""

    facets: Sequence[tuple[Sequence[int], int]]
    r: Fraction


class ToricLogFanoReport(NamedTuple):
    p_star: RVector
    gammas: tuple[Fraction, ...]
    frak_p_star: RVector
    s: Fraction
    beta_i: tuple[Fraction, ...]
    beta_n: Fraction


def toric_log_fano(facets: Sequence[tuple[Sequence[int], int]], r) -> ToricLogFanoReport:
    """The barycenters and angles of a toric log-Fano pair and of its lift.

    P in R^(n-1) is {<eta_i, x> + a_i >= 0}, facet i the integer row (R_i,
    c_i), R_i = c_i (eta_i, a_i), c_i > 0.  The report holds the barycenter
    p* of P, gamma_i = r l_i(p*), the barycenter frak_p* of the lifted
    polytope {<eta_i, y'> + a_i y_n >= 0, y_n <= 1} = conv(0, P x {1}), and
    beta_i, beta_n of the lifted pair at s = r (n+1)/n; r <= 0 is an
    InvalidIndex.  `hvol compute` checks the law frak_p* = n/(n+1) (p*, 1).

    One double description gives the rays (V_j, D_j) of the cone {<eta_i, x>
    + a_i t >= 0, t >= 0} over P x {1}, its facets are among those rows
    (`facets_among`), and `triangulate_cone` gives its simplicial cones.
    frak_p* is -grad F / ((n+1) F) at e_n, F the simplex sum over the cones
    (Martelli-Sparks-Yau, hep-th/0503183).  p* is read apart from it:
    each cone cuts out the simplex of P on the vertices V_i / D_i, weighted
    by its own (n-1)-dimensional |det|.  A lineality space, a ray with t = 0
    or no ray with t > 0 refuses P as vertex enumeration does, and rays of
    rank below n make P lower-dimensional, a ModelError.
    """
    r = rat(r)
    if r <= 0:
        raise InvalidIndex(f"r = {r} is not positive")
    if not facets:
        raise ModelError("no facets given")
    rows = [row for row, _ in facets]
    n = len(rows[0])
    e_n = [0] * (n - 1) + [1]
    rays = int_cone_rays([*rows, e_n], n)
    if not rays or rays[0] == tuple(-c for c in rays[-1]):
        _refuse_region(rows, n)
    directions = [ray for ray in rays if not ray[-1]]
    if len(directions) == len(rays):
        raise EmptyRegion("no feasible vertex")
    if directions:
        raise UnboundedRegion(f"recession direction {RVector(directions[0][:-1])}")
    if int_rank(rays) < n:
        raise ModelError("base polytope is not full-dimensional")
    cone = PolyCone(dim=n, rays=tuple(rays))
    cone.facets = facets_among([*rows, e_n], rays)
    cones = triangulate_cone(cone)
    # the simplex of P in each cone, its vertices cleared to one denominator L
    scale = math.lcm(*(ray[-1] for ray in rays))
    points = [[c * (scale // ray[-1]) for c in ray[:-1]] for ray in rays]
    weight, moments = 0, [0] * (n - 1)
    for _, cone in cones:
        base, *others = (points[i] for i in cone)
        d = abs(int_det([[a - b for a, b in zip(v, base)] for v in others]))
        weight += d
        moments = [m + d * sum(coords) for m, coords in zip(moments, zip(base, *others))]
    # (p*, 1) = point / den
    den = n * scale * weight
    point = [*moments, den]
    p_star = _vector(Fraction(m, den) for m in moments)
    gammas = tuple(
        Fraction(r.numerator * sum(map(mul, row, point)), r.denominator * c * den)
        for row, c in facets
    )
    if any(g > 1 for g in gammas):
        try:
            texts = str(tuple(map(str, gammas)))
        except ValueError:  # past the digit limit of int-to-str conversion
            texts = "the gammas have too many digits to print"
        raise AngleOutOfRange(f"some r*l_i(p*) exceeds 1: {texts}")
    if any(g <= 0 for g in gammas):
        raise AngleOutOfRange("barycenter must be interior: some l_i(p*) <= 0")
    value, common, total = simplex_sum(rays, cones, e_n)
    # frak_p* = total / lifted_den
    lifted_den = (n + 1) * value * common
    s = r * Fraction(n + 1, n)
    return ToricLogFanoReport(
        p_star=p_star,
        gammas=gammas,
        frak_p_star=_vector(Fraction(t, lifted_den) for t in total),
        s=s,
        beta_i=tuple(
            Fraction(s.numerator * sum(map(mul, row, total)), s.denominator * c * lifted_den)
            for row, c in facets
        ),
        beta_n=s * Fraction(lifted_den - total[-1], lifted_den),
    )


def _refuse_region(rows: list[Sequence[int]], n: int) -> NoReturn:
    """Refuse P when the cone over it is {0} or has a lineality space, the
    kernel of the normals; P is then empty iff it has no point where the
    kernel's free columns are 0."""
    kernel = int_kernel([row[:-1] for row in rows], n - 1)
    if not kernel:
        raise EmptyRegion("no feasible vertex")
    free = {f for f, _ in kernel}
    restricted = [[c for j, c in enumerate(row) if j not in free] for row in rows]
    dim = n - len(kernel)
    if not any(ray[-1] for ray in int_cone_rays([*restricted, [0] * (dim - 1) + [1]], dim)):
        raise EmptyRegion("no feasible point")
    raise UnboundedRegion(f"recession direction {RVector(kernel[0][1])}")
