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
  by A = D a integral, pieces (weights, size, shifts, cancelled) of (sum_s t^s
  - sum_c t^c) / prod_w (1 - t^w), which `valuation.lattice_count_oracle` sums;
* `simplicial_pieces(v0, v1)`, the (weight, knots) pieces on n or n + 1 knots,
  in integer pairs, that the profile of a filtration sums (filtration.py);
* `convex_pieces`, the minimizer's convex programs (below);
* `canonical_xi`, the canonical grading where the model knows it (the toric
  library cones, the A_{k-1} cones of `akm_singularity`), None otherwise.

Behind the interface each model stores its lattice data as int tuples,
cleared once by its constructor: a toric cone's `sigma.rays`, `dual.rays`
and `gorenstein_numerators` (M, e), from which `m0` = M / e is read, a
hypersurface's `monomials`.  Each model states its formulas in its own
methods, as integer sums over the pairings of `valuation.integer_pairings`:
`reeb_pairings` of a toric cone and `pairings` of a hypersurface clear a
weight vector once and refuse it outside the Reeb cone.  Only `volume` calls
out, to its closed form in valuation.py, where the benchmark traces it.  The
`convex_pieces` are int tuples too, rationals as integer numerators over
integer denominators (`ConvexPiece`).

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
    _reduced,
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
    _half_open_degrees,
    initial_order,
    integer_pairings,
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
        dual: PolyCone,
        canonical_xi: RVector | None = None,
        label: str = "",
    ):
        self.n = n
        self.sigma = sigma
        self.gorenstein_numerators = gorenstein_numerators
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
        xi = RVector(canonical_xi) if canonical_xi is not None else None
        gorenstein = _gorenstein_vector(sigma, dual)
        return cls(sigma.dim, sigma, gorenstein, dual, canonical_xi=xi, label=label)

    @property
    def m0(self) -> RVector:
        """The Gorenstein vector M / e of `gorenstein_numerators`."""
        m, e = self.gorenstein_numerators
        return RVector(Fraction(c, e) for c in m)

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

    def reeb_pairings(self, xi: Sequence) -> tuple[list[int], list[int], int]:
        """`integer_pairings` of xi with the dual rays; a NotInReebCone unless
        xi is a Reeb vector, every pairing positive."""
        z, pairings, denom = integer_pairings(self.reeb_generators, xi)
        for gen, pairing in zip(self.reeb_generators, pairings):
            if pairing <= 0:
                raise NotInReebCone(
                    f"{RVector(xi)} pairs nonpositively with weight generator {RVector(gen)}"
                )
        return z, pairings, denom

    def logdisc(self, xi: Sequence) -> Fraction:
        """A(xi) = <m0, xi> = <M, z> / (e D) at xi = z / D, m0 = M / e; raises
        NotInReebCone outside the Reeb cone."""
        z, _, denom = self.reeb_pairings(xi)
        m, e = self.gorenstein_numerators
        return Fraction(sum(map(mul, m, z)), e * denom)

    def volume(self, xi: Sequence) -> Fraction:
        """n! times the volume of {y in the dual cone : <xi, y> <= 1}: the
        Martelli-Sparks-Yau closed form (hep-th/0503183) over
        `volume_triangulation`, which is built once per model."""
        return valuation_volume_toric(self, xi)

    def volume_gradient(self, xi: Sequence) -> RVector:
        """The gradient of n! vol at xi, exactly: `simplex_sum` over
        `volume_triangulation`, which differentiates `volume` term by term."""
        z, _, denom = self.reeb_pairings(xi)
        _, common, total = simplex_sum(self.reeb_generators, self.volume_triangulation, z)
        return RVector(Fraction(-t * denom ** (self.n + 1), common * common) for t in total)

    def domain_logdisc(self, xi: Sequence) -> Fraction | None:
        """A(xi) when xi lies in the Reeb cone, where logdisc and volume are
        defined, and None otherwise."""
        z, pairings, denom = integer_pairings(self.reeb_generators, xi)
        if min(pairings) <= 0:
            return None
        m, e = self.gorenstein_numerators
        return Fraction(sum(map(mul, m, z)), e * denom)

    def series_pieces(self, a: Sequence) -> tuple[int, list]:
        """(D, pieces) for the dual cone's lattice points graded by A = D a: per
        simplicial cone s of `volume_triangulation`, (<u, A> over u in s,
        |det U_s|, the lazy `_half_open_degrees`, ()); a must be a Reeb vector."""
        _, pairings, denom = self.reeb_pairings(a)
        rays = self.reeb_generators
        inner = [sum(col) for col in zip(*rays)]
        pieces = []
        for d, s in self.volume_triangulation:
            weights = [pairings[i] for i in s]
            shifts = _half_open_degrees([rays[i] for i in s], weights, inner, d)
            pieces.append((weights, d, shifts, ()))
        return denom, pieces

    def simplicial_pieces(self, v0: RVector, v1: RVector) -> list[tuple[int, int, tuple]]:
        """(weight num, weight den, knots) per simplicial cone s of
        `volume_triangulation`: the weight |det U_s| / prod_{u in s} <u, v0>,
        the term of n! vol(v0), and the knots <u, v1> / <u, v0>, each in
        lowest terms.  Both must be Reeb vectors."""
        (p0, d0), (p1, d1) = (integer_pairings(self.reeb_generators, xi)[1:] for xi in (v0, v1))
        for xi, pairings in ((v0, p0), (v1, p1)):
            if min(pairings) <= 0:
                raise NotInReebCone(f"{xi} is not in the Reeb cone")
        knots = [_reduced((b * d0, a * d1)) for a, b in zip(p0, p1)]
        scale = d0**self.n
        return [
            (*_reduced((d * scale, math.prod(p0[i] for i in rays))), tuple(knots[i] for i in rays))
            for d, rays in self.volume_triangulation
        ]


def _gorenstein_vector(sigma: PolyCone, dual: PolyCone) -> tuple[tuple[int, ...], int]:
    """(M, e) with m0 = M / e pairing to 1 with every primitive ray u, in
    integers, primitive with e > 0.  A cone with dim rays has it in closed
    form: each ray u_j of its dual pairs to 0 with every ray of sigma but
    one, rho_j, so <u_j, rho_j> = <u_j, s> for the sum s of the rays, and m0
    = sum_j u_j / <u_j, s>.  Otherwise, since the rays span, the rows (u, -1)
    have at most one kernel vector, the primitive (M, e) with e > 0
    (`int_kernel`; e is its free column), and <M, u> = e on every ray; with
    none, no covector pairs to 1 with every ray."""
    if len(sigma.rays) == sigma.dim:
        total = [sum(col) for col in zip(*sigma.rays)]
        duals = [(u, sum(map(mul, u, total))) for u in dual.rays]
        e = math.lcm(*(p for _, p in duals))
        m = [sum(u[k] * (e // p) for u, p in duals) for k in range(sigma.dim)]
        g = math.gcd(e, *m)
        return tuple(c // g for c in m), e // g
    kernel = int_kernel([ray + (-1,) for ray in sigma.rays], sigma.dim + 1)
    if not kernel:
        raise NotQGorenstein("no covector pairs to 1 with every primitive ray")
    *m, e = kernel[0][1]
    return tuple(m), e


class WeightedHomogeneousHypersurface:
    """Hypersurface {sum of monomials = 0} in C^(n+1), coefficients generic.
    The `monomials` are its exponent vectors, stored as int tuples: distinct,
    since each counts once, and not constant, since the germ is at the origin."""

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
            exps = [e if type(e) is int else rat(e) for e in m]
            if len(exps) != nvars:
                raise ModelError("monomial exponent length does not match nvars")
            if any(e < 0 or e.denominator != 1 for e in exps):
                raise ModelError("exponents must be nonnegative integers")
            mono = tuple(e.numerator for e in exps)
            if not any(mono):
                raise ModelError(f"the constant monomial {list(mono)} is not 0 at the origin")
            if mono in mons:
                raise ModelError(f"monomial {list(mono)} is repeated")
            mons.append(mono)
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

    def pairings(self, a: Sequence) -> tuple[list[int], list[int], int]:
        """`integer_pairings` of the weights a with the monomial exponents; a
        NotInReebCone unless every weight is positive, the one error of every
        hypersurface formula that needs positive weights."""
        z, weights, denom = integer_pairings(self.monomials, a)
        if min(z) <= 0:
            raise NotInReebCone("hypersurface weights must be strictly positive")
        return z, weights, denom

    def logdisc(self, a: Sequence) -> Fraction:
        """sum(a) - d(a), d(a) the least a-weight <m, a> over the monomials m;
        may be nonpositive for non-klt input (flagged, not an error).  Raises
        NotInReebCone unless every weight is positive."""
        z, weights, denom = self.pairings(a)
        return Fraction(sum(z) - min(weights), denom)

    def volume(self, a: Sequence) -> Fraction:
        """d(a) / prod(a); raises NotInReebCone unless every weight is positive,
        ModelError if one monomial has the least weight."""
        return valuation_volume_hypersurface(self, a)

    def domain_logdisc(self, a: Sequence) -> Fraction | None:
        """sum(a) - d(a) when the weights are positive and tie at least two
        monomials at d(a), where volume is defined, and None otherwise."""
        z, weights, denom = integer_pairings(self.monomials, a)
        order = min(weights)
        if min(z) <= 0 or weights.count(order) < 2:
            return None
        return Fraction(sum(z) - order, denom)

    def series_pieces(self, a: Sequence) -> tuple[int, list]:
        """(D, [piece]), A = D a: (1 - t^alpha) / prod_i (1 - t^A_i), the Hilbert
        series of C[z] / (in_a f) with alpha the least weight.  Refused outside
        the domain of `volume`, with its ModelError."""
        z, weights, denom = self.pairings(a)
        return denom, [(z, 2, (0,), (initial_order(weights),))]

    def simplicial_pieces(self, v0: RVector, v1: RVector) -> list[tuple[int, int, tuple]]:
        """The Leibniz split of the numerator of (1 - x^alpha y^beta) / prod_i
        (1 - x^a_i y^b_i), the Hilbert series of C[z] / (in f) under (a, b) =
        (v0, v1): alpha is the least v0-weight of a monomial, beta the least
        v1-weight among those, k_i = b_i / a_i and j the first index of least
        knot.  Since alpha (1 - s) + beta lambda s = alpha (1 - s + lambda s
        k_j) - lambda s (alpha k_j - beta), the (weight num, weight den, knots)
        pieces are alpha / prod a on the knots but k_j and (alpha k_j - beta)
        / prod a <= 0 on all n + 1.  v0 must tie two monomials at alpha, as
        `volume` needs, and one of them have the least v1-weight of all.

        v1 may give a single monomial the least weight, so that in_{v1} f is a
        monomial and v1 is no valuation of the ring (`volume` refuses it).
        The pieces are then the profile of the monomial filtration of
        C[z] / (in_{v0} f) by v1-weight, not of a valuation."""
        z0, w0, d0 = self.pairings(v0)
        z1, w1, d1 = self.pairings(v1)
        alpha = initial_order(w0)
        beta = min(b for a, b in zip(w0, w1) if a == alpha)
        if beta != min(w1):
            raise ModelError("no monomial of least v0-weight has the least v1-weight")
        common = math.prod(z0)
        j = min(range(self.nvars), key=lambda i: z1[i] * (common // z0[i]))
        knots = [_reduced((b * d0, a * d1)) for a, b in zip(z0, z1)]
        # over v0 = z0 / d0 and v1 = z1 / d1: alpha / prod v0 = alpha d0^n /
        # prod z0, and alpha k_j - beta = (alpha z1_j - beta z0_j) / (z0_j d1)
        first = _reduced((alpha * d0**self.n, common))
        second = _reduced(((alpha * z1[j] - beta * z0[j]) * d0**self.nvars, z0[j] * d1 * common))
        return [(*first, tuple(knots[:j] + knots[j + 1 :])), (*second, tuple(knots))]

    @cached_property
    def convex_pieces(self) -> tuple[ConvexPiece, ...]:
        """One piece per face of the domain, over weights constant on the
        `symmetry_classes`.  Monomials that the symmetry identifies act as one
        monomial counted that often; a face is a set S of them, counted at
        least twice, that ties at the least weight.  There vol(w) =
        <m, w> / prod w = sum_k m_k / prod_{l != k} w_l for m in S, a sum of
        convex terms, and A = <1 - m, w>.  The face of S is a face of the
        closed cell of its first monomial m, where m has the least weight
        (`_monomial_cell`), so each such cell's extreme rays are found once,
        and a face's rays are the rays of its cell that lie on it."""
        classes = self.symmetry_classes()
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for mono in self.monomials:
            groups.setdefault(tuple(sum(mono[k] for k in cls) for cls in classes), []).append(mono)
        reduced = list(groups)
        cells: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        pieces = []
        for size in range(1, len(reduced) + 1):
            for tie in combinations(range(len(reduced)), size):
                if sum(len(groups[reduced[t]]) for t in tie) >= 2:
                    if tie[0] not in cells:
                        cells[tie[0]] = _monomial_cell(reduced, tie[0])
                    piece = _face_piece(self, classes, reduced, tie, groups, cells[tie[0]])
                    if piece is not None:
                        pieces.append(piece)
        return tuple(pieces)

    def symmetry_classes(self) -> list[list[int]]:
        """Variable classes interchangeable by symmetries of the monomial set.

        "Swapping i and j fixes the monomial set" is an equivalence, since
        (i k) = (i j)(j k)(i j), so each class is its least variable and the
        later variables that swap with it; placed variables are not tested."""
        mset = frozenset(self.monomials)
        placed: set[int] = set()
        classes = []
        for i in range(self.nvars):
            if i in placed:
                continue
            cls = [i] + [
                j
                for j in range(i + 1, self.nvars)
                if j not in placed
                and frozenset(tuple(_swap(m, i, j)) for m in self.monomials) == mset
            ]
            placed.update(cls)
            classes.append(cls)
        return classes


def _monomial_cell(
    reduced: Sequence[tuple[int, ...]], i: int
) -> list[tuple[tuple[int, ...], int]]:
    """The extreme rays y of the closed cell {y >= 0 : <o - m, y> >= 0 for
    every other o} of the reduced monomial m = reduced[i], in class weights,
    from one integer double description (`exactgeom.int_cone_rays`).  Each
    ray comes with the bitmask of the rows it is tight on: bit k for
    <reduced[k] - m, y> = 0, bit len(reduced) + j for y_j = 0."""
    m = reduced[i]
    dim = len(m)
    diffs = [[a - e for a, e in zip(o, m)] for o in reduced]
    units = [[int(k == j) for k in range(dim)] for j in range(dim)]
    rays = int_cone_rays(units + [d for k, d in enumerate(diffs) if k != i], dim)
    return [
        (
            y,
            sum(1 << k for k, d in enumerate(diffs) if k != i and not sum(map(mul, d, y)))
            | sum(1 << (len(reduced) + j) for j, c in enumerate(y) if not c),
        )
        for y in rays
    ]


def _face_piece(model, classes, reduced, tie, groups, cell) -> ConvexPiece | None:
    """The piece where the reduced monomials `reduced[t]`, t in `tie`, tie at
    or below the others, in class weights y (one per symmetry class); None
    when no positive weight lies there, or when the ties force another
    monomial to tie as well (the larger face then has the same cell).
    `groups` maps a reduced monomial to the monomials it stands for, and
    `cell` is `_monomial_cell` of the tie's first monomial m.

    The face is the face of m's cell on every tie row <t - m, y> = 0, and a
    face of a pointed cone holds exactly the cone's extreme rays that lie in
    it, so its rays are the cell's rays tight on those rows.  Inside it only
    the tie rows are tight, unless some other row (y_j >= 0 or <o - m, y> >=
    0) is tight on all of its rays.  The kernel basis of the ties
    (`exactgeom.int_kernel`) has one primitive integer vector x per free
    column f, with b_f = x / x_f, so the face lives in the coordinates z of
    y = sum_f z_f b_f, where z_f = y_f, and in z'_f = z_f / x_f its rows are
    integers.  Each ray is scaled to y' = sum_f z'_f x at its primitive
    integer z', and the rays are sorted by their primitive z.  The klt test
    reads only signs, so it runs on y'; the slice vertex is the pair (n y',
    <logdisc, y'>) and the basis vector b_f the pair (x, x_f), each variable
    taking the entry of its class.  A piece's coordinate for b_f is the
    weight of the first variable of class f.
    """
    dim = len(classes)
    m = reduced[tie[0]]
    need = sum(1 << t for t in tie[1:])
    face, tight = [], -1
    for y, mask in cell:
        if mask & need == need:
            face.append(y)
            tight &= mask
    if tight != need:  # no ray, or a row tight on the whole face
        return None
    kernel = int_kernel([[a - b for a, b in zip(reduced[t], m)] for t in tie[1:]], dim)
    rays = []
    for y in face:
        # z' = (y_f / x_f) lcm / g over the quotients' least common
        # denominator and their gcd after clearing it, so y' = y lcm / g
        lcm = math.lcm(*(x[f] // math.gcd(y[f], x[f]) for f, x in kernel))
        g = math.gcd(*(y[f] * lcm // x[f] for f, x in kernel))
        z = [y[f] for f, _ in kernel]
        h = math.gcd(*z)
        rays.append((tuple(c // h for c in z), [c * (lcm // g) for c in y]))
    rays.sort()
    logdisc = [len(cls) - e for cls, e in zip(classes, m)]
    heights = [sum(map(mul, logdisc, y)) for _, y in rays]
    if min(heights) <= 0:
        tied = [mono for t in tie for mono in groups[reduced[t]]]
        raise ModelError(f"not klt: the log discrepancy is not positive where {tied} tie")
    nvars = sum(map(len, classes))
    class_of = [next(j for j, cls in enumerate(classes) if k in cls) for k in range(nvars)]
    mono = groups[m][0]
    others_full = [groups[o][0] for k, o in enumerate(reduced) if k not in tie]
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
    attained by the canonical valuation.
    """
    n = c.n
    beta = c.r / n
    antilog_power = c.r**n * Fraction(n + 1, n) ** n * c.degH
    lower = Fraction(n, n + 1) ** n * antilog_power
    canonical = c.r**n * c.degH
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
