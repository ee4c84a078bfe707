"""Exact rational linear algebra and convex geometry.

Everything here is computed over ``fractions.Fraction``: vertex enumeration,
polytope volumes, centroids, dual cones, cone truncation and cone
triangulation.  They build each toric model's triangulation once and measure
the polytopes that the self-tests compare closed forms against, and the
acceptance identities they feed are exact equalities, so no floating point is
allowed to enter.

Conventions
-----------
* A :class:`Halfspace` ``(normal, offset)`` is the set ``{x : <normal, x> +
  offset >= 0}``.
* A :class:`PolyCone` is pointed and full-dimensional; it stores generating
  rays (primitive integer vectors) and, when available, its facet halfspaces
  (offset 0).
* Vertex enumeration solves every d-subset of the facet system exactly and
  filters by feasibility; fine for the desk-scale inputs this package targets
  (<= ~20 facets in dimension <= 6).
* Volumes come from a recursive fan triangulation anchored at the
  lexicographically smallest vertex, which makes results reproducible; a
  cone is triangulated by fanning one cross-section the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    DegeneratePolytope,
    EmptyRegion,
    NotFullDimensional,
    NotInReebCone,
    UnboundedRegion,
)


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing to coerce float {x!r} to an exact rational")
    return Fraction(x)


class RVector(tuple):
    """Immutable rational vector; tuple ordering gives lexicographic ties."""

    def __new__(cls, coords: Iterable) -> "RVector":
        return super().__new__(cls, tuple(rat(c) for c in coords))

    @property
    def dim(self) -> int:
        return len(self)

    def dot(self, other: Sequence) -> Fraction:
        if len(self) != len(other):
            raise ValueError("dimension mismatch")
        return sum((a * b for a, b in zip(self, other)), Fraction(0))

    def __add__(self, other):
        return RVector(a + b for a, b in zip(self, other))

    def __sub__(self, other):
        return RVector(a - b for a, b in zip(self, other))

    def __neg__(self):
        return RVector(-a for a in self)

    def scale(self, factor) -> "RVector":
        f = rat(factor)
        return RVector(f * a for a in self)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self)

    def primitive(self) -> "RVector":
        """Scale to the primitive integer vector on the same ray."""
        if self.is_zero():
            return self
        denom = math.lcm(*(c.denominator for c in self))
        ints = [int(c * denom) for c in self]
        g = math.gcd(*(abs(v) for v in ints))
        return RVector(Fraction(v, g) for v in ints)

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self)


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace {x : <normal, x> + offset >= 0}."""

    normal: RVector
    offset: Fraction

    def __post_init__(self):
        if self.normal.is_zero():
            raise ValueError("halfspace normal must be nonzero")
        object.__setattr__(self, "normal", RVector(self.normal))
        object.__setattr__(self, "offset", rat(self.offset))

    def value(self, point: Sequence) -> Fraction:
        return self.normal.dot(point) + self.offset

    def contains(self, point: Sequence) -> bool:
        return self.value(point) >= 0


# -- exact dense linear algebra over Fraction ------------------------------


def solve_square(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve a square rational system; returns None if singular."""
    n = len(rows)
    a = [list(map(rat, row)) + [rat(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return RVector(a[r][n] for r in range(n))


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    a = [list(map(rat, row)) for row in rows]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [v * inv for v in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[rank])]
        rank += 1
        if rank == len(a):
            break
    return rank


def nullspace(rows: Sequence[Sequence[Fraction]], dim: int) -> list[RVector]:
    """Basis of {x : row . x = 0 for all rows} in ambient dimension dim."""
    a = [list(map(rat, row)) for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(dim):
        pivot = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = 1 / a[rank][col]
        a[rank] = [v * inv for v in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for fcol in free:
        vec = [Fraction(0)] * dim
        vec[fcol] = Fraction(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -a[r][fcol]
        basis.append(RVector(vec))
    return basis


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(rows)
    a = [list(map(rat, row)) for row in rows]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        result *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return sign * result


def affine_rank(points: Sequence[RVector]) -> int:
    """Dimension of the affine hull of the given points."""
    if len(points) <= 1:
        return 0
    base = points[0]
    return matrix_rank([list(p - base) for p in points[1:]])


# -- vertex enumeration -----------------------------------------------------


def _recession_direction(hrep: Sequence[Halfspace], dim: int) -> RVector | None:
    """A nonzero direction in {x : <normal, x> >= 0 for all halfspaces}, if any."""
    normals = [list(h.normal) for h in hrep]
    for vec in nullspace(normals, dim):
        return vec  # lineality direction: recession in both senses
    if dim == 1:
        for cand in (RVector([1]), RVector([-1])):
            if all(h.normal.dot(cand) >= 0 for h in hrep):
                return cand
        return None
    for subset in combinations(range(len(normals)), dim - 1):
        dirs = nullspace([normals[i] for i in subset], dim)
        if len(dirs) != 1:
            continue
        for cand in (dirs[0], -dirs[0]):
            if all(h.normal.dot(cand) >= 0 for h in hrep):
                return cand
    return None


def vertex_enumerate(hrep: Sequence[Halfspace], dim: int) -> list[RVector]:
    """All vertices of the polytope cut out by hrep, exactly and deduplicated.

    Raises UnboundedRegion if the feasible region has a recession direction,
    EmptyRegion if it is infeasible.
    """
    hrep = list(hrep)
    if len(hrep) < dim + 1:
        # fewer than dim+1 halfspaces can never bound a full-dimensional region
        raise UnboundedRegion(f"only {len(hrep)} halfspaces in dimension {dim}")
    found: dict[tuple, RVector] = {}
    for subset in combinations(hrep, dim):
        point = solve_square(
            [list(h.normal) for h in subset], [-h.offset for h in subset]
        )
        if point is None:
            continue
        if all(h.value(point) >= 0 for h in hrep):
            found.setdefault(tuple(point), point)
    direction = _recession_direction(hrep, dim)
    if direction is not None and (found or _feasible_somewhere(hrep, dim)):
        raise UnboundedRegion(f"recession direction {tuple(direction)}")
    if not found:
        raise EmptyRegion("no feasible vertex")
    return sorted(found.values())


def _feasible_somewhere(hrep: Sequence[Halfspace], dim: int) -> bool:
    # Cheap feasibility probe used only to distinguish empty from unbounded:
    # vertices of relaxed subsystems witness nonemptiness in the common cases.
    for subset in combinations(hrep, min(dim, len(hrep))):
        point = solve_square(
            [list(h.normal) for h in subset], [-h.offset for h in subset]
        )
        if point is not None and all(h.value(point) >= 0 for h in hrep):
            return True
    return False


# -- polytopes --------------------------------------------------------------


@dataclass
class Polytope:
    """Bounded intersection of halfspaces together with its vertex set."""

    dim: int
    hrep: tuple[Halfspace, ...]
    vrep: tuple[RVector, ...]

    @classmethod
    def from_hrep(cls, hrep: Sequence[Halfspace], dim: int) -> "Polytope":
        vertices = vertex_enumerate(hrep, dim)
        return cls(dim=dim, hrep=tuple(hrep), vrep=tuple(vertices))

    @property
    def is_full_dimensional(self) -> bool:
        return affine_rank(list(self.vrep)) == self.dim

    def scale(self, factor) -> "Polytope":
        f = rat(factor)
        return Polytope(
            dim=self.dim,
            hrep=tuple(Halfspace(h.normal, h.offset * f) for h in self.hrep),
            vrep=tuple(v.scale(f) for v in self.vrep),
        )


def _fan_simplices(
    vertices: Sequence[RVector], hrep: Sequence[Halfspace], face_dim: int
) -> list[tuple[RVector, ...]]:
    """Triangulate a face_dim-dimensional face by fanning from its lex-min vertex."""
    verts = sorted(vertices)
    if face_dim == 1:
        if len(verts) != 2:
            raise DegeneratePolytope(f"edge with {len(verts)} vertices")
        return [tuple(verts)]
    if len(verts) == face_dim + 1:
        return [tuple(verts)]
    apex = verts[0]
    simplices: list[tuple[RVector, ...]] = []
    seen: set[tuple] = set()
    for h in hrep:
        if h.value(apex) == 0:
            continue  # facets through the apex contribute no volume to the fan
        face = tuple(sorted(v for v in verts if h.value(v) == 0))
        if len(face) < face_dim or face in seen:
            continue
        if affine_rank(list(face)) != face_dim - 1:
            continue
        seen.add(face)
        for sub in _fan_simplices(face, hrep, face_dim - 1):
            simplices.append(sub + (apex,))
    return simplices


def _simplex_decomposition(p: Polytope) -> list[tuple[Fraction, RVector]]:
    """(|det|, centroid) for each simplex of the fan triangulation."""
    if not p.hrep:
        raise DegeneratePolytope("triangulation requires the halfspace description")
    pieces = []
    for simplex in _fan_simplices(p.vrep, p.hrep, p.dim):
        base = simplex[0]
        d = abs(det([list(v - base) for v in simplex[1:]]))
        if d == 0:
            continue
        centroid = RVector(
            sum(coords, Fraction(0)) / (p.dim + 1) for coords in zip(*simplex)
        )
        pieces.append((d, centroid))
    return pieces


def polytope_volume(p: Polytope) -> Fraction:
    """Exact Euclidean volume; degenerate polytopes report 0 (see is_full_dimensional)."""
    if not p.is_full_dimensional:
        return Fraction(0)
    total = sum((d for d, _ in _simplex_decomposition(p)), Fraction(0))
    return total / math.factorial(p.dim)


def centroid(p: Polytope) -> RVector:
    """Exact center of mass with respect to Lebesgue measure."""
    if not p.is_full_dimensional:
        raise DegeneratePolytope("centroid of a lower-dimensional polytope")
    pieces = _simplex_decomposition(p)
    total = sum((d for d, _ in pieces), Fraction(0))
    acc = RVector([Fraction(0)] * p.dim)
    for d, c in pieces:
        acc = acc + c.scale(d)
    return acc.scale(1 / total)


# -- polyhedral cones -------------------------------------------------------


@dataclass
class PolyCone:
    """Pointed full-dimensional rational cone, rays and/or facet normals."""

    dim: int
    rays: tuple[RVector, ...]
    facets: tuple[Halfspace, ...] | None = None

    @classmethod
    def from_rays(cls, rays: Sequence[Sequence], dim: int | None = None) -> "PolyCone":
        vecs = [RVector(r).primitive() for r in rays]
        if not vecs:
            raise NotFullDimensional("a cone needs at least one ray")
        d = dim if dim is not None else vecs[0].dim
        if matrix_rank([list(v) for v in vecs]) != d:
            raise NotFullDimensional("rays do not span the ambient space")
        unique: dict[tuple, RVector] = {}
        for v in vecs:
            unique.setdefault(tuple(v), v)
        return cls(dim=d, rays=tuple(sorted(unique.values())))

    def facet_halfspaces(self) -> tuple[Halfspace, ...]:
        if self.facets is None:
            dual = dual_cone(self)
            self.facets = tuple(
                Halfspace(ray, Fraction(0)) for ray in dual.rays
            )
        return self.facets

    def contains(self, point: Sequence) -> bool:
        return all(h.contains(point) for h in self.facet_halfspaces())


def dual_cone(c: PolyCone) -> PolyCone:
    """{y : <y, u> >= 0 for every ray u of c}; involutive on pointed cones."""
    normals = [list(r) for r in c.rays]
    dim = c.dim
    rays: dict[tuple, RVector] = {}
    if dim == 1:
        for cand in (RVector([1]), RVector([-1])):
            if all(RVector(n).dot(cand) >= 0 for n in normals):
                rays.setdefault(tuple(cand), cand)
    for subset in combinations(range(len(normals)), dim - 1):
        dirs = nullspace([normals[i] for i in subset], dim)
        if len(dirs) != 1:
            continue
        for cand in (dirs[0].primitive(), (-dirs[0]).primitive()):
            if all(RVector(n).dot(cand) >= 0 for n in normals) and not cand.is_zero():
                rays.setdefault(tuple(cand), cand)
    result_rays = sorted(rays.values())
    if matrix_rank([list(v) for v in result_rays]) != dim:
        raise NotFullDimensional("dual cone is not full-dimensional (input not pointed)")
    return PolyCone(
        dim=dim,
        rays=tuple(result_rays),
        facets=tuple(Halfspace(RVector(r), Fraction(0)) for r in c.rays),
    )


def cut_cone(c: PolyCone, xi: Sequence) -> Polytope:
    """{y in c : <y, xi> <= 1}; requires xi strictly positive on the rays of c."""
    xi = RVector(xi)
    for ray in c.rays:
        if ray.dot(xi) <= 0:
            raise NotInReebCone(f"ray {tuple(ray)} pairs nonpositively with {tuple(xi)}")
    hrep = list(c.facet_halfspaces()) + [Halfspace(-xi, Fraction(1))]
    return Polytope.from_hrep(hrep, c.dim)


def triangulate_cone(c: PolyCone) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Simplicial cones tiling c: (|det U_s|, indices into c.rays) for each s.

    The cross-section {<xi0, y> = 1} of c at xi0, the sum of c's facet
    normals, is fanned from its lex-min vertex; each cross-section vertex
    u / <u, xi0> names the ray u.  The tiling is checked once: summed at xi0,
    |det U_s| / prod <u, xi0> must give dim! times the volume of the cut
    polytope.
    """
    dim = c.dim
    xi0 = RVector([Fraction(0)] * dim)
    for h in c.facet_halfspaces():
        xi0 = xi0 + h.normal
    region = cut_cone(c, xi0)
    index = {tuple(ray.scale(1 / ray.dot(xi0))): i for i, ray in enumerate(c.rays)}
    section = [v for v in region.vrep if not v.is_zero()]
    simplices = []
    for simplex in _fan_simplices(section, region.hrep, dim - 1):
        rays = tuple(sorted(index[tuple(v)] for v in simplex))
        d = abs(det([list(c.rays[i]) for i in rays]))
        if d != 0:
            simplices.append((int(d), rays))
    tiled = sum(
        (Fraction(d, math.prod(int(c.rays[i].dot(xi0)) for i in rays)) for d, rays in simplices),
        Fraction(0),
    )
    expected = math.factorial(dim) * polytope_volume(region)
    if tiled != expected:
        raise DegeneratePolytope(f"simplicial cones cover {tiled}, the cut cone {expected}")
    return tuple(simplices)
