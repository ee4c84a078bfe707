"""Exact rational linear algebra and convex geometry.

Everything here is computed over ``fractions.Fraction`` or in integers:
vertex enumeration, polytope volumes, centroids, dual cones, cone truncation
and cone triangulation.  They build each toric model's triangulation once and
measure the polytopes that the self-tests compare closed forms against, and
the acceptance identities they feed are exact equalities, so no floating
point is allowed to enter.

Conventions
-----------
* A :class:`Halfspace` ``(normal, offset)`` is the set ``{x : <normal, x> +
  offset >= 0}``.
* A :class:`PolyCone` is pointed and full-dimensional; it stores its
  generating rays as sorted, distinct primitive integer tuples, and its
  facet normals (`facets`, the rays of the dual cone) the same way.
* :class:`RVector` arithmetic runs on integers: `+`, `-`, `scale` and
  unary `-` build each coordinate as one `Fraction(num, den)` from the
  operands' numerators and denominators, and `dot` sums integer products
  over a running common denominator and builds one `Fraction` at the end,
  so no `Fraction` operator dispatches per coordinate.
* Every exact linear-algebra decision runs on integer rows, fraction-free:
  `_echelon`, Bareiss elimination (Bareiss 1968), gives `int_rank` (also
  the affine rank of a polytope's vertices, cleared to one denominator) and
  `int_det` (the cofactor expansion up to 3 x 3); `int_kernel`,
  fraction-free Gauss-Jordan, gives kernel bases: the lineality space of
  `vertex_enumerate`, the tie kernels of a hypersurface's faces
  (`singularities._face_piece`) and a toric model's Gorenstein vector
  (`singularities._gorenstein_vector`); `int_cone_rays`, the integer double
  description, gives extreme rays: the rays of `dual_cone`, the vertices
  and recession directions of `vertex_enumerate` and the cells of a
  hypersurface's faces.  A rational row is cleared to integers once
  (`_integral`) before it enters them.
* A model's set-up stays on integers: `PolyCone.from_rays` clears each
  given ray to its primitive integer tuple once, and what follows reads the
  tuples as they are: `from_rays` and `dual_cone` test rank with `int_rank`,
  `dual_cone` takes the extreme rays with `int_cone_rays`, and
  `triangulate_cone` orders rays by an integer key.  An :class:`RVector`
  holds a rational point (a weight, a vertex), never a ray.
* Vertex enumeration runs in integers: each halfspace is cleared to one
  integer row (normal, offset) once, and the extreme rays (N, D) of the
  homogenized cone {(x, t) : <a, x> + b t >= 0, t >= 0} are the vertices
  N / D (D > 0) and the recession directions N (D = 0); a `Fraction` is
  built only for the vertices.  The double description's cost follows the
  rays of its intermediate cones, not the (d - 1)-subsets of rows, whose
  signed maximal minors are its witness (self-test criterion 12).
* One fan routine, `_fan`, triangulates a face by fanning from its
  lexicographically smallest vertex, which makes results reproducible.  It
  works on vertex indices and facet incidences.  A polytope's volume and
  centroid fan its vertices, cleared to one common denominator, with
  incidences, ranks, determinants and vertex sums in integers.  A cone
  (`triangulate_cone`) fans the cross-section whose vertices are its rays
  scaled to one affine hyperplane, so it needs no vertex enumeration:
  incidences and ranks come from integer pairings, and `certify_tiling`
  checks the result combinatorially.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from itertools import count
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    DegeneratePolytope,
    EmptyRegion,
    ModelError,
    NotFullDimensional,
    NotInReebCone,
    PreconditionViolated,
    UnboundedRegion,
)


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing to coerce float {x!r} to an exact rational")
    return Fraction(x)


def to_float(value, what: str, den: int = 1) -> float:
    """value / den as the nearest float, for a rational value (or an integer
    value over an integer den, by Python's correctly rounded int / int).
    A quotient beyond the float range raises PreconditionViolated naming
    `what`, instead of OverflowError."""
    try:
        return float(value) if den == 1 else value / den
    except OverflowError:
        raise PreconditionViolated(f"{what} is too large in magnitude for a float") from None


class RVector(tuple):
    """Immutable rational vector; tuple ordering gives lexicographic ties.

    Every coordinate is a `Fraction`.  The arithmetic reads the operands'
    integer numerators and denominators and builds each coordinate of the
    result as one `Fraction(num, den)`; `dot` sums over a running common
    denominator and builds one `Fraction` at the end.  An operand may hold
    ints where it holds Fractions; a float is refused, as `rat` refuses it.
    """

    def __new__(cls, coords: Iterable) -> "RVector":
        return super().__new__(cls, [c if type(c) is Fraction else rat(c) for c in coords])

    def __str__(self) -> str:  # '(9/5, 1)', not a tuple of Fraction reprs
        return "(" + ", ".join(map(str, self)) + ")"

    @property
    def dim(self) -> int:
        return len(self)

    def dot(self, other: Sequence) -> Fraction:
        if len(self) != len(other):
            raise ValueError("dimension mismatch")
        num, den = 0, 1
        for a, b in zip(self, other):
            if type(b) is int:
                p, q = a.numerator * b, a.denominator
            else:
                b = rat(b)
                p, q = a.numerator * b.numerator, a.denominator * b.denominator
            if q == den:
                num += p
            else:
                g = math.gcd(q, den)
                num = num * (q // g) + p * (den // g)
                den = den // g * q
        return Fraction(num, den)

    def __add__(self, other):
        return _vector(_sum_terms(a, 1, rat(b)) for a, b in zip(self, other))

    def __sub__(self, other):
        return _vector(_sum_terms(a, -1, rat(b)) for a, b in zip(self, other))

    def __neg__(self):
        return _vector(-a for a in self)

    def scale(self, factor) -> "RVector":
        f = rat(factor)
        num, den = f.numerator, f.denominator
        return _vector(Fraction(num * a.numerator, den * a.denominator) for a in self)

    def is_zero(self) -> bool:
        return not any(self)


def _vector(fractions: Iterable[Fraction]) -> RVector:
    """An RVector of coordinates that are already Fractions, unchecked."""
    return tuple.__new__(RVector, fractions)


def _sum_terms(a: Fraction, sign: int, b: Fraction) -> Fraction:
    """a + sign * b as one Fraction over the product of the denominators."""
    da, db = a.denominator, b.denominator
    return Fraction(a.numerator * db + sign * b.numerator * da, da * db)


class Halfspace:
    """Closed halfspace {x : <normal, x> + offset >= 0}."""

    def __init__(self, normal: Sequence, offset):
        self.normal = RVector(normal)
        self.offset = rat(offset)
        if self.normal.is_zero():
            raise ValueError("halfspace normal must be nonzero")

    def __eq__(self, other):
        if not isinstance(other, Halfspace):
            return NotImplemented
        return self.normal == other.normal and self.offset == other.offset

    def __repr__(self) -> str:
        return f"Halfspace(normal={self.normal!r}, offset={self.offset!r})"

    def value(self, point: Sequence) -> Fraction:
        return self.normal.dot(point) + self.offset

    @cached_property
    def row(self) -> tuple[list[int], int]:
        """(c (normal, offset), c) for the least positive integer c that
        clears the denominators (`_integral`), cleared on first use."""
        return _integral([*self.normal, self.offset])


# -- exact dense linear algebra ------------------------------------------------


def _integral(row) -> tuple[list[int], int]:
    """(s * row, s) for the least positive integer s that clears the
    denominators of a rational row; int entries pass as they are."""
    row = [c if type(c) is Fraction or type(c) is int else rat(c) for c in row]
    scale = math.lcm(*(c.denominator for c in row))
    return [c.numerator * (scale // c.denominator) for c in row], scale


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Bareiss fraction-free elimination of an integer matrix, skipping
    columns without a pivot: (rank, signed last pivot).  Each entry stays a
    minor of the input, so every division is exact; for a square matrix of
    full rank the signed last pivot is its determinant."""
    a = [list(r) for r in rows]
    ncols = len(a[0]) if a else 0
    sign, prev, rank = 1, 1, 0
    for col in range(ncols):
        if rank == len(a):
            break
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot], sign = a[pivot], a[rank], -sign
        top = a[rank]
        for i in range(rank + 1, len(a)):
            row = a[i]
            for j in range(col + 1, ncols):
                row[j] = (row[j] * top[col] - row[col] * top[j]) // prev
        prev = top[col]
        rank += 1
    return rank, sign * prev


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the cofactor expansion up to
    3 x 3, Bareiss elimination beyond."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    rank, pivot = _echelon(rows)
    return pivot if rank == len(rows) else 0


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by Bareiss elimination."""
    return _echelon(rows)[0]


def int_kernel(rows: Sequence[Sequence[int]], dim: int) -> list[tuple[int, tuple[int, ...]]]:
    """A basis of {x : <row, x> = 0 for every integer row of length dim}:
    (f, x) per free column f, x the primitive integer vector with x_f > 0
    and 0 on the other free columns.  Fraction-free Gauss-Jordan: each step
    cross-multiplies a row with the pivot row and divides it by its gcd, so
    each reduced row has a pivot p > 0 at its column c and 0 at the other
    pivots.  Then x_c / x_f = -row[f] / p: x / x_f is the Gauss-Jordan
    basis vector over Fraction."""
    a = [_primitive_row(row) for row in rows if any(row)]
    pivots: list[int] = []
    for col in range(dim):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        top = a[pivot] if a[pivot][col] > 0 else [-v for v in a[pivot]]
        a[pivot], a[rank] = a[rank], top
        for i, row in enumerate(a):
            if i != rank and row[col]:
                a[i] = _primitive_row([v * top[col] - row[col] * w for v, w in zip(row, top)])
        pivots.append(col)
    basis = []
    for f in (c for c in range(dim) if c not in pivots):
        scale = math.lcm(*(row[c] for c, row in zip(pivots, a) if row[f]))
        x = [0] * dim
        x[f] = scale
        for c, row in zip(pivots, a):
            x[c] = -row[f] * (scale // row[c])
        basis.append((f, tuple(_primitive_row(x))))
    return basis


def _primitive_row(row: Sequence[int]) -> list[int]:
    """An integer row divided by the gcd of its entries (a zero row as is)."""
    g = math.gcd(*row) or 1
    return [v // g for v in row]


def int_cone_rays(rows: Sequence[Sequence[int]], dim: int) -> list[tuple[int, ...]]:
    """Extreme rays of {x : <row, x> >= 0 for every integer row}, as
    primitive integer tuples in sorted order; when the rows have rank
    dim - 1, the kernel vector with both signs, and below that none.

    Integer double description (Motzkin et al. 1953; Fukuda-Prodon 1996) of
    the cone as lines + cone(rays), from the unit vectors as lines, each ray
    with the bitmask of the rows it is tight on.  A row that pairs nonzero
    with a line turns it, oriented positive, into a ray, and projects the
    other lines and the rays onto its kernel.  Any other row keeps the rays
    it pairs nonnegatively with, and combines a positive and a negative ray
    when they are adjacent: no third ray is tight on every row both are.
    """
    lines = [(0,) * i + (1,) + (0,) * (dim - 1 - i) for i in range(dim)]
    rays: list[tuple[tuple[int, ...], int]] = []
    for k, row in enumerate(rows):
        bit = 1 << k
        for i, line in enumerate(lines):
            q = sum(map(mul, row, line))
            if q:
                break
        else:
            kept, positive, negative = [], [], []
            for r, m in rays:
                p = sum(map(mul, row, r))
                if p < 0:
                    negative.append((r, m, p))
                else:
                    kept.append((r, m | bit) if p == 0 else (r, m))
                    if p:
                        positive.append((r, m, p))
            need = dim - len(lines) - 2
            for u, mu, p in positive if negative else ():
                for v, mv, s in negative:
                    common = mu & mv
                    if common.bit_count() >= need and sum(m & common == common for _, m in rays) == 2:
                        kept.append((_project(p, v, s, u), common | bit))
            rays = kept
            continue
        if q < 0:
            q, line = -q, tuple(-c for c in line)
        del lines[i]
        lines[i:] = [_project(q, v, sum(map(mul, row, v)), line) for v in lines[i:]]
        rays = [(_project(q, r, sum(map(mul, row, r)), line), m | bit) for r, m in rays]
        rays.append((line, bit - 1))
    if lines:
        return sorted([lines[0], tuple(-c for c in lines[0])]) if len(lines) == 1 else []
    return sorted([r for r, _ in rays])


def _project(q: int, v: tuple[int, ...], p: int, line: Sequence[int]) -> tuple[int, ...]:
    """The primitive q v - p line, for primitive v."""
    if not p:
        return v
    w = [q * a - p * b for a, b in zip(v, line)]
    g = math.gcd(*w)
    return tuple(w) if g == 1 else tuple(a // g for a in w)


# -- vertex enumeration -----------------------------------------------------


def _homogenized_rays(
    rows: Sequence[Sequence[int]], dim: int
) -> tuple[list[RVector], list[tuple[int, ...]]]:
    """The extreme rays (N, D) of {(x, t) : <a, x> + b t >= 0, t >= 0} over
    integer rows (a, b) (`int_cone_rays`), split by D: the points N / D for
    D > 0, sorted, and the directions N for D = 0, in sorted order.  A
    `Fraction` is built only for the points."""
    rays = int_cone_rays([*rows, [0] * dim + [1]], dim + 1)
    tops = [ray for ray in rays if ray[dim]]
    scale = math.lcm(*(ray[dim] for ray in tops))
    tops.sort(key=lambda ray: [c * (scale // ray[dim]) for c in ray[:dim]])
    points = [_vector(Fraction(c, ray[dim]) for c in ray[:dim]) for ray in tops]
    return points, [ray[:dim] for ray in rays if not ray[dim]]


def vertex_enumerate(hrep: Sequence[Halfspace], dim: int) -> list[RVector]:
    """All vertices of the polytope cut out by hrep, exactly and deduplicated.

    Raises UnboundedRegion if the region is nonempty and has a recession
    direction, EmptyRegion if it is empty.  Each halfspace is cleared to one
    integer row (normal, offset) once.  A kernel of the normals (`int_kernel`)
    is a lineality space, so there is no vertex; the region is nonempty iff
    it has a vertex on the complement where the kernel's free columns are 0.
    Otherwise the region is the slice t = 1 of a pointed cone, and one call of
    `_homogenized_rays`, one double description (`int_cone_rays`), gives both
    its vertices and its extreme recession directions, the rays of the
    normals' cone.
    """
    rows = [h.row[0] for h in hrep]
    kernel = int_kernel([row[:dim] for row in rows], dim)
    if kernel:
        free = {f for f, _ in kernel}
        restricted = [[c for j, c in enumerate(row) if j not in free] for row in rows]
        if not _homogenized_rays(restricted, dim - len(kernel))[0]:
            raise EmptyRegion("no feasible point")
        raise UnboundedRegion(f"recession direction {RVector(kernel[0][1])}")
    found, directions = _homogenized_rays(rows, dim)
    if not found:
        raise EmptyRegion("no feasible vertex")
    if directions:
        raise UnboundedRegion(f"recession direction {RVector(directions[0])}")
    return found


# -- polytopes --------------------------------------------------------------


class Polytope(NamedTuple):
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
        """The vertices' affine rank, one less than the rank of (V, L), is dim."""
        return int_rank(_homogenized(self.vrep)[0]) == self.dim + 1


def _homogenized(points: Sequence[RVector]) -> tuple[list[list[int]], int]:
    """The points cleared to one common denominator L: rows (V, L), V = L v."""
    scale = math.lcm(*(c.denominator for v in points for c in v))
    return [[c.numerator * (scale // c.denominator) for c in v] + [scale] for v in points], scale


def _fan(
    verts: tuple[int, ...],
    incidences: Sequence[frozenset[int]],
    rank: Callable[[tuple[int, ...]], int],
    face_dim: int,
) -> list[tuple[int, ...]]:
    """Triangulate a face_dim-dimensional face by fanning from its first vertex.

    Vertices are indices numbered in the lexicographic order of the points
    they name, so the first of a face is its lex-min vertex.  `incidences`
    holds, per facet, the vertices on it, and `rank(face)` is the affine rank
    of a face's vertices.  Each facet not through the apex that meets the
    face in a (face_dim - 1)-face is fanned in turn, in the facets' order.
    """
    if face_dim == 1:
        if len(verts) != 2:
            raise DegeneratePolytope(f"edge with {len(verts)} vertices")
        return [verts]
    if len(verts) == face_dim + 1:
        return [verts]
    apex = verts[0]
    simplices: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for incident in incidences:
        if apex in incident:
            continue  # facets through the apex contribute no volume to the fan
        face = tuple(v for v in verts if v in incident)
        if len(face) < face_dim or face in seen:
            continue
        if rank(face) != face_dim - 1:
            continue
        seen.add(face)
        for sub in _fan(face, incidences, rank, face_dim - 1):
            simplices.append(sub + (apex,))
    return simplices


def _simplex_decomposition(p: Polytope) -> tuple[list[tuple[int, list[int]]], int]:
    """The fan triangulation in integers: ([(|det|, vertex sum), ...], L),
    with no simplex when p is not full-dimensional.

    The vertices are cleared to one common denominator L once, as integer
    points V = L v; their rows (V, L) have rank dim + 1 iff p is
    full-dimensional.  Each simplex s gives |det(V_i - V_0)| = L^dim
    |det(v_i - v_0)| and the sum of its V, (dim + 1) L times its centroid.  A
    vertex lies on the facet (a, b), cleared to integers, iff <a, V> + b L =
    0, and a set of vertices has affine rank one less than the linear rank of
    their (V, L).
    """
    cleared, scale = _homogenized(p.vrep)
    if int_rank(cleared) != p.dim + 1:
        return [], scale
    if not p.hrep:
        raise DegeneratePolytope("triangulation requires the halfspace description")
    cleared.sort()  # the lexicographic order of the vertices: one denominator
    incidences = [
        frozenset(i for i, v in enumerate(cleared) if sum(map(mul, h.row[0], v)) == 0)
        for h in p.hrep
    ]
    fan = _fan(
        tuple(range(len(cleared))),
        incidences,
        lambda face: int_rank([cleared[i] for i in face]) - 1,
        p.dim,
    )
    pieces = []
    for simplex in fan:
        base, *others = (cleared[i][:-1] for i in simplex)
        d = abs(int_det([[a - b for a, b in zip(v, base)] for v in others]))
        if d:
            pieces.append((d, [sum(coords) for coords in zip(base, *others)]))
    return pieces, scale


def polytope_volume(p: Polytope) -> Fraction:
    """Exact Euclidean volume; degenerate polytopes report 0 (see is_full_dimensional)."""
    pieces, scale = _simplex_decomposition(p)
    return Fraction(sum(d for d, _ in pieces), scale**p.dim * math.factorial(p.dim))


def centroid(p: Polytope) -> RVector:
    """Exact center of mass with respect to Lebesgue measure."""
    pieces, scale = _simplex_decomposition(p)
    if not pieces:
        raise DegeneratePolytope("centroid of a lower-dimensional polytope")
    weights = [d for d, _ in pieces]
    common = sum(weights) * scale * (p.dim + 1)
    return _vector(
        Fraction(sum(map(mul, weights, coords)), common)
        for coords in zip(*(sums for _, sums in pieces))
    )


# -- polyhedral cones -------------------------------------------------------


class PolyCone:
    """Pointed full-dimensional rational cone: its generating rays as sorted,
    distinct primitive integer tuples, and its facet normals (`facets`)."""

    def __init__(self, dim: int, rays: tuple[tuple[int, ...], ...]):
        self.dim = dim
        self.rays = rays

    def __repr__(self) -> str:
        return f"PolyCone(dim={self.dim!r}, rays={self.rays!r})"

    @classmethod
    def from_rays(cls, rays: Sequence[Sequence]) -> "PolyCone":
        """The cone generated by rational rays, each cleared to its primitive
        integer vector once."""
        vecs = [tuple(_primitive_row(_integral(r)[0])) for r in rays]
        if not vecs:
            raise NotFullDimensional("a cone needs at least one ray")
        for v in vecs:
            if not any(v):
                raise ModelError(f"ray {RVector(v)} is zero")
        if int_rank(vecs) != len(vecs[0]):
            raise NotFullDimensional("rays do not span the ambient space")
        return cls(dim=len(vecs[0]), rays=tuple(sorted(set(vecs))))

    @cached_property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        """Primitive integer facet normals, the rays of the dual cone; set by
        `dual_cone` on the cone it returns, computed on first use otherwise."""
        return dual_cone(self).rays


def dual_cone(c: PolyCone) -> PolyCone:
    """{y : <y, u> >= 0 for every ray u of c}; involutive on pointed cones."""
    rays = int_cone_rays(c.rays, c.dim)
    if int_rank(rays) != c.dim:
        raise NotFullDimensional("dual cone is not full-dimensional (input not pointed)")
    dual = PolyCone(dim=c.dim, rays=tuple(rays))
    dual.facets = c.rays
    return dual


def cut_cone(c: PolyCone, xi: Sequence) -> Polytope:
    """{y in c : <y, xi> <= 1}; requires xi strictly positive on the rays of c."""
    xi = RVector(xi)
    for ray in c.rays:
        if xi.dot(ray) <= 0:
            raise NotInReebCone(f"ray {RVector(ray)} pairs nonpositively with {xi}")
    hrep = [Halfspace(normal, 0) for normal in c.facets] + [Halfspace(-xi, Fraction(1))]
    return Polytope.from_hrep(hrep, c.dim)


def triangulate_cone(c: PolyCone) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Simplicial cones tiling c: (|det U_s|, indices into c.rays) for each s.

    The cross-section {<xi0, y> = 1} of c at xi0, the sum of c's facet
    normals, has the vertices u / <u, xi0> over the rays u of c, and its
    facets lie on c's facets.  It is fanned from its lex-min vertex (`_fan`)
    on ray indices: ray u lies on facet rho iff <rho, u> = 0, and a set of
    vertices has affine rank one less than the linear rank of its rays, all
    in integers.  `certify_tiling` then checks that the cones tile c.
    """
    rays, normals = c.rays, c.facets
    xi0 = [sum(col) for col in zip(*normals)]
    heights = [sum(map(mul, ray, xi0)) for ray in rays]
    # lexicographic order of the vertices u / <u, xi0>, all scaled by the lcm of the heights
    top = math.lcm(*heights)
    order = sorted(range(len(rays)), key=lambda i: [x * (top // heights[i]) for x in rays[i]])
    incidences = [
        frozenset(k for k, i in enumerate(order) if sum(map(mul, normal, rays[i])) == 0)
        for normal in normals
    ]
    fan = _fan(
        tuple(range(len(order))),
        incidences,
        lambda face: int_rank([rays[order[k]] for k in face]) - 1,
        c.dim - 1,
    )
    return certify_tiling(rays, normals, [tuple(sorted(order[k] for k in s)) for s in fan])


def certify_tiling(
    rays: Sequence[Sequence[int]],
    normals: Sequence[Sequence[int]],
    cones: Sequence[tuple[int, ...]],
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(|det U_s|, s) per cone s, once the cones are shown to tile the cone
    with these integer rays and facet normals; raises DegeneratePolytope if
    they do not.

    Each cone s holds dim sorted ray indices.  The certificate is the
    pseudomanifold argument (De Loera-Rambau-Santos, *Triangulations*, 2010),
    in integer determinants and independent of any volume:

    * every cone has det U_s != 0;
    * a ridge (dim - 1 rays of a cone) on which some facet normal vanishes
      lies in exactly one cone, and every other ridge in exactly two, on
      opposite sides of it, so the number of cones holding a point is the
      same at every generic point of the cone;
    * one generic interior point lies in exactly one cone.

    The side of the cone s at its ridge s - {w} is the sign of det(ridge, w),
    the sign of det U_s times (-1) for each index of s after w.
    """
    dim = len(rays[0])
    out = []
    sides: list[list[tuple[tuple[int, ...], bool]]] = []
    by_ridge: dict[tuple[int, ...], list[bool]] = {}
    for s in cones:
        d = int_det([rays[i] for i in s])
        if d == 0:
            raise DegeneratePolytope(f"the simplicial cone on rays {s} is flat")
        out.append((abs(d), s))
        sides.append([])
        for j in range(dim):
            ridge = s[:j] + s[j + 1 :]
            side = (d > 0) == ((dim - 1 - j) % 2 == 0)
            sides[-1].append((ridge, side))
            by_ridge.setdefault(ridge, []).append(side)
    zero_sets = [
        frozenset(i for i, ray in enumerate(rays) if sum(map(mul, normal, ray)) == 0)
        for normal in normals
    ]
    for ridge, found in by_ridge.items():
        if any(zero_set.issuperset(ridge) for zero_set in zero_sets):
            if len(found) != 1:
                raise DegeneratePolytope(f"boundary ridge {ridge} lies in {len(found)} cones")
        elif sorted(found) != [False, True]:
            raise DegeneratePolytope(f"interior ridge {ridge} is not shared by two opposite cones")
    # sum_i m^i u_i is interior; det(ridge, point) is a nonzero polynomial in
    # m for every ridge, so some m = 1, 2, ... avoids all of their roots
    for m in count(1):
        point = [sum(m**i * ray[k] for i, ray in enumerate(rays)) for k in range(dim)]
        point_side = {}
        for ridge in by_ridge:
            d = int_det([rays[i] for i in ridge] + [point])
            if d == 0:
                break
            point_side[ridge] = d > 0
        else:
            break
    holding = sum(all(point_side[ridge] == side for ridge, side in cone) for cone in sides)
    if holding != 1:
        raise DegeneratePolytope(f"a generic interior point lies in {holding} simplicial cones")
    return tuple(out)
