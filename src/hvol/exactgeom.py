"""Exact rational linear algebra and integer cone geometry.

Everything here is computed over ``fractions.Fraction`` or in integers:
kernels, ranks, determinants, extreme rays, dual cones and cone
triangulation.  They build each toric model's triangulation once, and the
acceptance identities they feed are exact equalities, so no floating point is
allowed to enter.

Conventions
-----------
* A :class:`PolyCone` is pointed and full-dimensional; it stores its
  generating rays as sorted, distinct primitive integer tuples, and its
  facet normals (`facets`, the rays of the dual cone) the same way.
* :class:`RVector` arithmetic runs on integers: `+`, `-`, `scale` and
  unary `-` build each coordinate as one `Fraction(num, den)` from the
  operands' numerators and denominators, and `dot` sums integer products
  over a running common denominator and builds one `Fraction` at the end,
  so no `Fraction` operator dispatches per coordinate.
* Every exact linear-algebra decision runs on integer rows, fraction-free:
  `_echelon`, Bareiss elimination (Bareiss 1968), gives `int_rank` and
  `int_det` (the cofactor expansion up to 3 x 3); `int_kernel`,
  fraction-free Gauss-Jordan, gives kernel bases: the lineality space of a
  toric log-Fano polytope's facets, the tie kernels of a hypersurface's
  faces (`singularities._face_piece`) and a toric model's Gorenstein vector
  (`singularities._gorenstein_vector`); `int_cone_rays`, the integer double
  description, gives extreme rays: the rays of `dual_cone`, the cone over a
  toric log-Fano polytope (`singularities.toric_log_fano`) and the cells of
  a hypersurface's faces.  A rational row is cleared to integers once
  (`_integral`) before it enters them.  The double description's cost
  follows the rays of its intermediate cones, not the (d - 1)-subsets of
  rows, whose signed maximal minors are its witness (self-test criterion
  12).
* A model's set-up stays on integers: `PolyCone.from_rays` clears each
  given ray to its primitive integer tuple once, and what follows reads the
  tuples as they are: `from_rays` and `dual_cone` test rank with `int_rank`,
  `dual_cone` takes the extreme rays with `int_cone_rays`, and
  `triangulate_cone` orders rays by an integer key.  An :class:`RVector`
  holds a rational point (a weight, a vertex), never a ray.
* A cone is triangulated (`triangulate_cone`) by fanning the cross-section
  whose vertices are its rays scaled to one affine hyperplane from its
  lexicographically smallest vertex (`_fan`), which makes results
  reproducible.  It needs no vertex enumeration: incidences and ranks come
  from integer pairings, and `certify_tiling` checks the result
  combinatorially.
* The `Fraction` polytope layer (halfspaces, vertex enumeration, polytope
  volumes, centroids and cut cones) lives in `selftest`, where it is the
  witness of the closed forms; `__getattr__` below resolves the names of it
  that the benchmark's per-layer tracer reads here, on first use.
"""

from __future__ import annotations

import math
from functools import cached_property
from fractions import Fraction
from itertools import count
from operator import mul
from typing import Callable, Iterable, Sequence

from .errors import (
    DegeneratePolytope,
    ModelError,
    NotFullDimensional,
    PreconditionViolated,
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
        `dual_cone` on the cone it returns and by a caller that has them
        (`facets_among`), computed on first use otherwise."""
        return dual_cone(self).rays


def dual_cone(c: PolyCone) -> PolyCone:
    """{y : <y, u> >= 0 for every ray u of c}; involutive on pointed cones."""
    rays = int_cone_rays(c.rays, c.dim)
    if int_rank(rays) != c.dim:
        raise NotFullDimensional("dual cone is not full-dimensional (input not pointed)")
    dual = PolyCone(dim=c.dim, rays=tuple(rays))
    dual.facets = c.rays
    return dual


def facets_among(
    rows: Sequence[Sequence[int]], rays: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    """The facet normals of the pointed full-dimensional cone {x : <row, x>
    >= 0} over nonzero integer rows, given its extreme rays: the distinct
    primitive rows whose sets of tight rays (bitmasks) are inclusion-maximal,
    sorted, which are the rays of its dual cone."""
    tight = {
        tuple(_primitive_row(row)): sum(
            1 << k for k, ray in enumerate(rays) if not sum(map(mul, row, ray))
        )
        for row in rows
    }
    masks = set(tight.values())
    return tuple(
        sorted(row for row, m in tight.items() if not any(o != m and m & o == m for o in masks))
    )


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


def __getattr__(name: str):
    """`centroid`, `cut_cone`, `polytope_volume` and `vertex_enumerate`, which
    BENCHMARK.json's per-layer metrics name here, from `selftest` on first
    use, so that start-up does not load them."""
    if name in ("centroid", "cut_cone", "polytope_volume", "vertex_enumerate"):
        from . import selftest

        return getattr(selftest, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
