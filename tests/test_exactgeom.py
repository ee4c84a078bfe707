import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from hvol.errors import DegeneratePolytope, EmptyRegion, NotInReebCone, UnboundedRegion
from hvol.exactgeom import (
    PolyCone,
    RVector,
    dual_cone,
    facets_among,
    int_cone_rays,
    int_det,
    int_kernel,
    int_rank,
)
from hvol.selftest import (
    Halfspace,
    Polytope,
    centroid,
    cut_cone,
    minors_cone_rays,
    polytope_volume,
    random_cone_rows,
    vertex_enumerate,
)


def hs(normal, offset=0):
    return Halfspace(RVector(normal), Fraction(offset))


UNIT_SQUARE = [hs([1, 0]), hs([0, 1]), hs([-1, 0], 1), hs([0, -1], 1)]
SIMPLEX_2D = [hs([1, 0]), hs([0, 1]), hs([-1, -1], 1)]


def test_vertex_enumerate_square():
    verts = vertex_enumerate(UNIT_SQUARE, 2)
    assert set(map(tuple, verts)) == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_vertex_enumerate_simplex():
    verts = vertex_enumerate(SIMPLEX_2D, 2)
    assert set(map(tuple, verts)) == {(0, 0), (1, 0), (0, 1)}


def test_vertex_enumerate_mixed_system():
    # y>=0, x-y>=0, 3-x-y>=0, x<=2: solved by hand from the 2x2 subsystems
    hrep = [hs([0, 1]), hs([1, -1]), hs([-1, -1], 3), hs([-1, 0], 2)]
    verts = vertex_enumerate(hrep, 2)
    assert set(map(tuple, verts)) == {
        (0, 0),
        (2, 0),
        (2, 1),
        (Fraction(3, 2), Fraction(3, 2)),
    }


def test_vertex_enumerate_unbounded():
    with pytest.raises(UnboundedRegion):
        vertex_enumerate([hs([1, 0]), hs([0, 1]), hs([1, 1], 1)], 2)


@pytest.mark.parametrize(
    "hrep, dim, direction",
    [
        # the strip 0 <= x <= 1: normals of rank 1, no vertex
        ([hs([1, 0]), hs([-1, 0], 1), hs([1, 0], 2)], 2, "(0, 1)"),
        # a triangle times a line, and a slab in 3-space
        ([hs([1, 0, 0]), hs([0, 1, 0]), hs([-1, -1, 0], 1), hs([1, 1, 0], 3)], 3, "(0, 0, 1)"),
        ([hs([1, 1, 1]), hs([-2, -2, -2], 3), hs([1, 1, 1], 7), hs([3, 3, 3], 1)], 3, "(-1, 1, 0)"),
    ],
)
def test_vertex_enumerate_lineality_is_unbounded(hrep, dim, direction):
    with pytest.raises(UnboundedRegion, match=f"^{re.escape('recession direction ' + direction)}$"):
        vertex_enumerate(hrep, dim)


@pytest.mark.parametrize(
    "hrep, dim",
    [
        ([hs([1, 0], -1), hs([-1, 0]), hs([1, 0], 5)], 2),
        ([hs([1, 0, 0], -1), hs([-1, 0, 0]), hs([0, 1, 0]), hs([1, 1, 0], 4)], 3),
    ],
)
def test_vertex_enumerate_lineality_and_empty(hrep, dim):
    with pytest.raises(EmptyRegion):
        vertex_enumerate(hrep, dim)


def test_unbounded_message_prints_a_primitive_integer_vector():
    with pytest.raises(UnboundedRegion, match=r"^recession direction \(0, 1\)$"):
        vertex_enumerate([hs([1, 0]), hs([0, 1]), hs([1, 1], 1)], 2)


def test_vertex_enumerate_empty():
    with pytest.raises(EmptyRegion):
        vertex_enumerate([hs([1, 0]), hs([-1, 0], -1), hs([0, 1]), hs([0, -1], 1)], 2)


def _cleared(row):
    """A rational row times the least positive integer that makes it integral."""
    row = [Fraction(c) for c in row]
    scale = math.lcm(*(c.denominator for c in row))
    return [int(c * scale) for c in row]


def _nullspace_reference(rows, dim):
    """Gauss-Jordan over Fraction: {free column f: the kernel vector with a 1
    at f and 0 in the other free columns}."""
    a = [[Fraction(c) for c in row] for row in rows]
    pivots = []
    for col in range(dim):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = [v / a[rank][col] for v in a[rank]]
        a[rank] = top
        for r in range(len(a)):
            factor = a[r][col]
            if r != rank and factor:
                a[r] = [v - factor * w for v, w in zip(a[r], top)]
        pivots.append(col)
    basis = {}
    for f in (c for c in range(dim) if c not in pivots):
        vec = [Fraction(int(c == f)) for c in range(dim)]
        for row, pcol in zip(a, pivots):
            vec[pcol] = -row[f]
        basis[f] = RVector(vec)
    return basis


def _random_kernel_rows(rng, dim):
    """Up to dim + 2 small integer rows, with zero rows, repeated rows and
    integer combinations of earlier rows mixed in, or no rows at all."""
    rows = []
    for _ in range(rng.randint(0, dim + 2)):
        kind = rng.randrange(6)
        if kind == 0:
            rows.append([0] * dim)
        elif kind == 1 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind == 2 and len(rows) >= 2:
            (a, u), (b, v) = ((rng.randint(-3, 3), rng.choice(rows)) for _ in range(2))
            rows.append([a * x + b * y for x, y in zip(u, v)])
        else:
            rows.append([rng.randint(-4, 4) for _ in range(dim)])
    return rows


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_int_kernel_matches_fraction_gauss_jordan(dim):
    rng = random.Random(300 + dim)
    for _ in range(150):
        rows = _random_kernel_rows(rng, dim)
        expected = _nullspace_reference(rows, dim)
        kernel = int_kernel(rows, dim)
        assert [f for f, _ in kernel] == sorted(expected), rows
        for f, x in kernel:
            assert x[f] > 0 and math.gcd(*x) == 1, (rows, x)
            assert RVector(x).scale(Fraction(1, x[f])) == expected[f], rows
            assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in rows)


def test_int_kernel_of_no_rows_is_the_unit_basis():
    assert int_kernel([], 3) == [(0, (1, 0, 0)), (1, (0, 1, 0)), (2, (0, 0, 1))]
    assert int_kernel([[2, 4]], 2) == [(1, (-2, 1))]
    assert int_kernel([[1, 0], [0, 3]], 2) == []


def _random_bounded_hrep(rng, dim):
    """A box around the origin cut by a few random rational halfspaces that
    keep the origin inside: bounded, full-dimensional, often with vertices
    on more than dim facets."""
    hrep = [
        hs([sign * int(i == j) for j in range(dim)], rng.randint(1, 3))
        for i in range(dim)
        for sign in (1, -1)
    ]
    for _ in range(rng.randint(1, 4)):
        normal = [rng.randint(-2, 2) for _ in range(dim)]
        if any(normal):
            hrep.append(hs(normal, Fraction(rng.randint(1, 6), rng.randint(1, 3))))
    rng.shuffle(hrep)
    return hrep


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_vertex_enumerate_matches_homogenized_cone(dim):
    # the vertices of {<a, x> + b >= 0} are the rays with t > 0 of the cone
    # {(x, t) : <a, x> + b t >= 0, t >= 0}, scaled to t = 1
    rng = random.Random(200 + dim)
    for _ in range(12 if dim < 4 else 6):
        hrep = _random_bounded_hrep(rng, dim)
        rows = [_cleared(list(h.normal) + [h.offset]) for h in hrep] + [[0] * dim + [1]]
        rays = int_cone_rays(rows, dim + 1)
        expected = sorted(
            RVector(Fraction(c, ray[dim]) for c in ray[:dim]) for ray in rays if ray[dim] > 0
        )
        verts = vertex_enumerate(hrep, dim)
        assert verts == expected, hrep
        for v in verts:
            # a vertex is feasible and tight on dim independent facets
            assert all(h.value(v) >= 0 for h in hrep)
            assert not int_kernel([_cleared(h.normal) for h in hrep if h.value(v) == 0], dim)


def test_volume_simplex_3d():
    hrep = [hs([1, 0, 0]), hs([0, 1, 0]), hs([0, 0, 1]), hs([-1, -1, -1], 1)]
    assert polytope_volume(Polytope.from_hrep(hrep, 3)) == Fraction(1, 6)


def test_volume_square():
    assert polytope_volume(Polytope.from_hrep(UNIT_SQUARE, 2)) == 1


def test_volume_truncated_triangle():
    # triangle plus trapezoid decomposition by hand gives 3/8
    hrep = [hs([1, 0]), hs([0, 1]), hs([-1, -1], 1), hs([-1, 0], Fraction(1, 2))]
    assert polytope_volume(Polytope.from_hrep(hrep, 2)) == Fraction(3, 8)


def test_volume_scaling_law():
    p = Polytope.from_hrep(SIMPLEX_2D, 2)
    for lam in (Fraction(1, 3), Fraction(5, 2), 4):
        scaled = Polytope.from_hrep([Halfspace(h.normal, h.offset * lam) for h in SIMPLEX_2D], 2)
        assert polytope_volume(scaled) == Fraction(lam) ** 2 * polytope_volume(p)


def test_volume_unimodular_invariance():
    rng = random.Random(11)
    base = Polytope.from_hrep(UNIT_SQUARE, 2)
    vol = polytope_volume(base)
    for _ in range(5):
        # random shear: determinant one
        c = rng.randint(-3, 3)
        sheared = [
            Halfspace(RVector([h.normal[0], h.normal[1] - c * h.normal[0]]), h.offset)
            for h in UNIT_SQUARE
        ]
        assert polytope_volume(Polytope.from_hrep(sheared, 2)) == vol


def test_centroid_simplex_and_square():
    assert centroid(Polytope.from_hrep(SIMPLEX_2D, 2)) == RVector(
        [Fraction(1, 3), Fraction(1, 3)]
    )
    assert centroid(Polytope.from_hrep(UNIT_SQUARE, 2)) == RVector(
        [Fraction(1, 2), Fraction(1, 2)]
    )


def test_centroid_affine_equivariance():
    # x -> U x + t maps {<a,x>+b>=0} to {<a U^-1, y> + b - <a U^-1, t> >= 0};
    # easier to push vertices through the map and rebuild from scratch
    p = Polytope.from_hrep(SIMPLEX_2D, 2)
    c = centroid(p)
    shift = RVector([3, -2])
    moved = [Halfspace(h.normal, h.offset - h.normal.dot(shift)) for h in SIMPLEX_2D]
    assert centroid(Polytope.from_hrep(moved, 2)) == c + shift


def test_degenerate_polytope_flag():
    flat = [hs([1, 0]), hs([-1, 0]), hs([0, 1]), hs([0, -1], 1)]
    p = Polytope.from_hrep(flat, 2)
    assert polytope_volume(p) == 0
    with pytest.raises(DegeneratePolytope):
        centroid(p)


def test_dual_cone_orthant_selfdual():
    orthant = PolyCone.from_rays([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    dual = dual_cone(orthant)
    assert set(map(tuple, dual.rays)) == set(map(tuple, orthant.rays))


def test_dual_cone_2d():
    c = PolyCone.from_rays([[1, 0], [1, 2]])
    dual = dual_cone(c)
    assert set(map(tuple, dual.rays)) == {(0, 1), (2, -1)}


def test_dual_cone_involution_random():
    rng = random.Random(7)
    for _ in range(5):
        rays = []
        while len(rays) < 4:
            cand = [rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 4)]
            if any(cand):
                rays.append(cand)
        try:
            cone = PolyCone.from_rays(rays)
        except Exception:
            continue
        double = dual_cone(dual_cone(cone))
        # double dual regenerates the extreme rays, up to dropping redundant ones
        assert set(map(tuple, double.rays)) <= set(map(tuple, cone.rays))
        for ray in cone.rays:
            assert all(RVector(normal).dot(ray) >= 0 for normal in double.facets)


def test_halfspace_accepts_a_list_normal():
    h = Halfspace([0, 1], 0)
    assert (h.normal, h.offset) == (RVector([0, 1]), Fraction(0))
    assert all(type(c) is Fraction for c in h.normal)
    with pytest.raises(ValueError, match="nonzero"):
        Halfspace([0, 0], 1)


def test_cut_cone_simplex():
    orthant = dual_cone(PolyCone.from_rays([[1, 0], [0, 1]]))
    region = cut_cone(orthant, [1, 1])
    assert polytope_volume(region) == Fraction(1, 2)
    region = cut_cone(orthant, [2, 1])
    assert set(map(tuple, region.vrep)) == {(0, 0), (Fraction(1, 2), 0), (0, 1)}


def test_cut_cone_rejects_boundary():
    orthant = dual_cone(PolyCone.from_rays([[1, 0], [0, 1]]))
    with pytest.raises(NotInReebCone):
        cut_cone(orthant, [1, -1])


# -- the integer and rational kernels -------------------------------------------


def _leibniz(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def test_det_matches_leibniz():
    rng = random.Random(5)
    for n in range(1, 5):
        for trial in range(12):
            rows = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(n)]
            if trial % 3 == 0 and n > 1:
                # singular: the last row an integer combination of the first two
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % (n - 1)])]
                assert int_det(rows) == 0
            assert int_det(rows) == _leibniz(rows), rows
    assert int_det([[0]]) == 0


def _cone_rays_reference(rows, dim):
    """Kernel of every (dim - 1)-subset of rows by Fraction elimination, both
    signs, scaled primitive and kept when every row pairs nonnegatively."""
    found = set()
    for subset in itertools.combinations(rows, dim - 1):
        kernel = list(_nullspace_reference(subset, dim).values())
        if len(kernel) != 1:
            continue
        cleared = _cleared(kernel[0])
        g = math.gcd(*cleared)
        for cand in ([c // g for c in cleared], [-c // g for c in cleared]):
            if all(RVector(r).dot(cand) >= 0 for r in rows):
                found.add(tuple(cand))
    return sorted(found)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_cone_rays_matches_brute_force(dim):
    rng = random.Random(100 + dim)
    for _ in range(25):
        rows = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(1, dim + 3))]
        expected = _cone_rays_reference(rows, dim)
        assert int_cone_rays(rows, dim) == expected, rows


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_cone_rays_match_the_minors_witness(dim):
    # the double description against the signed maximal minors on 0-10 rows
    # with zero, repeated, scaled and opposite rows, a third of them of rank
    # below dim (lineality: both signs of a kernel line, or no ray at all)
    rng = random.Random(300 + dim)
    cases = {1: 60, 2: 60, 3: 80, 4: 80, 5: 80, 6: 60}[dim]
    for k in range(cases):
        lost = rng.randint(1, min(2, dim)) if k % 3 == 2 else 0
        rows = random_cone_rows(rng, dim, rng.randint(0, 10), lost)
        assert int_cone_rays(rows, dim) == minors_cone_rays(rows, dim), rows


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_facets_among_the_rows_are_the_dual_rays(dim):
    # the rows tight on inclusion-maximal sets of rays, among redundant,
    # repeated and scaled rows, are the facets that dual_cone finds
    rng = random.Random(500 + dim)
    checked = redundant = 0
    while checked < 40:
        rows = [row for row in random_cone_rows(rng, dim, rng.randint(dim, dim + 6)) if any(row)]
        rays = int_cone_rays(rows, dim)
        if not rays or rays[0] == tuple(-c for c in rays[-1]) or int_rank(rays) < dim:
            continue  # not a pointed full-dimensional cone
        checked += 1
        expected = dual_cone(PolyCone(dim=dim, rays=tuple(rays))).rays
        assert facets_among(rows, rays) == expected, rows
        redundant += len(rows) > len(expected)
    assert redundant >= 20


def test_cone_rays_with_lineality():
    # rank dim - 1: the kernel line with both signs; below that: no ray
    assert int_cone_rays([], 1) == [(-1,), (1,)]
    assert int_cone_rays([[0]], 1) == [(-1,), (1,)]
    assert int_cone_rays([], 2) == []
    assert int_cone_rays([[1, 0]], 2) == [(0, -1), (0, 1)]
    assert int_cone_rays([[2, 4, 0], [-1, -2, 0]], 3) == []
    assert int_cone_rays([[2, 4, 0], [0, 0, -3], [-1, -2, 0]], 3) == [(-2, 1, 0), (2, -1, 0)]
    assert int_cone_rays([[1, 0], [-1, 0], [0, 1], [0, -1]], 2) == []


def _cube(d):
    return [hs(e, 1) for i in range(d) for e in ([int(j == i) for j in range(d)], [-int(j == i) for j in range(d)])]


def _cross(d):
    return [hs(signs, 1) for signs in itertools.product([1, -1], repeat=d)]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_cube_and_cross_polytope_vertex_counts(d):
    cube = vertex_enumerate(_cube(d), d)
    assert cube == sorted(RVector(v) for v in itertools.product([-1, 1], repeat=d))
    cross = vertex_enumerate(_cross(d), d)
    assert len(cross) == 2 * d
    assert {tuple(map(abs, v)) for v in cross} == {tuple(int(j == i) for j in range(d)) for i in range(d)}
    # and the cone over the cube has the 2d facets of the cross-polytope
    cone = PolyCone.from_rays([list(v) + [1] for v in itertools.product([-1, 1], repeat=d)])
    assert len(dual_cone(cone).rays) == 2 * d


def test_dual_cone_of_a_ray():
    assert dual_cone(PolyCone.from_rays([[3]])).rays == (RVector([1]),)
    assert dual_cone(PolyCone.from_rays([[-2]])).rays == (RVector([-1]),)


def _random_rational(rng: random.Random):
    """A zero, a small or large int, or a Fraction with a small or large
    numerator and denominator, of either sign."""
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    if kind == 2:
        return rng.randint(-(10**40), 10**40)
    if kind == 3:
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
    return Fraction(rng.randint(-(10**30), 10**30), rng.randint(1, 10**25))


def _assert_same_fractions(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert type(g) is Fraction and g == e and str(g) == str(e)


def test_rvector_arithmetic_matches_fraction_arithmetic():
    # each operation builds its coordinates from integer numerators and
    # denominators; the reference is the coordinate-wise Fraction operator
    rng = random.Random(17)
    for trial in range(400):
        dim = rng.randint(1, 6)
        a = [_random_rational(rng) for _ in range(dim)]
        b = [_random_rational(rng) for _ in range(dim)]
        fa, fb = [Fraction(x) for x in a], [Fraction(x) for x in b]
        # the second operand is an RVector, a plain list of ints and Fractions,
        # or a tuple
        other = (RVector(b), b, tuple(b))[trial % 3]
        v = RVector(a)
        _assert_same_fractions(v, fa)
        _assert_same_fractions(v + other, [x + y for x, y in zip(fa, fb)])
        _assert_same_fractions(v - other, [x - y for x, y in zip(fa, fb)])
        _assert_same_fractions(-v, [-x for x in fa])
        factor = _random_rational(rng)
        _assert_same_fractions(v.scale(factor), [Fraction(factor) * x for x in fa])
        _assert_same_fractions([v.dot(other)], [sum((x * y for x, y in zip(fa, fb)), Fraction(0))])
        assert isinstance(v + other, RVector) and isinstance(v.scale(factor), RVector)


def test_rvector_keeps_fraction_coordinates_and_refuses_floats():
    half = Fraction(1, 2)
    assert RVector([half, 3])[0] is half
    v = RVector([1, 2])
    with pytest.raises(TypeError):
        RVector([0.5, 1])
    with pytest.raises(TypeError):
        v + [0.5, 1]
    with pytest.raises(TypeError):
        v.scale(0.5)
    with pytest.raises(TypeError):
        v.dot([0.5, 1])
    with pytest.raises(ValueError):
        v.dot([1, 2, 3])
    assert RVector([]).dot([]) == 0 and type(RVector([]).dot([])) is Fraction
