"""The integer triangulation of the dual cone and its tiling certificate.

The closed-form volume over `triangulate_cone` is compared with n! times the
volume of the vertex-enumerated cut polytope at Reeb vectors other than the
one the fan is built at; vertex enumeration stays here as the witness.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import hvol.exactgeom as exactgeom
import hvol.selftest as selftest
from hvol.errors import DegeneratePolytope, NotQGorenstein
from hvol.exactgeom import (
    PolyCone,
    RVector,
    certify_tiling,
    dual_cone,
    int_det,
    int_rank,
    triangulate_cone,
)
from hvol.selftest import cut_cone, polytope_volume
from hvol.singularities import ToricConeSingularity, affine_space, conifold, cyclic_quotient_cone
from hvol.valuation import simplex_sum


def _ypq_rays(p, q):
    return [[1, 0, 0], [1, p - q - 1, p - q], [1, p, p], [1, 1, 0]]


def _random_cones(count, seed=11):
    """Pointed full-dimensional cones in dimensions 2-4 with up to dim + 3
    generators, some of them redundant."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        dim = rng.randint(2, 4)
        rays = [
            [rng.randint(-3, 3) for _ in range(dim - 1)] + [rng.randint(1, 3)]
            for _ in range(rng.randint(dim, dim + 3))
        ]
        try:
            out.append((f"random{len(out)}:dim={dim}", PolyCone.from_rays(rays)))
        except Exception:
            continue
    return out


SIGMAS = (
    [(f"C{n}", affine_space(n).sigma) for n in (2, 3, 4)]
    + [
        (f"C2/Z{r}({a})", cyclic_quotient_cone(r, a).sigma)
        for r in range(2, 7)
        for a in range(1, r)
        if math.gcd(r, a) == 1
    ]
    + [("conifold", conifold().sigma)]
    + [(f"Y{p}{q}", PolyCone.from_rays(_ypq_rays(p, q))) for p in range(2, 7) for q in range(1, p)]
    + _random_cones(30)
)


@pytest.mark.parametrize("name, sigma", SIGMAS, ids=[name for name, _ in SIGMAS])
def test_volume_sum_equals_cut_polytope_off_the_fan_vector(name, sigma):
    dual = dual_cone(sigma)
    simplices = triangulate_cone(dual)
    xi0 = [sum(col) for col in zip(*sigma.rays)]
    rng = random.Random(name)
    for _ in range(3):
        xi = RVector([0] * sigma.dim)
        for ray in sigma.rays:
            xi = xi + RVector(ray).scale(Fraction(rng.randint(1, 40), rng.randint(1, 9)))
        if int_rank([xi0, exactgeom._integral(xi)[0]]) == 1:
            continue  # xi lies on the ray of xi0, where the fan is built
        expected = math.factorial(sigma.dim) * polytope_volume(cut_cone(dual, xi))
        z, denom = exactgeom._integral(xi)
        value, common, _ = simplex_sum(dual.rays, simplices, z)
        assert Fraction(value * denom**sigma.dim, common) == expected


def _assert_primitive_sorted_ints(rays):
    assert all(type(ray) is tuple and all(type(c) is int for c in ray) for ray in rays)
    assert all(math.gcd(*ray) == 1 for ray in rays)
    assert list(rays) == sorted(set(rays))


@pytest.mark.parametrize("name, sigma", SIGMAS, ids=[name for name, _ in SIGMAS])
def test_models_store_primitive_integer_rays(name, sigma):
    # the random cones are rarely Q-Gorenstein; their model set-up stops there
    try:
        model = ToricConeSingularity.from_rays(sigma.rays)
    except NotQGorenstein:
        assert name.startswith("random")
        model = None
    cones = (sigma, dual_cone(sigma)) if model is None else (model.sigma, model.dual)
    for cone in cones:
        _assert_primitive_sorted_ints(cone.rays)
        _assert_primitive_sorted_ints(cone.facets)
    if model is None:
        return
    assert model.sigma.rays == sigma.rays
    m, e = model.gorenstein_numerators
    assert e > 0 and math.gcd(*m, e) == 1
    assert all(sum(a * b for a, b in zip(m, ray)) == e for ray in model.sigma.rays)
    assert model.m0 == RVector(Fraction(c, e) for c in m)


def test_triangulation_enumerates_no_vertices(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the triangulation reached the polytope path")

    for name in ("cut_cone", "vertex_enumerate", "polytope_volume", "_simplex_decomposition"):
        monkeypatch.setattr(selftest, name, refuse)
    model = ToricConeSingularity.from_rays(_ypq_rays(5, 2))
    assert len(model.volume_triangulation) == 2
    assert model.volume([sum(col) for col in zip(*model.sigma.rays)]) > 0


CERTIFIED = {
    "conifold": conifold(),
    "Y21": ToricConeSingularity.from_rays(_ypq_rays(2, 1)),
    "Y31": ToricConeSingularity.from_rays(_ypq_rays(3, 1)),
    "square pyramid": ToricConeSingularity.from_rays(
        [[1, 1, 0, 1], [1, -1, 0, 1], [-1, 1, 0, 1], [-1, -1, 0, 1], [0, 0, 1, 1]]
    ),
}


def _integer_cone(model):
    return model.reeb_generators, model.sigma.rays


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_rejects_dropped_and_duplicated_cones(name):
    rays, normals = _integer_cone(CERTIFIED[name])
    cones = [s for _, s in CERTIFIED[name].volume_triangulation]
    assert certify_tiling(rays, normals, cones) == CERTIFIED[name].volume_triangulation
    for i in range(len(cones)):
        with pytest.raises(DegeneratePolytope):
            certify_tiling(rays, normals, cones[:i] + cones[i + 1 :])
        with pytest.raises(DegeneratePolytope):
            certify_tiling(rays, normals, cones + [cones[i]])
    with pytest.raises(DegeneratePolytope):
        certify_tiling(rays, normals, [])


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_certificate_accepts_exactly_the_two_triangulations(name):
    # each of these dual cones is the cone over a quadrilateral, whose two
    # diagonals give its only triangulations; every other set of simplicial
    # cones on its rays overlaps or leaves a gap
    model = CERTIFIED[name]
    rays, normals = _integer_cone(model)
    simplicial = [s for s in itertools.combinations(range(len(rays)), model.n) if int_det([rays[i] for i in s])]
    accepted = []
    for k in range(1, len(simplicial) + 1):
        for cones in itertools.combinations(simplicial, k):
            try:
                certify_tiling(rays, normals, list(cones))
            except DegeneratePolytope:
                continue
            accepted.append(cones)
    assert len(accepted) == 2
    assert sorted(s for _, s in model.volume_triangulation) in [sorted(cones) for cones in accepted]
    with pytest.raises(DegeneratePolytope):
        certify_tiling(rays, normals, [s for cones in accepted for s in cones])


# the cone over a triangle with its edge midpoints
MIDPOINT_RAYS = [[0, 0, 1], [1, 0, 1], [2, 0, 1], [0, 1, 1], [1, 1, 1], [0, 2, 1]]
MIDPOINT_NORMALS = [[1, 0, 0], [0, 1, 0], [-1, -1, 2]]


def test_certificate_rejects_a_flat_cone():
    with pytest.raises(DegeneratePolytope, match="flat"):
        certify_tiling(MIDPOINT_RAYS, MIDPOINT_NORMALS, [(0, 1, 2)])


def test_certificate_counts_covering_at_a_generic_point():
    # the four-triangle subdivision and the whole triangle each tile the
    # cone, and together they cover it twice although every ridge condition
    # holds
    rays, normals = MIDPOINT_RAYS, MIDPOINT_NORMALS
    fine = [(0, 1, 3), (1, 2, 4), (3, 4, 5), (1, 3, 4)]
    coarse = [(0, 2, 5)]
    certify_tiling(rays, normals, fine)
    certify_tiling(rays, normals, coarse)
    with pytest.raises(DegeneratePolytope, match="generic interior point lies in 2"):
        certify_tiling(rays, normals, fine + coarse)
    cone = dual_cone(PolyCone.from_rays(normals))
    assert sum(d for d, _ in triangulate_cone(cone)) == 4
