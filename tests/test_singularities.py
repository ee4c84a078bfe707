import functools
import itertools
import random
from fractions import Fraction
from operator import mul

import pytest

from hvol.errors import (
    AngleOutOfRange,
    DegeneratePolytope,
    EmptyRegion,
    InvalidIndex,
    ModelError,
    NotInReebCone,
    NotQGorenstein,
    UnboundedRegion,
)
from hvol.exactgeom import RVector
from hvol.selftest import (
    Halfspace,
    Polytope,
    centroid,
    lattice_region,
    lifted_polytope,
    vertex_enumerate,
)
from hvol.singularities import (
    PolarizedConeData,
    ToricConeSingularity,
    WeightedHomogeneousHypersurface,
    affine_space,
    akm_singularity,
    canonical_weights,
    cone_invariants,
    conifold,
    cyclic_quotient_cone,
    fano_index_check,
    toric_log_fano,
)
from hvol.valuation import nvol_report


def hs(normal, offset=0):
    return Halfspace(RVector(normal), Fraction(offset))


def _log_fano(facets, r):
    """`toric_log_fano` on the facets' integer rows."""
    return toric_log_fano([h.row for h in facets], r)


def test_akm_constructor():
    model = akm_singularity(2, 2)
    assert model.nvars == 3
    assert len(model.monomials) == 3
    assert model.label == "A1^2"
    quartic = akm_singularity(3, 4)
    assert tuple(quartic.monomials[-1]) == (0, 0, 0, 4)
    smooth = akm_singularity(2, 1)
    assert tuple(smooth.monomials[-1]) == (0, 0, 1)


MODEL_INTERFACE = (
    "logdisc",
    "volume",
    "domain_logdisc",
    "series_pieces",
    "simplicial_pieces",
    "convex_pieces",
    "reeb_generators",
    "canonical_xi",
)


@pytest.mark.parametrize("model", [conifold(), akm_singularity(3, 5)], ids=["toric", "hypersurface"])
def test_models_share_one_interface(model):
    assert [name for name in MODEL_INTERFACE if not hasattr(model, name)] == []


def test_hypersurface_interface_values():
    model = akm_singularity(3, 5)
    assert model.canonical_xi == canonical_weights(3, 5)
    assert model.reeb_generators == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert all(piece.generators == model.reeb_generators for piece in model.convex_pieces)
    bare = WeightedHomogeneousHypersurface(nvars=3, monomials=tuple(akm_singularity(2, 2).monomials))
    assert bare.canonical_xi is None


def test_lattice_region():
    # the box witness of `hvol selftest`, now outside the model interface
    a1 = akm_singularity(2, 2)
    assert lattice_region(a1, RVector([1, 1, 1]), Fraction(2)) == ([(0, 1)] * 3, [])
    box, rows = lattice_region(affine_space(2), RVector([1, 1]), Fraction(3))
    assert box == [(0, 3), (0, 3)]
    assert sorted(rows) == [([0, 1], 0), ([1, 0], 0)]
    with pytest.raises(NotInReebCone):
        lattice_region(a1, RVector([1, 0, 1]), Fraction(2))
    with pytest.raises(ModelError):
        lattice_region(a1, RVector([1, 1]), Fraction(2))


def test_series_pieces():
    # A_1 surface: x^2 + y^2 + z^2 with x reduced, 1 + t over (1 - t)^2
    (scale, [(weights, size, shifts)]) = akm_singularity(2, 2).series_pieces(RVector([1, 1, 1]))
    assert (scale, weights, size, list(shifts)) == (1, [1, 1], 2, [0, 1])
    scale, pieces = akm_singularity(2, 3).series_pieces(RVector([Fraction(3, 2), Fraction(3, 2), 1]))
    assert scale == 2 and [(w, n, list(s)) for w, n, s in pieces] == [([3, 2], 2, [0, 3])]
    # C^2/Z_2: one cone on the dual rays (1, 0), (1, 2) with the point (1, 1)
    scale, [(weights, size, shifts)] = cyclic_quotient_cone(2, 1).series_pieces(RVector([2, 0]))
    assert (scale, sorted(weights), size, sorted(shifts)) == (1, [2, 2], 2, [0, 2])
    # the conifold: two unimodular cones; the facet they share is open in one
    scale, pieces = conifold().series_pieces(RVector([0, 0, 2]))
    assert scale == 1
    assert sorted((w, n, sorted(s)) for w, n, s in pieces) == [([2, 2, 2], 1, [0]), ([2, 2, 2], 1, [2])]
    with pytest.raises(NotInReebCone):
        conifold().series_pieces(RVector([1, 0, 0]))


@pytest.mark.parametrize(
    "call",
    [
        lambda model, a: model.logdisc(a),
        lambda model, a: model.volume(a),
        lambda model, a: model.series_pieces(a),
        lambda model, a: model.simplicial_pieces(RVector([1, 1, 1]), a),
        lambda model, a: model.simplicial_pieces(a, RVector([1, 1, 1])),
    ],
    ids=["logdisc", "volume", "series_pieces", "simplicial_pieces v1", "simplicial_pieces v0"],
)
def test_nonpositive_hypersurface_weights_are_one_error(call):
    with pytest.raises(NotInReebCone, match="^hypersurface weights must be strictly positive$"):
        call(akm_singularity(2, 2), RVector([1, -1, 1]))


def test_hypersurface_monomials_are_int_tuples():
    # integral Fraction exponents are accepted and stored as ints
    given = (RVector([2, 0, 0]), (0, Fraction(3), 0), [0, 0, 5])
    for model in (akm_singularity(3, 5), WeightedHomogeneousHypersurface(nvars=3, monomials=given)):
        assert all(type(m) is tuple for m in model.monomials)
        assert all(type(e) is int for m in model.monomials for e in m)
    assert akm_singularity(2, 3).monomials == ((2, 0, 0), (0, 2, 0), (0, 0, 3))
    for bad in ((0, Fraction(1, 2), 0), (0, -1, 2)):
        with pytest.raises(ModelError):
            WeightedHomogeneousHypersurface(nvars=3, monomials=((2, 0, 0), bad))


def test_akm_requires_two_monomials():
    with pytest.raises(ModelError):
        akm_singularity(1, 2)


def test_hypersurface_requires_positive_dimension():
    # one variable is a germ of dimension 0, where A^n * vol has no meaning
    with pytest.raises(ModelError):
        WeightedHomogeneousHypersurface(nvars=1, monomials=(RVector([1]), RVector([1])))


def test_canonical_weights():
    assert tuple(canonical_weights(2, 2)) == (2, 2, 2)
    assert tuple(canonical_weights(3, 5)) == (5, 5, 5, 2)
    report = nvol_report(akm_singularity(3, 3), canonical_weights(3, 3))
    assert report.nvol == Fraction(125, 9)


def test_symmetry_classes():
    assert akm_singularity(3, 3).symmetry_classes() == [[0, 1, 2], [3]]
    # k = 2 makes all four variables interchangeable
    assert akm_singularity(3, 2).symmetry_classes() == [[0, 1, 2, 3]]


def test_gorenstein_vector():
    assert affine_space(3).m0 == RVector([1, 1, 1])
    assert conifold().m0 == RVector([1, 1, 2])
    assert cyclic_quotient_cone(3, 2).m0 == RVector([1, 1])


def test_not_q_gorenstein():
    with pytest.raises(NotQGorenstein):
        ToricConeSingularity.from_rays([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 2]])


def test_cyclic_quotient_requires_coprime():
    with pytest.raises(ModelError):
        cyclic_quotient_cone(4, 2)


def test_fano_index_check():
    assert not fano_index_check(4, 3)
    assert fano_index_check(3, 3)
    assert fano_index_check(Fraction(1, 2), 3)


def test_cone_invariants_a1_surface():
    inv = cone_invariants(PolarizedConeData(n=2, r=Fraction(2), degH=Fraction(1, 2)))
    assert inv.beta == 1
    assert inv.nvol_lower_bound == 2
    assert inv.nvol_canonical == 2


def test_cone_invariants_affine_3space():
    inv = cone_invariants(PolarizedConeData(n=3, r=Fraction(3), degH=Fraction(1)))
    assert inv.nvol_canonical == 27


def test_invalid_index_rejected():
    with pytest.raises(InvalidIndex):
        PolarizedConeData(n=3, r=Fraction(4), degH=Fraction(1))


def test_toric_log_fano_interval():
    facets = [hs([1], 1), hs([-1], 1)]
    rep = _log_fano(facets, 1)
    assert rep.p_star == RVector([0])
    assert rep.gammas == (1, 1)
    assert rep.beta_n == Fraction(1, 2)
    assert rep.frak_p_star == RVector([0, Fraction(2, 3)])


def test_toric_log_fano_simplex():
    facets = [hs([1, 0]), hs([0, 1]), hs([-1, -1], 1)]
    rep = _log_fano(facets, 1)
    assert rep.p_star == RVector([Fraction(1, 3), Fraction(1, 3)])
    assert rep.gammas == (Fraction(1, 3),) * 3
    assert rep.beta_n == Fraction(1, 3)
    # r = 3 puts every angle at the boundary value 1, still valid
    assert _log_fano(facets, 3).gammas == (1, 1, 1)
    with pytest.raises(AngleOutOfRange):
        _log_fano(facets, 4)


@pytest.mark.parametrize(
    "facets, r",
    [
        ([hs([1], 1), hs([-1], 1)], 1),
        ([hs([1, 0]), hs([0, 1]), hs([-1, -1], 1)], 1),
        ([hs([1, 0], 2), hs([-1, 0], 1), hs([0, 1], 1), hs([0, -1], 3)], Fraction(1, 4)),
        # a hexagon with rational offsets, and the cross 3-polytope
        (
            [hs([1, 0], 1), hs([0, 1], Fraction(1, 2)), hs([-1, -1], 1)]
            + [hs([-1, 0], 1), hs([0, -1], 1), hs([1, 1], Fraction(3, 2))],
            Fraction(1, 2),
        ),
        ([hs([a, b, c], 1) for a in (1, -1) for b in (1, -1) for c in (1, -1)], 1),
    ],
)
def test_toric_log_fano_lifted_vertices_match_enumeration(facets, r):
    # the enumerated lifted polytope is conv(0, P x {1}): its vertices are the
    # origin and (v, 1) over the vertices v of P, and its centroid is frak_p*
    n = facets[0].normal.dim + 1
    lifted = lifted_polytope(facets)
    over_base = [RVector([*v, 1]) for v in vertex_enumerate(facets, n - 1)]
    assert lifted.vrep == tuple(sorted([RVector([0] * n), *over_base]))
    assert centroid(lifted) == _log_fano(facets, r).frak_p_star


def test_toric_log_fano_on_a_shifted_5_dim_cross_polytope():
    # |<s, x - t>| <= 1 over the 32 sign vectors s: the barycenter is the
    # shift t, every l_i(p*) is 1, and beta_n = r / n with n = 6
    shift = [Fraction(1, 2), -1, 0, 2, Fraction(-1, 3)]
    facets = [
        hs(signs, 1 - sum(a * b for a, b in zip(signs, shift)))
        for signs in itertools.product([1, -1], repeat=5)
    ]
    r = Fraction(2, 3)
    rep = _log_fano(facets, r)
    assert rep.p_star == RVector(shift)
    assert rep.gammas == (r,) * 32 == rep.beta_i
    assert rep.beta_n == r / 6
    assert len(lifted_polytope(facets).vrep) == 11


def test_toric_log_fano_centroid_law():
    facets = [hs([1, 0], 2), hs([-1, 0], 1), hs([0, 1], 1), hs([0, -1], 3)]
    rep = _log_fano(facets, Fraction(1, 4))
    n = 3
    expected = RVector(list(rep.p_star) + [1]).scale(Fraction(n, n + 1))
    assert rep.frak_p_star == expected
    assert rep.beta_n == Fraction(1, 4) / n


def _witness_region(facets, dim):
    """The barycenter of the vertex-enumerated region, or the refusal that
    `toric_log_fano` owes it: (error type, message)."""
    try:
        return centroid(Polytope.from_hrep(facets, dim))
    except (EmptyRegion, UnboundedRegion) as exc:
        return type(exc), str(exc)
    except DegeneratePolytope:
        return ModelError, "base polytope is not full-dimensional"


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_toric_log_fano_refuses_regions_as_vertex_enumeration(dim):
    # random small regions, some flat (a facet and its opposite), some in a
    # box and some with a lineality space (a column of zeros): the cone route
    # gives the barycenter or the refusal, message included, of the witness
    rng = random.Random(300 + dim)
    outcomes = set()
    for _ in range(150):
        count = rng.randint(1, dim + 4)
        rows = [[rng.randint(-2, 2) for _ in range(dim + 1)] for _ in range(count)]
        if rng.random() < 0.25:
            rows.append([-c for c in rows[0]])
        if rng.random() < 0.5:
            rows += [[s * (j == i) for j in range(dim)] + [2] for i in range(dim) for s in (1, -1)]
        if dim > 1 and rng.random() < 0.25:
            rows = [row[:1] + [0] + row[2:] for row in rows]
        facets = [hs(row[:-1], row[-1]) for row in rows if any(row[:-1])]
        if not facets:
            continue
        expected = _witness_region(facets, dim)
        try:
            found = _log_fano(facets, Fraction(1, 100)).p_star
        except (EmptyRegion, UnboundedRegion, ModelError) as exc:
            found = type(exc), str(exc)
        assert found == expected, facets
        outcomes.add(expected[1].split(" (")[0] if type(expected) is tuple else "barycenter")
    assert len(outcomes) == (4 if dim == 1 else 5), outcomes


def _random_brieskorn_pham(rng: random.Random) -> WeightedHomogeneousHypersurface:
    degrees = [rng.randint(2, 13) for _ in range(rng.randint(3, 5))]
    monomials = [[d * (j == i) for j in range(len(degrees))] for i, d in enumerate(degrees)]
    return WeightedHomogeneousHypersurface(
        nvars=len(degrees), monomials=tuple(RVector(m) for m in monomials)
    )


@functools.cache
def _face_cell_models():
    rng = random.Random(11)
    models = []
    while len(models) < 24:
        model = _random_brieskorn_pham(rng)
        try:
            model.convex_pieces
        except ModelError:
            continue  # not klt
        models.append(model)
    mixed = WeightedHomogeneousHypersurface(
        nvars=4, monomials=tuple(RVector(m) for m in ([2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 5], [1, 1, 0, 0]))
    )
    return models + [mixed, akm_singularity(3, 5)]


def test_face_cell_vertices_lie_on_their_faces():
    """Each slice vertex v = V / h of a piece has A(v) = <R, V> / (r h) = n,
    weights >= 0, every bound nonnegative, and equal weight at v on the
    piece's tied monomials (those m with <m - m0, x> = 0 on every basis
    vector x / s, m0 the row's monomial), which are at least two and the
    least of all monomials; and v = sum_j v[free_j] x_j / s_j, its own cell
    coordinates.  Every field holds integers, and s_j = x_j[free_j]."""
    for model in _face_cell_models():
        assert model.convex_pieces, model.monomials
        monomials = [RVector(m) for m in model.monomials]
        for piece in model.convex_pieces:
            row, r = piece.row
            assert r == 1 and all(type(c) is int for c in row)
            assert all(type(c) is int for x, s in piece.basis for c in (*x, s))
            assert all(x[j] == s > 0 for (x, s), j in zip(piece.basis, piece.free))
            m0 = RVector(1 - c for c in row)
            tied = [m for m in monomials if all((m - m0).dot(x) == 0 for x, _ in piece.basis)]
            assert len(tied) >= 2
            assert piece.vertices
            for vertex, h in piece.vertices:
                assert all(type(c) is int for c in vertex) and type(h) is int and h > 0
                v = RVector(Fraction(c, h) for c in vertex)
                assert sum(map(mul, row, vertex)) == model.n * r * h
                assert min(vertex) >= 0
                assert all(sum(map(mul, vertex, b)) >= 0 for b in piece.bounds)
                least = m0.dot(v)
                assert all(m.dot(v) == least for m in tied)
                assert all(m.dot(v) >= least for m in monomials)
                cell = RVector([0] * len(v))
                for (x, s), j in zip(piece.basis, piece.free):
                    cell = cell + RVector(x).scale(Fraction(v[j], s))
                assert cell == v
            # inside the cell, the tied monomials are exactly the least ones
            center = RVector([0] * len(row))
            for vertex, h in piece.vertices:
                center = center + RVector(Fraction(c, h) for c in vertex)
            least = min(m.dot(center) for m in monomials)
            assert [m for m in monomials if m.dot(center) == least] == tied


def test_brieskorn_pham_has_one_piece_per_tie():
    """On sum_i x_i^{d_i} every set of reduced monomials ties at some positive
    weight and forces no other tie, so the pieces are the sets counted at
    least twice: 2^r - 1 nonempty sets of the r distinct degrees, less the
    singletons of a degree that occurs once."""
    for model in _face_cell_models()[:-2]:
        degrees = [max(m) for m in model.monomials]
        once = sum(degrees.count(d) == 1 for d in set(degrees))
        assert len(model.convex_pieces) == 2 ** len(set(degrees)) - 1 - once, degrees
