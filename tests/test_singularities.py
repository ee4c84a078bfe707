import functools
import random
from fractions import Fraction

import pytest

from hvol.errors import AngleOutOfRange, InvalidIndex, ModelError, NotQGorenstein
from hvol.exactgeom import Halfspace, RVector, vertex_enumerate
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
    "lattice_region",
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
    a1 = akm_singularity(2, 2)
    assert a1.lattice_region(RVector([1, 1, 1]), Fraction(2)) == ([(0, 1)] * 3, [])
    box, rows = affine_space(2).lattice_region(RVector([1, 1]), Fraction(3))
    assert box == [(0, 3), (0, 3)]
    assert sorted(rows) == [([0, 1], 0), ([1, 0], 0)]
    with pytest.raises(ModelError):
        a1.lattice_region(RVector([1, 0, 1]), Fraction(2))


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
    rep = toric_log_fano(facets, 1)
    assert rep.p_star == RVector([0])
    assert rep.gammas == (1, 1)
    assert rep.beta_n == Fraction(1, 2)
    assert rep.frak_p_star == RVector([0, Fraction(2, 3)])


def test_toric_log_fano_simplex():
    facets = [hs([1, 0]), hs([0, 1]), hs([-1, -1], 1)]
    rep = toric_log_fano(facets, 1)
    assert rep.p_star == RVector([Fraction(1, 3), Fraction(1, 3)])
    assert rep.gammas == (Fraction(1, 3),) * 3
    assert rep.beta_n == Fraction(1, 3)
    # r = 3 puts every angle at the boundary value 1, still valid
    assert toric_log_fano(facets, 3).gammas == (1, 1, 1)
    with pytest.raises(AngleOutOfRange):
        toric_log_fano(facets, 4)


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
    lifted = toric_log_fano(facets, r).lifted
    assert lifted.vrep == tuple(vertex_enumerate(lifted.hrep, lifted.dim))


def test_toric_log_fano_centroid_law():
    facets = [hs([1, 0], 2), hs([-1, 0], 1), hs([0, 1], 1), hs([0, -1], 3)]
    rep = toric_log_fano(facets, Fraction(1, 4))
    n = 3
    expected = RVector(list(rep.p_star) + [1]).scale(Fraction(n, n + 1))
    assert rep.frak_p_star == expected
    assert rep.beta_n == Fraction(1, 4) / n


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
    """Each slice vertex v of a piece has A(v) = <row, v> = n, weights >= 0,
    every bound nonnegative, and equal weight at v on the piece's tied
    monomials (those m with <m - m0, b> = 0 on every basis vector b, m0 the
    row's monomial), which are at least two and the least of all monomials;
    and v = sum_j v[free_j] basis_j, its own cell coordinates."""
    for model in _face_cell_models():
        assert model.convex_pieces, model.monomials
        for piece in model.convex_pieces:
            m0 = RVector(1 - c for c in piece.row)
            tied = [m for m in model.monomials if all((m - m0).dot(b) == 0 for b in piece.basis)]
            assert len(tied) >= 2
            assert piece.vertices
            for v in piece.vertices:
                assert piece.row.dot(v) == model.n
                assert min(v) >= 0
                assert all(b.dot(v) >= 0 for b in piece.bounds)
                least = m0.dot(v)
                assert all(m.dot(v) == least for m in tied)
                assert all(m.dot(v) >= least for m in model.monomials)
                assert sum((b.scale(v[j]) for b, j in zip(piece.basis, piece.free)), RVector([0] * len(v))) == v
            # inside the cell, the tied monomials are exactly the least ones
            center = sum(piece.vertices[1:], piece.vertices[0])
            least = min(m.dot(center) for m in model.monomials)
            assert [m for m in model.monomials if m.dot(center) == least] == tied


def test_brieskorn_pham_has_one_piece_per_tie():
    """On sum_i x_i^{d_i} every set of reduced monomials ties at some positive
    weight and forces no other tie, so the pieces are the sets counted at
    least twice: 2^r - 1 nonempty sets of the r distinct degrees, less the
    singletons of a degree that occurs once."""
    for model in _face_cell_models()[:-2]:
        degrees = [max(m) for m in model.monomials]
        once = sum(degrees.count(d) == 1 for d in set(degrees))
        assert len(model.convex_pieces) == 2 ** len(set(degrees)) - 1 - once, degrees
