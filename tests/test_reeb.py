import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvol.errors import ModelError, NotInReebCone
from hvol.molien import binary_dihedral_group, quotient_min_nvol
from hvol.exactgeom import RVector
import hvol.reeb as reeb
from hvol.reeb import (
    minimize_nvol,
    minimize_nvol_multistart,
    normalize_reeb,
    rescaling_law_check,
)
from hvol.selftest import centroid, cut_cone, polytope_volume
from hvol.singularities import (
    ToricConeSingularity,
    WeightedHomogeneousHypersurface,
    affine_space,
    akm_singularity,
    canonical_weights,
    conifold,
    cyclic_quotient_cone,
)
from hvol.valuation import log_discrepancy_toric, volume_gradient_toric


@pytest.mark.parametrize("d", [4, 5])
def test_minimize_on_the_cone_over_the_cube(d):
    # the dual polytope, the cross-polytope, has barycenter 0, the paper's
    # criterion, so xi = (0, ..., 0, d + 1) is the minimizer, and the minimum
    # is (-K)^d = d! vol(cross-polytope) = 2^d: a zero-width bracket
    rays = [list(v) + [1] for v in itertools.product([-1, 1], repeat=d)]
    best = minimize_nvol(ToricConeSingularity.from_rays(rays))
    assert best.min_nvol_lower == best.min_nvol_upper == 2**d
    assert best.argmin == RVector([0] * d + [d + 1])


def test_reeb_membership():
    c3 = affine_space(3)
    assert c3.domain_logdisc([1, 1, 1]) is not None
    assert c3.domain_logdisc([1, 0, 1]) is None
    assert conifold().domain_logdisc([0, 0, 1]) is not None


def test_normalize_reeb():
    c3 = affine_space(3)
    assert normalize_reeb(c3, [2, 2, 2]) == RVector([1, 1, 1])
    c2 = affine_space(2)
    assert normalize_reeb(c2, [1, 3]) == RVector([Fraction(1, 2), Fraction(3, 2)])


def test_normalize_idempotent_random():
    rng = random.Random(3)
    model = conifold()
    for _ in range(10):
        xi = RVector([Fraction(0)] * 3)
        for ray in model.sigma.rays:
            xi = xi + RVector(ray).scale(Fraction(rng.randint(1, 40), 7))
        once = normalize_reeb(model, xi)
        assert normalize_reeb(model, once) == once
        assert log_discrepancy_toric(model, once) == model.n


def test_normalize_rejects_outside():
    with pytest.raises(NotInReebCone):
        normalize_reeb(affine_space(2), [1, -1])


def test_rescaling_law():
    assert rescaling_law_check(affine_space(3), RVector([1, 1, 1]), 2)
    assert rescaling_law_check(conifold(), RVector([1, 1, 3]), 3)
    assert rescaling_law_check(
        akm_singularity(3, 2), canonical_weights(3, 2), Fraction(1, 2)
    )


def test_minimize_affine_space():
    result = minimize_nvol(affine_space(3), init=[1, 2, 5])
    assert result.converged
    assert result.argmin == RVector([1, 1, 1])
    assert result.min_nvol_lower == result.min_nvol_upper == 27
    assert result.min_nvol == pytest.approx(27.0, abs=1e-9)


def test_minimize_akm_kink():
    # piecewise objective 3(3-2x)^3 / 2(1+x)^3/x with the minimum at the kink
    result = minimize_nvol(akm_singularity(3, 3), init=[1, 1, 1, 1])
    assert result.min_nvol_upper == Fraction(125, 9)
    assert result.min_nvol_lower == Fraction(125, 9)
    ratio = result.argmin[-1] / result.argmin[0]
    assert ratio == Fraction(2, 3)


def test_minimize_akm_interior_stationary():
    result = minimize_nvol(akm_singularity(3, 5), init=[1, 1, 1, 1])
    assert result.min_nvol_upper == Fraction(27, 2)
    assert result.argmin[-1] / result.argmin[0] == Fraction(1, 2)


def test_minimize_trajectory_records_descent():
    result = minimize_nvol(affine_space(2), init=[1, 3])
    values = [v for _, v in result.trajectory]
    assert values == sorted(values, reverse=True)
    assert values[-1] == pytest.approx(4.0)


def test_minimize_rejects_bad_init():
    with pytest.raises(NotInReebCone):
        minimize_nvol(affine_space(2), init=[1, -1])
    # hypersurface weights outside the valid region are rejected too
    with pytest.raises(NotInReebCone):
        minimize_nvol(akm_singularity(3, 3), init=[1, 1, 1, Fraction(1, 10)])


def test_multistart_agreement():
    # every model makes one run, certified by its bracket
    best, spread, runs = minimize_nvol_multistart(akm_singularity(3, 3), seeds=5, base_seed=1)
    assert (spread, runs) == (0.0, [best])
    assert best.min_nvol_lower == best.min_nvol_upper == Fraction(125, 9)
    best, spread, runs = minimize_nvol_multistart(conifold(), seeds=5, base_seed=1)
    assert (spread, runs) == (0.0, [best])
    assert best.min_nvol_lower == best.min_nvol_upper == 16
    normalized = normalize_reeb(conifold(), best.argmin)
    assert normalized == best.argmin  # already on the slice


def _ypq_nvol(p, q):
    """27 Vol(Y^{p,q}) / Vol(S^5), Gauntlett-Martelli-Sparks-Waldram (hep-th/0403002)."""
    s = math.sqrt(4 * p * p - 3 * q * q)
    return 27 * q * q * (2 * p + s) / (3 * p * p * (3 * q * q - 2 * p * p + p * s))


def test_multistart_ypq_line_search_stays_in_reeb_cone():
    # line-search steps that leave the Reeb cone are rejected, not raised
    model = ToricConeSingularity.from_rays([[1, 0, 0], [1, 1, 2], [1, 3, 3], [1, 1, 0]])
    best, _, _ = minimize_nvol_multistart(model, base_seed=1)
    assert best.min_nvol == pytest.approx(_ypq_nvol(3, 1), rel=1e-9)


def test_convexity_probe_along_slice():
    # sampled second differences of the objective through the minimizer
    model = affine_space(3)
    rng = random.Random(5)
    from hvol.valuation import nvol_report

    for _ in range(20):
        direction = [rng.uniform(-1, 1) for _ in range(3)]
        shift = sum(direction) / 3
        direction = [d - shift for d in direction]  # tangent to the slice
        values = []
        for t in (-0.1, 0.0, 0.1):
            point = [1 + t * d for d in direction]
            values.append(
                float(
                    nvol_report(
                        model, [Fraction(c).limit_denominator(10**6) for c in point]
                    ).nvol
                )
            )
        assert values[0] + values[2] - 2 * values[1] >= -1e-9


# -- the certified toric bracket -----------------------------------------------


def _ypq_cone(p, q):
    return ToricConeSingularity.from_rays([[1, 0, 0], [1, p - q - 1, p - q], [1, p, p], [1, 1, 0]])


def _ypq_nvol_decimal(p, q):
    """The GMSW value of `_ypq_nvol` to 50 digits, in stdlib decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        s = Decimal(4 * p * p - 3 * q * q).sqrt()
        return 27 * q * q * (2 * p + s) / (3 * p * p * (3 * q * q - 2 * p * p + p * s))


@pytest.mark.parametrize("r", range(1, 13))
def test_cyclic_quotient_bracket_is_exact(r):
    # the descent this replaced needed 6 to 75 iterations over r = 1..12
    model = cyclic_quotient_cone(r, 1)
    first, second = map(RVector, model.sigma.rays)
    result = minimize_nvol(model, init=first + second.scale(3))
    assert result.min_nvol_lower == result.min_nvol_upper == Fraction(4, r)
    assert result.iterations <= 10
    assert result.converged


@pytest.mark.parametrize(
    "name, model, expected",
    [
        ("C2", affine_space(2), 4),
        ("C3", affine_space(3), 27),
        ("C4", affine_space(4), 256),
        ("C3/Z3", ToricConeSingularity.from_rays([[1, 0, 0], [0, 1, 0], [-1, -1, 3]]), 9),
        ("conifold", conifold(), 16),
    ],
)
def test_rational_minima_have_zero_width_brackets(name, model, expected):
    best, _, _ = minimize_nvol_multistart(model)
    assert best.min_nvol_lower == best.min_nvol_upper == expected
    assert best.grad_norm == 0.0


@pytest.mark.parametrize("p, q", [(p, q) for p in range(2, 7) for q in range(1, p)])
def test_ypq_bracket_contains_gmsw_value(p, q):
    best = minimize_nvol(_ypq_cone(p, q))
    exact = Fraction(_ypq_nvol_decimal(p, q))
    slack = Fraction(1, 10**45)  # far above the decimal's rounding
    assert best.min_nvol_lower <= exact - slack
    assert exact + slack <= best.min_nvol_upper
    assert best.min_nvol_upper - best.min_nvol_lower < Fraction(1, 10**12)
    assert best.converged


def test_polishing_narrows_a_wide_bracket():
    # the Newton run is cut after one step, far from the minimum of Y^{4,2};
    # exact-gradient steps must still bring the bracket below 1e-12
    best = minimize_nvol(_ypq_cone(4, 2), max_iter=1)
    assert best.iterations > 1  # one Newton step, then the polishing steps
    assert best.converged
    exact = Fraction(_ypq_nvol_decimal(4, 2))
    assert best.min_nvol_lower < exact < best.min_nvol_upper
    assert best.min_nvol_upper - best.min_nvol_lower <= Fraction(1, 10**12) * best.min_nvol_upper


GRADIENT_CONES = {
    "C3": affine_space(3),
    "conifold": conifold(),
    "C2/Z3": cyclic_quotient_cone(3, 1),
    "Y31": _ypq_cone(3, 1),
    "square pyramid": ToricConeSingularity.from_rays(
        [[1, 1, 0, 1], [1, -1, 0, 1], [-1, 1, 0, 1], [-1, -1, 0, 1], [0, 0, 1, 1]]
    ),
}


@pytest.mark.parametrize("name", sorted(GRADIENT_CONES))
def test_gradient_is_the_centroid_of_the_cut_polytope(name):
    # grad V(xi) = -(n+1) V(xi) centroid{y in the dual cone : <xi, y> <= 1},
    # the Martelli-Sparks-Yau derivative; the right side comes from the
    # enumerated vertices of that polytope
    model = GRADIENT_CONES[name]
    rays = [RVector(ray) for ray in model.sigma.rays]

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=12),
            min_size=len(rays),
            max_size=len(rays),
        )
    )
    def check(coeffs):
        xi = sum((ray.scale(c) for c, ray in zip(coeffs, rays)), RVector([0] * model.n))
        cut = cut_cone(model.dual, xi)
        volume = math.factorial(model.n) * polytope_volume(cut)
        assert volume == model.volume(xi)
        assert volume_gradient_toric(model, xi) == centroid(cut).scale(-(model.n + 1) * volume)

    check()


def _random_unimodular(rng, n):
    """A matrix of GL_n(Z): random elementary row operations on the
    identity, then a sign flip of the first row half of the time."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    if rng.random() < 0.5:
        u[0] = [-a for a in u[0]]
    return u


def _apply(u, v):
    return [sum(map(mul, row, v)) for row in u]


COVARIANCE_CONES = {
    "conifold": conifold().sigma.rays,
    "Y21": _ypq_cone(2, 1).sigma.rays,
    "Y32": _ypq_cone(3, 2).sigma.rays,
    "C3/Z3": ((1, 0, 0), (0, 1, 0), (-1, -1, 3)),
    "C x conifold": ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, -1, 0, 1), (0, 0, -1, 1)),
}


@pytest.mark.parametrize("name", COVARIANCE_CONES)
def test_minimize_is_covariant_under_unimodular_maps(name):
    """U in GL_n(Z) applied to the rays maps the Reeb cone, the volume and the
    log discrepancy along, so the minimum stays and the argmin moves to
    U argmin.  A zero-width bracket must be equal on both sides; a wide one
    need only overlap, because the image is another float problem."""
    rays = COVARIANCE_CONES[name]
    base = minimize_nvol(ToricConeSingularity.from_rays(rays))
    rng = random.Random(name)
    maps = [_random_unimodular(rng, len(rays[0])) for _ in range(10)]
    if name == "C3/Z3":
        # certifies 9 only to within 1.5e-12, at an argmin near (0, 33, 21)
        maps.append([[1, 0, 0], [0, -3, 11], [0, -2, 7]])
    for u in maps:
        image = minimize_nvol(ToricConeSingularity.from_rays([_apply(u, ray) for ray in rays]))
        assert image.converged, u
        expected = [float(c) for c in _apply(u, base.argmin)]
        scale = max(map(abs, expected))
        assert all(abs(float(a) - b) <= 1e-9 * scale for a, b in zip(image.argmin, expected)), u
        brackets = [(r.min_nvol_lower, r.min_nvol_upper) for r in (base, image)]
        if all(lower == upper for lower, upper in brackets):
            assert brackets[0] == brackets[1], u
        else:
            assert max(lower for lower, _ in brackets) <= min(upper for _, upper in brackets), u


# -- hypersurfaces: Newton steps on the faces of the domain ----------------------


def _hypersurface(*monomials):
    return WeightedHomogeneousHypersurface(
        nvars=len(monomials[0]), monomials=tuple(RVector(m) for m in monomials)
    )


@pytest.mark.parametrize(
    "name, model, expected",
    [
        ("akm(4,4)", akm_singularity(4, 4), Fraction(4096, 27)),
        # no variable symmetry; the minimum is the point where all four tie
        (
            "x2+y3+z4+w12",
            _hypersurface([2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 4, 0], [0, 0, 0, 12]),
            Fraction(4, 3),
        ),
        # the ADE surfaces: 4 / |G| for the binary polyhedral group G
        ("E6", _hypersurface([2, 0, 0], [0, 3, 0], [0, 0, 4]), Fraction(1, 6)),
        # a mixed monomial and no variable symmetry
        ("E7", _hypersurface([2, 0, 0], [0, 3, 0], [0, 1, 3]), Fraction(1, 12)),
        ("E8", _hypersurface([2, 0, 0], [0, 3, 0], [0, 0, 5]), Fraction(1, 30)),
    ],
)
def test_hypersurface_brackets_have_zero_width(name, model, expected):
    best = minimize_nvol(model)
    assert best.min_nvol_lower == best.min_nvol_upper == expected
    assert best.converged
    assert model.logdisc(best.argmin) == model.n
    assert model.domain_logdisc(best.argmin) is not None


@pytest.mark.parametrize("k", range(4, 9))
def test_dk_surfaces_match_the_binary_dihedral_quotient(k):
    # x^2 + y^2 z + z^(k-1) is C^2 / BD_(k-2), whose minimum molien.py computes
    model = _hypersurface([2, 0, 0], [0, 2, 1], [0, 0, k - 1])
    expected = quotient_min_nvol(binary_dihedral_group(k - 2)).min_nvol
    best = minimize_nvol(model)
    assert best.min_nvol_lower == best.min_nvol_upper == expected


def test_hypersurface_that_is_not_klt_is_a_model_error():
    # 1/2 + 1/3 + 1/6 = 1: the log discrepancy vanishes on the domain
    with pytest.raises(ModelError):
        minimize_nvol(_hypersurface([2, 0, 0], [0, 3, 0], [0, 0, 6]))


def test_each_convexity_bound_is_computed_once_per_piece_and_run(monkeypatch):
    """On x^2+y^3+z^4+w^12 one Newton run prunes the other 10 pieces by their
    bounds at its point, and the lower bound reuses those bounds: 11 in all."""
    model = _hypersurface([2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 4, 0], [0, 0, 0, 12])
    calls = []
    bound = reeb._convexity_bound
    monkeypatch.setattr(reeb, "_convexity_bound", lambda *args: calls.append(args) or bound(*args))
    best = minimize_nvol(model)
    assert len(model.convex_pieces) == 11
    assert best.min_nvol_lower == best.min_nvol_upper == Fraction(4, 3)
    assert len(calls) == 11
    assert len({(id(piece), id(run)) for _, piece, run in calls}) == 11
