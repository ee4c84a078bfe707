import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvol.errors import NotInReebCone, PreconditionViolated
from hvol.exactgeom import RVector
from hvol.filtration import (
    PiecewisePoly,
    interpolation_derivative_forms,
    interpolation_volume,
    liu_bound_check,
    nvol_lower_bound_check,
    profile_dimension_check,
    profile_from_model,
    profile_integral,
    section_integral,
    section_volume,
    stability_gap,
    tail_volume,
    tail_volume_exact,
    theta_integral,
    volume_from_profile,
)
from hvol.singularities import (
    PolarizedConeData,
    ToricConeSingularity,
    affine_space,
    akm_singularity,
    canonical_weights,
    conifold,
    cyclic_quotient_cone,
)
from hvol.valuation import (
    log_discrepancy_hypersurface,
    log_discrepancy_toric,
    nvol_report,
)


@pytest.fixture(scope="module")
def plane_profile():
    # C^2 graded by (1,1), filtered by (1,2): vol_r(t) = 2 - t on [1, 2]
    return profile_from_model(affine_space(2), [1, 1], [1, 2])


@pytest.fixture(scope="module")
def space_profile():
    # C^3 graded by (1,1,1), filtered by (1,1,2): vol_r(t) = (2 - t)^2 on [1, 2]
    return profile_from_model(affine_space(3), [1, 1, 1], [1, 1, 2])


@pytest.fixture(scope="module")
def step_profile():
    # the filtration by the grading itself: a step profile
    w = canonical_weights(3, 2)
    return profile_from_model(akm_singularity(3, 2), w, w)


def test_plane_profile_pieces(plane_profile):
    p = plane_profile
    assert (p.degH, p.c1, p.c2, p.vol_v1) == (1, 1, 2, Fraction(1, 2))
    assert p.pieces.breakpoints == (1, 2)
    assert p.pieces.pieces == ((2, -1),)


def test_space_profile_pieces(space_profile):
    p = space_profile
    assert p.pieces.pieces == ((4, -4, 1),)
    assert p.vol_v1 == Fraction(1, 2)


def test_step_profile(step_profile):
    p = step_profile
    assert (p.c1, p.c2) == (1, 1)
    assert p.degH == Fraction(1, 4)
    assert p.vol_r(0.5) == 0.25
    assert p.vol_r(1.5) == 0.0


def test_profile_rejects_outside_reeb():
    with pytest.raises(NotInReebCone):
        profile_from_model(affine_space(2), [1, 1], [1, -1])


def test_hypersurface_profile_reduction_choice():
    # v1 with the pure power z4^3 as unique initial monomial still profiles:
    # the reduction variable must follow the initial form
    model = akm_singularity(3, 3)
    p = profile_from_model(model, canonical_weights(3, 3), [1, 1, 1, Fraction(1, 2)])
    assert p.degH == Fraction(1, 9)
    assert volume_from_profile(p) == pytest.approx(float(p.vol_v1), rel=1e-9)


def test_tail_volume_closed_forms(plane_profile, step_profile):
    # hand integral: Theta(t) = t^2/2 + 2 - 2t on [1, 2]
    assert tail_volume(plane_profile, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert tail_volume(plane_profile, 1.5) == pytest.approx(1 / 8, abs=1e-12)
    assert tail_volume(plane_profile, 2.0) == 0.0
    assert tail_volume(plane_profile, 5.0) == 0.0
    # step profile: Theta(x) = degH (1 - x^n) below the step
    assert tail_volume(step_profile, 0.5) == pytest.approx(0.25 * (1 - 0.125))


def test_theta_c1_identity(plane_profile, space_profile, step_profile):
    for p in (plane_profile, space_profile, step_profile):
        assert tail_volume_exact(p, p.c1) == p.degH - p.c1**p.n * p.vol_v1


def test_volume_from_profile(plane_profile, space_profile, step_profile):
    assert volume_from_profile(plane_profile) == pytest.approx(0.5, abs=1e-12)
    assert volume_from_profile(space_profile) == pytest.approx(0.5, abs=1e-12)
    assert volume_from_profile(step_profile) == pytest.approx(0.25, abs=1e-12)


def test_integral_identity(plane_profile, space_profile):
    for p in (plane_profile, space_profile):
        lhs = profile_integral(p, p.c1)
        rhs = (
            Fraction(p.n + 1, p.n) * theta_integral(p, p.c1)
            + p.c1 / p.n * tail_volume_exact(p, p.c1)
        )
        assert lhs == rhs


def test_section_volume(plane_profile):
    assert section_volume(plane_profile, -1.0) == 1.0
    # below c1 the section volume is degH - x^n vol(v1)
    assert section_volume(plane_profile, 0.5) == pytest.approx(1 - 0.5**2 * 0.5)
    assert section_volume(plane_profile, 3.0) == 0.0


def test_liu_bound(plane_profile, step_profile):
    assert liu_bound_check(plane_profile, [0.3, 0.9, 1.0, 1.5, 2.0])
    assert liu_bound_check(step_profile, [0.2, 0.5, 1.0])
    # strict inequality beyond c1: both sides computed by hand at x = 1.5
    lhs = section_volume(plane_profile, 1.5) + 0.5 * 1.5**2
    assert lhs > 1 + 1e-6
    with pytest.raises(PreconditionViolated):
        liu_bound_check(plane_profile, [5.0])


def test_interpolation_endpoints(plane_profile, step_profile):
    for lam in (0.5, 1.0, 2.0):
        assert interpolation_volume(plane_profile, lam, 0.0) == 1.0
        assert interpolation_volume(
            plane_profile, lam, 1.0
        ) == pytest.approx(lam**-2 * 0.5, abs=1e-10)
    assert interpolation_volume(step_profile, 2.0, 1.0) == pytest.approx(1 / 32, abs=1e-12)


def test_interpolation_midpoint_convexity(plane_profile, space_profile):
    for p in (plane_profile, space_profile):
        values = [interpolation_volume(p, 0.75, j / 20) for j in range(21)]
        for j in range(1, 20):
            assert values[j] <= (values[j - 1] + values[j + 1]) / 2 + 1e-9


def test_derivative_forms_plane(plane_profile):
    # lambda* = r / A(v1) = 2/3 makes the derivative vanish identically on C^2
    forms = interpolation_derivative_forms(plane_profile, 2 / 3)
    for value in (
        forms.via_profile_integral,
        forms.via_tail_integral,
        forms.via_tail_and_volume,
        forms.via_section_integral,
    ):
        assert value == pytest.approx(0.0, abs=1e-12)


def test_derivative_forms_agree(space_profile):
    for lam in (0.5, 1.0, 1.7):
        forms = interpolation_derivative_forms(space_profile, lam)
        assert forms.spread() <= 1e-12


def test_derivative_step_profile(step_profile):
    forms = interpolation_derivative_forms(step_profile, 1.0)
    assert forms.via_profile_integral == pytest.approx(0.0, abs=1e-12)
    forms2 = interpolation_derivative_forms(step_profile, 2.0)
    assert forms2.via_section_integral == pytest.approx(-3 * 0.25, abs=1e-12)


def test_stability_gap_plane(plane_profile):
    # the derivative vanishes in every direction on smooth C^2, so the gap is 0
    gap = stability_gap(plane_profile, 3.0, 3, 1)
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_stability_gap_scales_linearly():
    # the corner minimizer of the k=3 family has a strictly positive gap
    # toward weights with a larger last coordinate
    model = akm_singularity(3, 3)
    v0 = canonical_weights(3, 3)
    r = log_discrepancy_hypersurface(model, v0)
    delta = r * Fraction(4, 3)
    base = profile_from_model(model, v0, [1, 1, 1, 1])
    a = log_discrepancy_hypersurface(model, [1, 1, 1, 1])
    gap = stability_gap(base, float(a), delta, base.degH)
    doubled = profile_from_model(model, v0, [2, 2, 2, 2])
    a2 = log_discrepancy_hypersurface(model, [2, 2, 2, 2])
    gap2 = stability_gap(doubled, float(a2), delta, doubled.degH)
    assert gap > 1e-3
    assert gap2 == pytest.approx(2 * gap, rel=1e-9)


def test_gap_derivative_relation(space_profile):
    model = affine_space(3)
    r = log_discrepancy_toric(model, [1, 1, 1])
    a = log_discrepancy_toric(model, [1, 1, 2])
    lam_star = float(r / a)
    forms = interpolation_derivative_forms(space_profile, lam_star)
    gap = stability_gap(
        space_profile, float(a), r * Fraction(model.n + 1, model.n), space_profile.degH
    )
    assert forms.via_section_integral * float(a) == pytest.approx(
        model.n * float(space_profile.degH) * gap, abs=1e-12
    )


def test_nvol_lower_bound_check():
    report = nvol_report(akm_singularity(3, 2), canonical_weights(3, 2))
    cone = PolarizedConeData(n=3, r=Fraction(2), degH=Fraction(2))
    assert nvol_lower_bound_check(report, cone)
    report2 = nvol_report(akm_singularity(3, 3), [1, 1, 1, 1])
    cone2 = PolarizedConeData(
        n=3, r=log_discrepancy_hypersurface(akm_singularity(3, 3), canonical_weights(3, 3)) / 3,
        degH=Fraction(1, 9) * 3**3,
    )
    # nvol at (1,1,1,1) is 16 >= 125/9
    assert report2.nvol == 16
    assert nvol_lower_bound_check(report2, cone2)


def test_profile_dimension_identity():
    assert profile_dimension_check(affine_space(2), [1, 1], [1, 2], [5, 10, 20])
    assert profile_dimension_check(conifold(), [0, 0, 1], [1, 1, 3], [5, 10, 20])
    assert profile_dimension_check(
        akm_singularity(3, 2), canonical_weights(3, 2), [2, 1, 1, 1], [5, 10, 20]
    )


def test_piecewise_poly_validation():
    with pytest.raises(ValueError):
        PiecewisePoly(breakpoints=(Fraction(2), Fraction(1)), pieces=((Fraction(1),),))
    with pytest.raises(ValueError):
        PiecewisePoly(breakpoints=(Fraction(1), Fraction(2)), pieces=())


# v0 is the sum of the rays; v1 a random positive ray combination, so c1 != 1
INTERPOLATION_CONES = {
    "C3": affine_space(3).sigma.rays,
    "conifold": conifold().sigma.rays,
    "C2/Z3": cyclic_quotient_cone(3, 2).sigma.rays,
    "Y31": [[1, 0, 0], [1, 1, 2], [1, 3, 3], [1, 1, 0]],
}
RAY_COEFFICIENTS = st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=12)


@pytest.mark.parametrize("name", sorted(INTERPOLATION_CONES))
def test_interpolation_equals_closed_form_volume(name):
    # Phi(lambda, s) is the volume of the weight (1 - s) v0 + s lambda v1;
    # the model evaluates that from its dual-cone triangulation, never from
    # the profile
    model = ToricConeSingularity.from_rays(INTERPOLATION_CONES[name])
    rays = model.sigma.rays
    v0 = sum(rays[1:], rays[0])

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(RAY_COEFFICIENTS, min_size=len(rays), max_size=len(rays)),
        st.fractions(min_value=Fraction(1, 10), max_value=5, max_denominator=30),
        st.fractions(min_value=0, max_value=1, max_denominator=30),
    )
    def check(coeffs, lam, s):
        v1 = RVector([0] * model.n)
        for c, ray in zip(coeffs, rays):
            v1 = v1 + ray.scale(c)
        profile = profile_from_model(model, v0, v1)
        phi = interpolation_volume(profile, lam, s)
        assert phi == model.volume(v0.scale(1 - s) + v1.scale(s * lam))
        forms = interpolation_derivative_forms(profile, lam)
        assert (
            forms.via_profile_integral
            == forms.via_tail_integral
            == forms.via_tail_and_volume
            == forms.via_section_integral
        )

    check()
