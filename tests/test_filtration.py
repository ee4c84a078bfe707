import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvol.errors import NotInReebCone, PreconditionViolated
from hvol.exactgeom import Halfspace, Polytope, RVector, nullspace, polytope_volume
from hvol.filtration import (
    PiecewisePoly,
    _poly_tail_kernel,
    _tail_kernel_integral,
    interpolation_closed_form,
    interpolation_derivative_forms,
    interpolation_volume,
    liu_bound_check,
    phi_surface,
    profile_from_model,
    profile_integral,
    section_integral,
    stability_gap,
    tail_volume_exact,
    theta_integral,
    volume_from_profile,
)
from hvol.singularities import (
    ToricConeSingularity,
    WeightedHomogeneousHypersurface,
    affine_space,
    akm_singularity,
    canonical_weights,
    conifold,
    cyclic_quotient_cone,
)
from hvol.valuation import (
    log_discrepancy_hypersurface,
    log_discrepancy_toric,
    reduction_variable,
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


@pytest.mark.parametrize(
    "model,v0,v1",
    [
        (affine_space(2), [1, 0], [1, 1]),
        (akm_singularity(2, 2), [1, 1, 0], [1, 1, 1]),
        (affine_space(2), [1, 1], [0, 1]),
    ],
    ids=["C2, v0 on the boundary", "akm(2,2), v0 on the boundary", "C2, v1 on the boundary"],
)
def test_profile_dimension_check_refuses_non_reeb_weights(model, v0, v1):
    # the profile divides by the pairings with the Reeb generators, so a
    # weight on the boundary of the Reeb cone is refused
    with pytest.raises(NotInReebCone):
        profile_from_model(model, v0, v1)


def test_hypersurface_profile_reduction_choice():
    # v1 with the pure power z4^3 as unique initial monomial still profiles:
    # the reduction variable must follow the initial form
    model = akm_singularity(3, 3)
    p = profile_from_model(model, canonical_weights(3, 3), [1, 1, 1, Fraction(1, 2)])
    assert p.degH == Fraction(1, 9)
    # `volume` refuses a single initial monomial; the pieces still give
    # vol(v1) = d(v1) / prod(v1) = (3/2) / (1/2)
    assert p.vol_v1 == 3
    assert volume_from_profile(p) == pytest.approx(float(p.vol_v1), rel=1e-9)


def test_tail_volume_closed_forms(plane_profile, step_profile):
    # hand integral: Theta(t) = t^2/2 + 2 - 2t on [1, 2]
    assert tail_volume_exact(plane_profile, 1) == Fraction(1, 2)
    assert tail_volume_exact(plane_profile, Fraction(3, 2)) == Fraction(1, 8)
    assert tail_volume_exact(plane_profile, 2) == 0
    assert tail_volume_exact(plane_profile, 5) == 0
    # below c1, Theta(x) = degH - x^n vol(v1)
    assert tail_volume_exact(plane_profile, Fraction(1, 2)) == 1 - Fraction(1, 2) ** 2 / 2
    # step profile: Theta(x) = degH (1 - x^n) below the step
    assert tail_volume_exact(step_profile, Fraction(1, 2)) == Fraction(1, 4) * (1 - Fraction(1, 8))


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
    # for x > 0 the section volume vol(F^x) is Theta(x); floats are read exactly
    assert tail_volume_exact(plane_profile, 0.5) == pytest.approx(1 - 0.5**2 * 0.5)
    assert tail_volume_exact(plane_profile, 0.5) == 1 - Fraction(1, 2) ** 2 * plane_profile.vol_v1
    assert tail_volume_exact(plane_profile, 3.0) == 0


def test_liu_bound(plane_profile, step_profile):
    assert liu_bound_check(plane_profile, [0.3, 0.9, 1.0, 1.5, 2.0])
    assert liu_bound_check(step_profile, [0.2, 0.5, 1.0])
    # strict inequality beyond c1: both sides computed by hand at x = 1.5
    x = Fraction(3, 2)
    assert tail_volume_exact(plane_profile, x) + plane_profile.vol_v1 * x**2 > 1
    with pytest.raises(PreconditionViolated):
        liu_bound_check(plane_profile, [5.0])


def test_liu_bound_is_exact(plane_profile, space_profile):
    for p in (plane_profile, space_profile):
        assert liu_bound_check(p, [p.c1 * Fraction(j, 4) for j in range(1, 5)] + [p.c2])
    # equality on (0, c1] is exact: a vol(v1) off by 1e-30 breaks it
    nudged = dataclasses.replace(plane_profile, vol_v1=plane_profile.vol_v1 + Fraction(1, 10**30))
    assert not liu_bound_check(nudged, [Fraction(1, 2)])


def test_tail_volume_takes_a_float_at_its_binary_value(plane_profile, space_profile):
    for p in (plane_profile, space_profile):
        for x in (0.3, 1.1, 1.7):
            assert tail_volume_exact(p, x) == tail_volume_exact(p, Fraction(x))


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


# -- the closed-form profile against vertex-enumerated slices --------------------

PROFILE_CONES = {
    "C2": affine_space(2),
    "C3": affine_space(3),
    "C2/Z3": cyclic_quotient_cone(3, 2),
    "conifold": conifold(),
    "Y31": ToricConeSingularity.from_rays([[1, 0, 0], [1, 1, 2], [1, 3, 3], [1, 1, 0]]),
    "square pyramid": ToricConeSingularity.from_rays(
        [[1, 1, 0, 1], [1, -1, 0, 1], [-1, 1, 0, 1], [-1, -1, 0, 1], [0, 0, 1, 1]]
    ),
    "akm(2,3)": akm_singularity(2, 3),
    "akm(3,2)": akm_singularity(3, 2),
    "akm(3,3)": akm_singularity(3, 3),
}
# per hypersurface, a v1 whose reduction leaves two variables with equal ratios
EQUAL_RATIO_V1 = {
    "akm(2,3)": [1, 3, 2],
    "akm(3,2)": [2, 2, 2, 3],
    "akm(3,3)": [3, 4, 4, 3],
}


def _grading(model) -> RVector:
    if isinstance(model, ToricConeSingularity):
        rays = model.sigma.rays
        return sum(rays[1:], rays[0])
    return canonical_weights(model.n, int(model.monomials[-1][-1]))


def _vertex_enumerated_slice(model, v0, v1, t) -> Fraction:
    """n! vol {y in the cone : <v0, y> <= 1, <v1 - t v0, y> >= 0}, with the
    cone the dual cone, or for a hypersurface the orthant left after v1's
    reduction variable with that variable's exponent as multiplicity."""
    if isinstance(model, ToricConeSingularity):
        normals, multiplicity = list(model.sigma.rays), 1
    else:
        red, multiplicity = reduction_variable(model, v1)
        keep = [i for i in range(model.nvars) if i != red]
        v0, v1 = RVector(v0[i] for i in keep), RVector(v1[i] for i in keep)
        normals = [RVector(int(i == j) for j in keep) for i in keep]
    n = len(v0)
    hrep = [Halfspace(u, 0) for u in normals] + [Halfspace(-v0, 1)]
    if v1 != v0.scale(t):
        hrep.append(Halfspace(v1 - v0.scale(t), 0))
    return math.factorial(n) * multiplicity * polytope_volume(Polytope.from_hrep(hrep, n))


def _assert_profile_matches_slices(model, v0, v1, t):
    # at t * c2, at every knot and in the middle of every region
    profile = profile_from_model(model, v0, v1)
    mids = tuple((lo + hi) / 2 for lo, hi, _ in profile.regions)
    for x in (t * profile.c2,) + profile.pieces.breakpoints + mids:
        assert profile.vol_r_exact(x) == _vertex_enumerated_slice(model, v0, v1, x), x


def _repeated_knot_cases(name):
    model = PROFILE_CONES[name]
    v0 = _grading(model)
    cases = {"v1=v0": v0, "v1=2v0": v0.scale(2)}
    if name in EQUAL_RATIO_V1:
        cases["two equal ratios"] = RVector(EQUAL_RATIO_V1[name])
    elif model.n > 2:
        # move v0 along a direction orthogonal to two dual rays of one
        # simplicial cone, so that both keep the ratio 1
        _, rays = model.volume_triangulation[0]
        first, second = (model.dual.rays[i] for i in rays[:2])
        x = nullspace([list(first), list(second)], model.n)[0]
        step = min(u.dot(v0) / abs(u.dot(x)) for u in model.dual.rays if u.dot(x) != 0) / 2
        cases["two equal ratios"] = v0 + x.scale(step)
    return [pytest.param(name, v1, id=f"{name}, {kind}") for kind, v1 in cases.items()]


@pytest.mark.parametrize(
    "name,v1", [case for name in PROFILE_CONES for case in _repeated_knot_cases(name)]
)
def test_profile_with_repeated_knots_matches_slice_volume(name, v1):
    model = PROFILE_CONES[name]
    pieces = model.simplicial_pieces(_grading(model), v1)
    assert any(len(set(knots)) < len(knots) for _, knots in pieces)
    for t in (Fraction(1, 3), Fraction(7, 6)):
        _assert_profile_matches_slices(model, _grading(model), v1, t)


@pytest.mark.parametrize("name", sorted(PROFILE_CONES))
def test_profile_matches_slice_volume(name):
    # the B-spline pieces against n! times the volume of the slice at t,
    # measured from its enumerated vertices; t drawn up to 5/4 of c2 and
    # also taken at every knot
    model = PROFILE_CONES[name]
    v0 = _grading(model)
    toric = isinstance(model, ToricConeSingularity)
    size = len(model.sigma.rays) if toric else model.nvars

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(RAY_COEFFICIENTS, min_size=size, max_size=size),
        st.fractions(min_value=0, max_value=Fraction(5, 4), max_denominator=40),
    )
    def check(coeffs, t):
        v1 = RVector(coeffs)
        if toric:
            v1 = sum((ray.scale(c) for c, ray in zip(v1, model.sigma.rays)), RVector([0] * model.n))
        _assert_profile_matches_slices(model, v0, v1, t)

    check()


# -- Phi in closed form and the float profile path -------------------------------

X2Y3Z4W12 = WeightedHomogeneousHypersurface(
    nvars=4, monomials=((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 4, 0), (0, 0, 0, 12))
)


def _ray_combination(model, coeffs) -> RVector:
    return sum((ray.scale(c) for c, ray in zip(coeffs, model.sigma.rays)), RVector([0] * model.n))


# name -> (model, v0, v1).  On x^2+y^3+z^4+w^12 the reduction variable x has
# the least ratio, 1/2, so c1 lies below the first knot 1.
CLOSED_FORM_CASES = {
    name: (PROFILE_CONES[name], _grading(PROFILE_CONES[name]), RVector(v1))
    for name, v1 in (
        ("C2", [1, 2]),
        ("C3", [1, 1, 2]),
        ("C2/Z3", [Fraction(5, 2), Fraction(1, 2)]),
        ("conifold", [1, 1, 3]),
        ("Y31", _ray_combination(PROFILE_CONES["Y31"], [2, 1, 3, 1])),
        ("square pyramid", _ray_combination(PROFILE_CONES["square pyramid"], [1, 2, 1, 3, 2])),
        ("akm(2,3)", [1, 3, 2]),
        ("akm(3,2)", [2, 1, 1, 1]),
    )
}
CLOSED_FORM_CASES["x2+y3+z4+w12"] = (X2Y3Z4W12, RVector([6, 4, 3, 1]), RVector([3, 4, 4, 2]))
for _name in ("C3", "conifold", "akm(3,2)"):
    _v0 = _grading(PROFILE_CONES[_name])
    CLOSED_FORM_CASES[f"{_name}, v1=v0"] = (PROFILE_CONES[_name], _v0, _v0)
    CLOSED_FORM_CASES[f"{_name}, v1=2v0"] = (PROFILE_CONES[_name], _v0, _v0.scale(2))


def _closed_form_profile(name):
    model, v0, v1 = CLOSED_FORM_CASES[name]
    return model, v0, v1, profile_from_model(model, v0, v1)


def test_closed_form_case_with_c1_below_the_first_knot():
    _, _, _, p = _closed_form_profile("x2+y3+z4+w12")
    assert p.c1 == Fraction(1, 2) < p.pieces.breakpoints[0] == 1


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CASES))
def test_phi_surface_equals_interpolation_volume(name):
    # every grid value of the surface is the profile integral rounded once
    model, v0, v1, p = _closed_form_profile(name)
    lambdas = [0.5, 1.0, 2.0, model.logdisc(v0) / model.logdisc(v1)]
    surface = phi_surface(p, lambdas)
    for lam, row in zip(lambdas, surface.values):
        for j, value in enumerate(row):
            s = Fraction(j, 20)
            phi = interpolation_volume(p, lam, s)
            assert interpolation_closed_form(p, lam, s) == phi
            assert value == float(phi), (lam, j)


def test_phi_surface_never_integrates_the_profile(monkeypatch, space_profile):
    import hvol.filtration as filtration

    def refuse(*args):
        raise AssertionError("phi_surface went through the profile path")

    monkeypatch.setattr(filtration, "interpolation_volume", refuse)
    monkeypatch.setattr(filtration, "_poly_compose_affine", refuse)
    surface = phi_surface(space_profile, [1.0])
    assert surface.values[0][0] == float(space_profile.degH)
    assert surface.values[0][-1] == float(space_profile.vol_v1)


@pytest.mark.parametrize(
    "model, flags",
    [
        (
            '{"type":"toric_cone","rays":[[1,0,0],[0,1,0],[-1,0,1],[0,-1,1]]}',
            ["--v1=-3,3,5", "--v0=0,0,2"],
        ),
        ('{"type":"akm","n":3,"k":2}', ["--v1=2/3,1,6,4"]),
    ],
    ids=["conifold", "akm(3,2)"],
)
def test_json_run_never_samples_the_profile(monkeypatch, capsys, model, flags):
    from hvol import cli
    from hvol.filtration import VolumeProfile

    argv = ["filtration", "--model", model, *flags]
    assert cli.main(argv) == 0
    unpatched = capsys.readouterr().out

    def refuse(self, t):
        raise AssertionError("the profile was sampled for a CSV")

    monkeypatch.setattr(VolumeProfile, "vol_r", refuse)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == unpatched
    # the patch reaches the CSV path: asking for the CSV samples the profile
    with pytest.raises(AssertionError, match="sampled"):
        cli.main(argv + ["--format", "csv"])


def _vol_r_reference(p, t: float) -> float:
    """The region chosen by exact comparison at t's binary value, then the
    piece evaluated by float Horner steps from the top coefficient."""
    bps = p.pieces.breakpoints
    if t <= bps[0]:
        return float(p.degH)
    if t >= bps[-1]:
        return 0.0
    for hi, coeffs in zip(bps[1:], p.pieces.pieces):
        if t <= hi:
            result = 0.0
            for c in reversed(coeffs):
                result = result * t + float(c)
            return result


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CASES))
def test_vol_r_float_path(name):
    *_, p = _closed_form_profile(name)
    c2 = float(p.c2)
    near = [math.nextafter(float(b), x) for b in p.pieces.breakpoints for x in (0, math.inf)]
    samples = (
        [0.0, -1.0, c2, 1.05 * c2, 2 * c2]
        + [float(b) for b in p.pieces.breakpoints]
        + near
        + [c2 * 1.05 * j / 399 for j in range(400)]
    )
    for t in samples:
        assert p.vol_r(t) == _vol_r_reference(p, t), t


def _tail_kernel_reference(p, x: Fraction) -> Fraction:
    """integral_x^inf vol_r(t) t^(-n-1) dt summed region by region."""
    total = Fraction(0)
    for lo, hi, coeffs in p.regions:
        if max(lo, x) < hi:
            total += _poly_tail_kernel(coeffs, max(lo, x), hi, p.n)
    return total


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CASES))
def test_cached_tail_integrals_equal_the_direct_sum(name):
    *_, p = _closed_form_profile(name)
    points = [p.c1, p.c2, *p.pieces.breakpoints, *((lo + hi) / 2 for lo, hi, _ in p.regions)]
    for x in points:
        assert _tail_kernel_integral(p, x) == _tail_kernel_reference(p, x), x
        expected = p.n * x**p.n * _tail_kernel_reference(p, x) if x < p.c2 else 0
        assert tail_volume_exact(p, x) == expected, x
