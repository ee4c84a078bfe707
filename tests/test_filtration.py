import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvol.errors import IntegralDivergence, ModelError, NotInReebCone, PreconditionViolated
from hvol.exactgeom import RVector, int_kernel
from hvol.filtration import (
    DerivativeForms,
    VolumeProfile,
    _bspline_tail,
    _poly_compose_affine,
    _poly_eval,
    _poly_integral,
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
from hvol.selftest import Halfspace, Polytope, polytope_volume
from hvol.singularities import (
    ToricConeSingularity,
    WeightedHomogeneousHypersurface,
    affine_space,
    akm_singularity,
    canonical_weights,
    conifold,
    cyclic_quotient_cone,
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


def _fraction_regions(p):
    """`p.regions` read as (lo, hi, coefficients) in Fractions."""
    return [
        (Fraction(*lo), Fraction(*hi), tuple(Fraction(c, den) for c in nums))
        for lo, hi, nums, den in p.regions
    ]


def _pieces(p):
    """The polynomial pieces after the constant degH region."""
    return tuple(coeffs for _, _, coeffs in _fraction_regions(p)[1:])


def _midpoints(p):
    return tuple((lo + hi) / 2 for lo, hi, _ in _fraction_regions(p))


def test_plane_profile_pieces(plane_profile):
    p = plane_profile
    assert (p.degH, p.c1, p.c2, p.vol_v1) == (1, 1, 2, Fraction(1, 2))
    assert p.breakpoints == (1, 2)
    assert _fraction_regions(p) == [(0, 1, (1,)), (1, 2, (2, -1))]


def test_space_profile_pieces(space_profile):
    p = space_profile
    assert _pieces(p) == ((4, -4, 1),)
    assert p.vol_v1 == Fraction(1, 2)


def test_profile_is_stored_in_ints(space_profile, step_profile):
    # regions (lo, hi, nums, den) with lo and hi pairs (num, den), and
    # simplices (weight num, weight den, knot pairs): no Fraction inside
    def ints(value):
        if isinstance(value, tuple):
            return all(ints(v) for v in value)
        return type(value) is int

    model, v0, v1 = X2Y3Z4W12, RVector([6, 4, 3, 1]), RVector([3, 4, 4, 2])
    for p in (space_profile, step_profile, profile_from_model(model, v0, v1)):
        assert type(p.regions) is tuple and type(p.simplices) is tuple
        assert ints(p.regions) and ints(p.simplices)
        assert all(len(r) == 4 and len(r[0]) == len(r[1]) == 2 for r in p.regions)
        assert all(len(s) == 3 and all(len(k) == 2 for k in s[2]) for s in p.simplices)


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
    # under the canonical v0 the piece on all four knots has weight 0
    model = akm_singularity(3, 3)
    p = profile_from_model(model, canonical_weights(3, 3), [1, 1, 1, Fraction(1, 2)])
    assert p.degH == Fraction(1, 9)
    # `volume` refuses a single initial monomial; the pieces still give
    # vol(v1) = d(v1) / prod(v1) = (3/2) / (1/2)
    assert p.vol_v1 == 3
    assert volume_from_profile(p) == pytest.approx(float(p.vol_v1), rel=1e-9)


AKM_3_2 = '{"type":"akm","n":3,"k":2}'


def test_hypersurface_profile_refuses_a_reduction_outside_the_grading(capsys):
    # v1 = (2,2,2,1) has z4^2 alone at its least weight, but v0 = (1,1,1,2)
    # does not have z4^2 at its least: A(v1) and vol(v1) read z4^2, the
    # numerator of the v0-graded ring the monomials z1^2, z2^2, z3^2
    from hvol import cli

    model = akm_singularity(3, 2)
    assert model.volume([1, 1, 1, 2]) == 1
    message = "no monomial of least v0-weight has the least v1-weight"
    with pytest.raises(ModelError, match=f"^{message}$"):
        profile_from_model(model, [1, 1, 1, 2], [2, 2, 2, 1])
    assert cli.main(["filtration", "--model", AKM_3_2, "--v0=1,1,1,2", "--v1=2,2,2,1"]) == 3
    assert capsys.readouterr().err.startswith(f"error[model_error]: {message}")


def test_hypersurface_profile_refuses_a_v0_with_one_least_monomial():
    # z4^3 alone has the least v0-weight: the error of `volume`
    model = akm_singularity(3, 3)
    message = "^a-initial form of the defining polynomial is a single monomial$"
    for call in (model.volume, lambda v0: profile_from_model(model, v0, [1, 1, 1, 1])):
        with pytest.raises(ModelError, match=message):
            call([1, 1, 1, Fraction(1, 2)])


def test_hypersurface_profile_merges_regions_across_a_cancelled_knot():
    # v0 = (2,1,1,1) has z2^2, z3^2, z4^2 at its least weight 2, and v1 =
    # (1,2,1,2) gives z3^2 the least v1-weight 2 among them; the knots are
    # 1/2, 2, 1, 2.  The numerator cancels the knot 1 of z3: the two pieces
    # change there by opposite amounts, so one region spans it.
    model = akm_singularity(3, 2)
    v0, v1 = RVector([2, 1, 1, 1]), RVector([1, 2, 1, 2])
    first, second = model.simplicial_pieces(v0, v1)
    assert first == (1, 1, ((2, 1), (1, 1), (2, 1)))
    assert second == (-1, 2, ((1, 2), (2, 1), (1, 1), (2, 1)))
    p = profile_from_model(model, v0, v1)
    assert p.degH == model.volume(v0) == 1
    assert (p.c1, p.breakpoints) == (Fraction(1, 2), (Fraction(1, 2), 2))
    _assert_profile_matches_slices(model, v0, v1, Fraction(1, 2))


def _doubled_numerator(monkeypatch, *classes):
    """Let each model class's pieces carry twice their weight: the numerator
    2 (1 - x^alpha y^beta) on a hypersurface, a profile consistent in itself
    whose degH is twice vol(v0)."""
    for cls in classes:
        pieces = cls.simplicial_pieces
        monkeypatch.setattr(
            cls,
            "simplicial_pieces",
            lambda self, v0, v1, pieces=pieces: [
                (2 * w_num, w_den, knots) for w_num, w_den, knots in pieces(self, v0, v1)
            ],
        )


def test_phi_at_zero_fails_on_a_profile_with_a_wrong_degh(monkeypatch, capsys):
    # the check compares Phi(lam, 0) = degH with the closed form vol(v0) = 1;
    # every other check reads the profile alone
    from hvol import cli

    argv = ["filtration", "--model", AKM_3_2, "--v0=1,1,1,2", "--v1=1,2,1,2"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    _doubled_numerator(monkeypatch, WeightedHomogeneousHypersurface)
    assert cli.main(argv) == 2
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = [(c["name"], c["lhs"], c["rhs"]) for c in checks if not c["pass"]]
    assert failed == [("phi_at_zero", "2", "1")]


def test_selftest_phi_at_zero_fails_on_a_profile_with_a_wrong_degh(monkeypatch):
    import hvol.selftest as selftest

    _doubled_numerator(monkeypatch, WeightedHomogeneousHypersurface, ToricConeSingularity)
    checks = selftest.check_interpolation_calculus()
    phi_at_zero = [c for c in checks if c["name"].startswith("phi_at_zero[")]
    phi_at_one = [c for c in checks if c["name"].startswith("phi_at_one[")]
    assert len(phi_at_zero) == 4 and not any(c["pass"] for c in phi_at_zero)
    assert len(phi_at_one) == 16 and all(c["pass"] for c in phi_at_one)


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
    # equality on (0, c1] is exact: a vol(v1) off by 1e-30 breaks it, also
    # after the original profile has memoized Theta's tail integral at 1/2
    p = plane_profile
    assert (1, 2) in p._tail_integral_memo
    nudged = VolumeProfile(
        p.n, p.degH, p.c1, p.c2, p.vol_v1 + Fraction(1, 10**30), p.regions, p.simplices
    )
    assert not liu_bound_check(nudged, [Fraction(1, 2)])


@pytest.mark.parametrize(
    "x", [0, -1, -0.0, Fraction(-1, 3)], ids=["0", "-1", "-0.0", "-1/3"]
)
def test_tail_volume_refuses_levels_at_or_below_zero(x):
    # on C^2 graded by (1,1) and filtered by (1,2); x^n G(x) would divide by 0
    p = profile_from_model(affine_space(2), [1, 1], [1, 2])
    with pytest.raises(PreconditionViolated, match="x > 0"):
        tail_volume_exact(p, x)
    assert p._tail_integral_memo == {}


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
    # the derivative vanishes in every direction on smooth C^2, so the gap is
    # 0: A(v0) = 2, A(v1) = 3
    gap = stability_gap(plane_profile, 2, 3)
    assert type(gap) is Fraction and gap == 0


def test_stability_gap_scales_linearly():
    # the corner minimizer of the k=3 family has a strictly positive gap
    # toward weights with a larger last coordinate
    model = akm_singularity(3, 3)
    v0 = canonical_weights(3, 3)
    r = model.logdisc(v0)
    base = profile_from_model(model, v0, [1, 1, 1, 1])
    a = model.logdisc([1, 1, 1, 1])
    gap = stability_gap(base, r, a)
    doubled = profile_from_model(model, v0, [2, 2, 2, 2])
    a2 = model.logdisc([2, 2, 2, 2])
    gap2 = stability_gap(doubled, r, a2)
    assert gap > Fraction(1, 1000)
    assert gap2 == 2 * gap


def test_gap_derivative_relation(space_profile):
    model = affine_space(3)
    r = model.logdisc([1, 1, 1])
    a = model.logdisc([1, 1, 2])
    forms = interpolation_derivative_forms(space_profile, r / a)
    gap = stability_gap(space_profile, r, a)
    assert forms.via_section_integral * a == model.n * space_profile.degH * gap


@pytest.mark.parametrize(
    "model, flags, gap",
    [
        (
            '{"type":"toric_cone","rays":[[1,0,0],[0,1,0],[-1,0,1],[0,-1,1]]}',
            ["--v0=0,0,2", "--v1=4/5,8/5,2"],
            Fraction(0),
        ),
        (
            '{"type":"toric_cone","rays":[[1,0,0],[0,1,0],[0,0,1]]}',
            ["--v0=1,1,3/2", "--v1=1,6,5"],
            Fraction(-1, 18),
        ),
    ],
    ids=["conifold", "C3"],
)
def test_reported_gap_is_the_exact_gap_rounded_once(capsys, model, flags, gap):
    # a float formula cancels here: 8.9e-16 for the exact 0 on the
    # conifold, and -0.055555555555557135 for -1/18 on C^3
    from hvol import cli

    assert cli.main(["filtration", "--model", model, *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["stability_gap_approx"] == f"{float(gap):.17g}"


def test_volume_profile_refuses_regions_that_do_not_tile(plane_profile):
    p = plane_profile
    first, second = p.regions
    lo, hi, nums, den = second

    def rebuild(regions):
        return VolumeProfile(p.n, p.degH, p.c1, p.c2, p.vol_v1, regions, p.simplices)

    assert rebuild((first, second)).regions == p.regions
    reversed_ends = (first, (lo, (1, 2), nums, den))
    gap = (first, ((3, 2), hi, nums, den))
    for regions in ((second, first), reversed_ends, gap):
        with pytest.raises(ModelError, match="tile"):
            rebuild(regions)
    with pytest.raises(ModelError, match="not at c2"):
        rebuild((first,))


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
    rays = [RVector(ray) for ray in model.sigma.rays]
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
        rays = [RVector(ray) for ray in model.sigma.rays]
        return sum(rays[1:], rays[0])
    return canonical_weights(model.n, int(model.monomials[-1][-1]))


def _pure_power(model, v0, v1) -> tuple[int, int]:
    """(j, e) of a pure power z_j^e of least weight under v0 and v1 whose
    variable occurs in no other monomial."""
    least = [min(RVector(m).dot(v) for m in model.monomials) for v in (v0, v1)]
    for j in range(model.nvars):
        owners = [m for m in model.monomials if m[j]]
        if len(owners) == 1 and sum(owners[0]) == owners[0][j]:
            if all(RVector(owners[0]).dot(v) == d for v, d in zip((v0, v1), least)):
                return j, owners[0][j]
    raise ValueError("no pure power of least weight under v0 and v1")


def _vertex_enumerated_slice(model, v0, v1, t) -> Fraction:
    """n! vol {y in the cone : <v0, y> <= 1, <v1 - t v0, y> >= 0}, with the
    cone the dual cone, or for a hypersurface the orthant left after a pure
    power z_j^e of least weight under v0 and v1, with e as multiplicity."""
    if isinstance(model, ToricConeSingularity):
        normals, multiplicity = list(model.sigma.rays), 1
    else:
        red, multiplicity = _pure_power(model, v0, v1)
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
    for x in (t * profile.c2,) + profile.breakpoints + _midpoints(profile):
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
        f, x = int_kernel([first, second], model.n)[0]
        x = RVector(x).scale(Fraction(1, x[f]))
        step = min(v0.dot(u) / abs(x.dot(u)) for u in model.dual.rays if x.dot(u) != 0) / 2
        cases["two equal ratios"] = v0 + x.scale(step)
    return [pytest.param(name, v1, id=f"{name}, {kind}") for kind, v1 in cases.items()]


@pytest.mark.parametrize(
    "name,v1", [case for name in PROFILE_CONES for case in _repeated_knot_cases(name)]
)
def test_profile_with_repeated_knots_matches_slice_volume(name, v1):
    model = PROFILE_CONES[name]
    pieces = model.simplicial_pieces(_grading(model), v1)
    assert any(len(set(knots)) < len(knots) for *_, knots in pieces)
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
            v1 = sum((RVector(ray).scale(c) for c, ray in zip(v1, model.sigma.rays)), RVector([0] * model.n))
        _assert_profile_matches_slices(model, v0, v1, t)

    check()


# -- Phi in closed form and the float profile path -------------------------------

X2Y3Z4W12 = WeightedHomogeneousHypersurface(
    nvars=4, monomials=((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 4, 0), (0, 0, 0, 12))
)


def _ray_combination(model, coeffs) -> RVector:
    return sum((RVector(ray).scale(c) for c, ray in zip(coeffs, model.sigma.rays)), RVector([0] * model.n))


# name -> (model, v0, v1).  On x^2+y^3+z^4+w^12 the variable x has the least
# ratio, 1/2, and the piece on all four knots weight 0, so c1 lies below the
# first breakpoint 1.
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


def test_xy_zw_profile_equals_the_toric_conifold():
    # xy + zw is the conifold.  Its variables in the order of the dual rays
    # u1, ..., u4, where u1 + u4 = u2 + u3, make the monomials x w and y z,
    # and the Reeb vector xi gives the weights <u_i, xi>; no variable is a
    # pure power, so only the numerator 1 - x^alpha y^beta gives the profile
    toric = conifold()
    u1, u2, u3, u4 = (RVector(u) for u in toric.dual.rays)
    assert u1 + u4 == u2 + u3
    hypersurface = WeightedHomogeneousHypersurface(nvars=4, monomials=((1, 0, 0, 1), (0, 1, 1, 0)))
    rng = random.Random(503183)

    def reeb() -> RVector:
        coeffs = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in toric.sigma.rays]
        return _ray_combination(toric, coeffs)

    def weights(xi: RVector) -> RVector:
        return RVector(u.dot(xi) for u in (u1, u2, u3, u4))

    grid = [(Fraction(1, 2), Fraction(1, 3)), (1, Fraction(1, 2)), (3, Fraction(5, 7)), (2, 1)]
    for _ in range(24):
        v0, v1 = reeb(), reeb()
        p = profile_from_model(toric, v0, v1)
        h = profile_from_model(hypersurface, weights(v0), weights(v1))
        assert (h.n, h.degH, h.c1, h.c2, h.vol_v1) == (p.n, p.degH, p.c1, p.c2, p.vol_v1)
        assert h.breakpoints == p.breakpoints and _fraction_regions(h) == _fraction_regions(p)
        for lam, s in grid:
            assert interpolation_closed_form(h, lam, s) == interpolation_closed_form(p, lam, s)


def test_xy_zw_filtration_passes_every_check(capsys):
    from hvol import cli

    model = '{"type":"hypersurface","n":3,"monomials":[[1,1,0,0],[0,0,1,1]]}'
    assert cli.main(["filtration", "--model", model, "--v0=1,1,1,1", "--v1=1,2,1,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] and all(c["pass"] for c in report["checks"])
    assert (report["results"]["c1"]["exact"], report["results"]["c2"]["exact"]) == ("1", "2")


def test_closed_form_case_with_c1_below_the_first_knot():
    _, _, _, p = _closed_form_profile("x2+y3+z4+w12")
    assert p.c1 == Fraction(1, 2) < p.breakpoints[0] == 1


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
    bps = p.breakpoints
    if t <= bps[0]:
        return float(p.degH)
    if t >= bps[-1]:
        return 0.0
    for hi, coeffs in zip(bps[1:], _pieces(p)):
        if t <= hi:
            result = 0.0
            for c in reversed(coeffs):
                result = result * t + float(c)
            return result


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CASES))
def test_vol_r_float_path(name):
    *_, p = _closed_form_profile(name)
    c2 = float(p.c2)
    near = [math.nextafter(float(b), x) for b in p.breakpoints for x in (0, math.inf)]
    samples = (
        [0.0, -1.0, c2, 1.05 * c2, 2 * c2]
        + [float(b) for b in p.breakpoints]
        + near
        + [c2 * 1.05 * j / 399 for j in range(400)]
    )
    for t in samples:
        assert p.vol_r(t) == _vol_r_reference(p, t), t


def _tail_kernel_reference(p, x: Fraction) -> Fraction:
    """integral_x^inf vol_r(t) t^(-n-1) dt summed region by region."""
    total = Fraction(0)
    for lo, hi, coeffs in _fraction_regions(p):
        if max(lo, x) < hi:
            total += _ref_tail_kernel(coeffs, max(lo, x), hi, p.n)
    return total


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CASES))
def test_cached_tail_integrals_equal_the_direct_sum(name):
    *_, p = _closed_form_profile(name)
    points = [p.c1, p.c2, *p.breakpoints, *_midpoints(p)]
    for x in points:
        g = _tail_kernel_integral(p, x.as_integer_ratio())
        assert Fraction(*g) == _tail_kernel_reference(p, x), x
        expected = p.n * x**p.n * _tail_kernel_reference(p, x) if x < p.c2 else 0
        assert tail_volume_exact(p, x) == expected, x


# -- the integer kernels against plain Fraction references -----------------------


def _ref_eval(coeffs, t: Fraction) -> Fraction:
    result = Fraction(0)
    for c in reversed(coeffs):
        result = result * t + c
    return result


def _ref_integral(coeffs, lo: Fraction, hi: Fraction) -> Fraction:
    total = Fraction(0)
    for j, c in enumerate(coeffs):
        total += c * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1)
    return total


def _ref_tail_kernel(coeffs, lo: Fraction, hi: Fraction, n: int) -> Fraction:
    total = Fraction(0)
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        if j == n:
            raise IntegralDivergence("degree-n term would produce a logarithm")
        power = j - n
        total += c * (hi**power - lo**power) / power
    return total


def _ref_compose_affine(coeffs, b0: Fraction, b1: Fraction) -> list[Fraction]:
    out = [coeffs[-1]]
    for c in reversed(coeffs[:-1]):
        new = [o * b0 for o in out] + [Fraction(0)]
        for k, o in enumerate(out):
            new[k + 1] += o * b1
        new[0] += c
        out = new
    return out


def _ref_bspline_tail(knots, hi: Fraction, n: int) -> list[Fraction]:
    ks = sorted(knots)

    def taylor(k, j):
        coeffs = [Fraction(0)] * n
        if k >= hi:
            m = n - 1 - j
            for i in range(m + 1):
                coeffs[i] = math.comb(n - 1, j) * math.comb(m, i) * (-1) ** i * k ** (m - i)
        return coeffs

    column = [taylor(k, 0) for k in ks]
    for j in range(1, n):
        column = [
            taylor(ks[i], j)
            if ks[i + j] == ks[i]
            else [(b - a) / (ks[i + j] - ks[i]) for a, b in zip(column[i], column[i + 1])]
            for i in range(n - j)
        ]
    return column[0]


BIG = 10**30
NUMERATORS = st.integers(min_value=-BIG, max_value=BIG)
COEFFS = st.lists(NUMERATORS, min_size=1, max_size=6)
DENOMINATORS = st.integers(min_value=1, max_value=BIG)
POINTS = st.tuples(NUMERATORS, DENOMINATORS)
POSITIVE = st.tuples(st.integers(min_value=1, max_value=BIG), DENOMINATORS)
KERNEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _fractions(nums, den):
    return [Fraction(c, den) for c in nums]


def _exact(value, expected):
    assert type(value) is Fraction
    assert value == expected


def _exact_pair(pair, expected):
    """An integer pair (num, den) with den > 0 that equals `expected`."""
    num, den = pair
    assert type(num) is int and type(den) is int and den > 0
    _exact(Fraction(num, den), expected)


@KERNEL_SETTINGS
@given(COEFFS, DENOMINATORS, POINTS)
@example([0, 0, 0], 1, (0, 1))
@example([-3, 0, 5], 7, (-2, 3))
def test_poly_eval_matches_fraction_horner(nums, den, t):
    _exact(_poly_eval(nums, den, t), _ref_eval(_fractions(nums, den), Fraction(*t)))


@KERNEL_SETTINGS
@given(COEFFS, DENOMINATORS, POINTS, POINTS)
@example([1, -2, 0, 4], 3, (0, 1), (5, 2))
@example([0], 1, (0, 1), (1, 1))
@example([BIG, -BIG], BIG - 1, (-BIG, 7), (BIG, 11))
def test_poly_integral_matches_fraction_reference(nums, den, lo, hi):
    expected = _ref_integral(_fractions(nums, den), Fraction(*lo), Fraction(*hi))
    _exact_pair(_poly_integral(nums, den, lo, hi), expected)


@KERNEL_SETTINGS
@given(st.integers(min_value=1, max_value=5), st.data())
@example(3, None)
def test_poly_tail_kernel_matches_fraction_reference(n, data):
    if data is None:  # zeros, a negative coefficient and a repeated end
        nums, den, lo, hi = [0, -5, 0], 2, (1, 3), (1, 3)
    else:
        nums = data.draw(st.lists(NUMERATORS, min_size=1, max_size=n))
        den = data.draw(DENOMINATORS)
        lo, hi = data.draw(POSITIVE), data.draw(POSITIVE)
    expected = _ref_tail_kernel(_fractions(nums, den), Fraction(*lo), Fraction(*hi), n)
    _exact_pair(_poly_tail_kernel(nums, den, lo, hi, n), expected)


@KERNEL_SETTINGS
@given(st.integers(min_value=1, max_value=5), COEFFS, NUMERATORS.filter(bool), DENOMINATORS)
def test_poly_tail_kernel_refuses_a_degree_n_term(n, nums, top, den):
    nums = (nums + [0] * n)[:n] + [top]
    with pytest.raises(IntegralDivergence):
        _poly_tail_kernel(nums, den, (1, 2), (3, 1), n)
    with pytest.raises(IntegralDivergence):
        _ref_tail_kernel(_fractions(nums, den), Fraction(1, 2), Fraction(3), n)


@KERNEL_SETTINGS
@given(COEFFS, DENOMINATORS, NUMERATORS, NUMERATORS, NUMERATORS.filter(bool))
@example([0, 0], 1, 0, 1, 1)
@example([4, -1, 0, 2], 9, -3, 5, -7)
def test_poly_compose_affine_matches_fraction_reference(nums, den, b0, b1, e):
    out, out_den = _poly_compose_affine(nums, den, b0, b1, e)
    assert all(type(c) is int for c in out) and type(out_den) is int
    composed = [Fraction(c, out_den) for c in out]
    expected = _ref_compose_affine(_fractions(nums, den), Fraction(b0, e), Fraction(b1, e))
    for value, ref in zip(composed, expected, strict=True):
        _exact(value, ref)


# knots drawn from a small pool, so that runs of equal knots (the confluent
# branch) are common
KNOTS = st.fractions(min_value=Fraction(1, 7), max_value=6, max_denominator=7)


@KERNEL_SETTINGS
@given(st.integers(min_value=1, max_value=5), st.data())
@example(4, None)
def test_bspline_tail_matches_fraction_reference(n, data):
    if data is None:  # a run of three equal knots below a fourth
        knots = [Fraction(3, 2)] * 3 + [Fraction(5, 2)]
    else:
        pool = data.draw(st.lists(KNOTS, min_size=1, max_size=3))
        knots = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    # cleared to one denominator as profile_from_model clears them
    q = math.lcm(*(k.denominator for k in knots))
    xs = sorted(k.numerator * (q // k.denominator) for k in knots)
    for hi in sorted(set(xs)):
        nums, den = _bspline_tail(xs, hi, n)
        assert all(type(c) is int for c in nums) and type(den) is int
        expected = _ref_bspline_tail(knots, Fraction(hi, q), n)
        for j, (c, ref) in enumerate(zip(nums, expected, strict=True)):
            _exact(Fraction(c * q**j, den), ref)


# -- the exact calculus against plain-Fraction references -------------------------


def _ref_theta_integral(p, lo: Fraction) -> Fraction:
    """integral_lo^inf Theta(t) dt with Theta(t) = n t^n G(t): on a region
    [a, v], G(t) = G(v) + sum_j c_j (t^(j-n) - v^(j-n)) / (n - j)."""
    n, total = p.n, Fraction(0)
    for a, v, coeffs in _fraction_regions(p):
        a = max(a, lo)
        if a >= v:
            continue
        theta = [Fraction(0)] * (n + 1)
        theta[n] = n * _tail_kernel_reference(p, v)
        for j, c in enumerate(coeffs):
            theta[j] += n * c / (n - j)
            theta[n] -= n * c * v ** (j - n) / (n - j)
        total += _ref_integral(theta, a, v)
    return total


def _ref_profile_integral(p, lo: Fraction) -> Fraction:
    total = Fraction(0)
    for a, v, coeffs in _fraction_regions(p):
        if max(a, lo) < v:
            total += _ref_integral(coeffs, max(a, lo), v)
    return total


def _ref_theta(p, x: Fraction) -> Fraction:
    return p.n * x**p.n * _tail_kernel_reference(p, x)


def _ref_interpolation_volume(p, lam: Fraction, s: Fraction) -> Fraction:
    """degH / u(c1)^n - n integral_{c1}^inf vol_r(t) lambda s / u(t)^(n+1) dt
    with u(t) = 1 - s + lambda s t, integrated in u."""
    if s == 0:
        return p.degH
    shift, slope = 1 - s, lam * s
    tail = Fraction(0)
    for a, v, coeffs in _fraction_regions(p):
        a = max(a, p.c1)
        if a < v:
            in_u = _ref_compose_affine(list(coeffs), -shift / slope, 1 / slope)
            tail += _ref_tail_kernel(in_u, shift + slope * a, shift + slope * v, p.n)
    return p.degH / (shift + slope * p.c1) ** p.n - p.n * tail


def _ref_spread(forms) -> Fraction:
    vals = tuple(forms)
    return (max(vals) - min(vals)) / max(1, max(abs(v) for v in vals))


def _ref_liu_bound(p, xs) -> bool:
    for x in xs:
        lhs = _ref_theta(p, x) + p.vol_v1 * x**p.n
        if lhs < p.degH or (x <= p.c1 and lhs != p.degH):
            return False
    return True


def _calculus_cases():
    """Every CLOSED_FORM_CASES profile, then v1 drawn from a seeded generator
    as positive combinations of the rays of the toric PROFILE_CONES."""
    cases = [pytest.param(*CLOSED_FORM_CASES[name], id=name) for name in sorted(CLOSED_FORM_CASES)]
    rng = random.Random(1511)
    toric = [name for name, m in PROFILE_CONES.items() if isinstance(m, ToricConeSingularity)]
    for k in range(18):
        name = toric[k % len(toric)]
        model = PROFILE_CONES[name]
        coeffs = [Fraction(rng.randint(1, 40), rng.randint(1, 12)) for _ in model.sigma.rays]
        v1 = _ray_combination(model, coeffs)
        cases.append(pytest.param(model, _grading(model), v1, id=f"{name}, draw {k}"))
    return cases


def _sample_points(p) -> list[Fraction]:
    return [p.c1 * Fraction(j, 4) for j in range(1, 5)] + [p.c2, *p.breakpoints, *_midpoints(p)]


@pytest.mark.parametrize("model, v0, v1", _calculus_cases())
def test_exact_calculus_matches_fraction_references(model, v0, v1):
    p = profile_from_model(model, v0, v1)
    points = _sample_points(p)
    for lo in [Fraction(0), p.c1, *points]:
        _exact(theta_integral(p, lo), _ref_theta_integral(p, lo))
        _exact(profile_integral(p, lo), _ref_profile_integral(p, lo))
    _exact(section_integral(p), _ref_theta_integral(p, Fraction(0)))
    _exact(volume_from_profile(p), p.degH / p.c1**p.n - p.n * _tail_kernel_reference(p, p.c1))
    r, a = model.logdisc(v0), model.logdisc(v1)
    gap = a - Fraction(p.n + 1, p.n) * r / p.degH * _ref_theta_integral(p, Fraction(0))
    _exact(stability_gap(p, r, a), gap)
    for lam in (Fraction(1, 2), Fraction(1), Fraction(7, 3), r / a):
        for s in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(1)):
            _exact(interpolation_volume(p, lam, s), _ref_interpolation_volume(p, lam, s))
        forms = interpolation_derivative_forms(p, lam)
        _exact(forms.spread(), _ref_spread(forms))
    # the bound holds on the true profile; a vol(v1) nudged either way breaks
    # the equality on (0, c1], also at c1 alone
    assert liu_bound_check(p, points) is _ref_liu_bound(p, points) is True
    for nudge in (Fraction(1, 10**30), Fraction(-1, 10**30)):
        nudged = VolumeProfile(p.n, p.degH, p.c1, p.c2, p.vol_v1 + nudge, p.regions, p.simplices)
        for xs in (points, [p.c1]):
            assert liu_bound_check(nudged, xs) is _ref_liu_bound(nudged, xs) is False


@pytest.mark.parametrize(
    "vals",
    [
        (Fraction(0),) * 4,
        (Fraction(3, 2), Fraction(-5, 2), Fraction(1, 3), Fraction(0)),
        (Fraction(-7), Fraction(-7), Fraction(-9, 2), Fraction(-7)),
        (Fraction(1, 5), Fraction(2, 5), Fraction(1, 10), Fraction(3, 10)),
        (Fraction(10**20), Fraction(10**20 + 1), Fraction(-1), Fraction(10**20)),
    ],
    ids=["equal", "mixed signs", "negative", "below one", "large"],
)
def test_spread_matches_the_fraction_reference(vals):
    forms = DerivativeForms(*vals)
    _exact(forms.spread(), _ref_spread(forms))


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CASES))
def test_theta_does_not_depend_on_the_order_of_calls(name):
    # Theta's tail integrals are memoized per profile and point; any order of
    # points gives what a fresh profile gives for each point alone
    model, v0, v1, p = _closed_form_profile(name)
    points = [p.c1, *_sample_points(p)]
    random.Random(name).shuffle(points)
    fresh = [tail_volume_exact(profile_from_model(model, v0, v1), x) for x in points]
    for x, expected in zip(points, fresh):
        assert expected == (_ref_theta(p, x) if x < p.c2 else 0), x
    assert [tail_volume_exact(p, x) for x in points] == fresh
    assert [tail_volume_exact(p, x) for x in reversed(points)] == fresh[::-1]


def test_tail_integral_at_a_point_is_computed_once_per_profile(monkeypatch):
    import hvol.filtration as filtration

    _, _, _, p = _closed_form_profile("conifold")
    p._kernel_tails  # the per-region sums, computed once on first use
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    kernel = filtration._poly_tail_kernel
    monkeypatch.setattr(filtration, "_poly_tail_kernel", counted)
    for _ in range(3):
        tail_volume_exact(p, p.c1)
        volume_from_profile(p)
        liu_bound_check(p, [p.c1])
        interpolation_derivative_forms(p, 1)
    assert len(calls) == 1
    # a copy of the profile has its own memo
    copy = VolumeProfile(p.n, p.degH, p.c1, p.c2, p.vol_v1, p.regions, p.simplices)
    copy._kernel_tails
    before = len(calls)
    assert tail_volume_exact(copy, copy.c1) == tail_volume_exact(p, p.c1)
    assert len(calls) == before + 1
