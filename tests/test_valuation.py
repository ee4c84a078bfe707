import itertools
import math
import random
import re
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvol.errors import BudgetExceeded, ModelError, NotFullDimensional, NotInReebCone
from hvol.exactgeom import RVector, int_det
import hvol.selftest as selftest
from hvol.selftest import _count_box, box_count, cut_cone, polytope_volume
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
    MonomialValuation,
    _half_open_degrees,
    lattice_count_oracle,
    nvol_report,
    valuation_volume_hypersurface,
    valuation_volume_toric,
)


def test_monomial_valuation_positivity():
    with pytest.raises(ValueError):
        MonomialValuation([1, 0])


def test_log_discrepancy_toric_affine():
    assert affine_space(3).logdisc([1, 1, 1]) == 3
    assert affine_space(2).logdisc([2, 3]) == 5


def test_log_discrepancy_toric_matches_hypersurface_a1():
    # quadric 3-fold: toric and hypersurface descriptions agree
    toric = conifold()
    hyp = akm_singularity(3, 2)
    assert toric.logdisc(toric.canonical_xi) == 4
    assert hyp.logdisc(canonical_weights(3, 2)) == 4


def test_log_discrepancy_toric_rejects_outside():
    with pytest.raises(NotInReebCone):
        affine_space(2).logdisc([1, -1])


def test_log_discrepancy_hypersurface_values():
    assert akm_singularity(3, 2).logdisc(canonical_weights(3, 2)) == 4
    # k = 1 smooth model: sum = n + 2, order = 2
    assert akm_singularity(3, 1).logdisc([1, 1, 1, 2]) == 3
    assert akm_singularity(3, 5).logdisc([1, 1, 1, Fraction(1, 2)]) == Fraction(3, 2)


def test_volume_toric():
    assert valuation_volume_toric(affine_space(3), [1, 1, 1]) == 1
    assert valuation_volume_toric(affine_space(2), [2, 1]) == Fraction(1, 2)
    a1 = cyclic_quotient_cone(2, 1)
    assert valuation_volume_toric(a1, a1.canonical_xi) == Fraction(1, 2)


def test_volume_hypersurface():
    for n, k in [(2, 2), (3, 2), (3, 5), (4, 3)]:
        model = akm_singularity(n, k)
        vol = valuation_volume_hypersurface(model, canonical_weights(n, k))
        assert vol == Fraction(1, k ** (n - 1))
    assert valuation_volume_hypersurface(
        akm_singularity(3, 5), [1, 1, 1, Fraction(1, 2)]
    ) == 4
    assert valuation_volume_hypersurface(
        akm_singularity(3, 2), [2, 2, 2, 2]
    ) == Fraction(1, 4)


def test_volume_hypersurface_single_monomial_guard():
    model = akm_singularity(3, 3)
    with pytest.raises(ModelError):
        valuation_volume_hypersurface(model, [1, 1, 1, Fraction(1, 2)])


def test_nvol_report_values():
    # A^n * vol, exactly: C^2 at (1, 1) has A = 2 and vol = 1, C^3 at (1, 1, 2)
    # has A = 4 and vol = 1/2, the A2 3-fold at (1, 1, 1, 1) has A = 2 and vol = 2
    cases = [
        (affine_space(2), [1, 1], 2, 1, 4),
        (affine_space(3), [1, 1, 2], 4, Fraction(1, 2), 32),
        (akm_singularity(3, 3), [1, 1, 1, 1], 2, 2, 16),
    ]
    for model, weights, logdisc, volume, nvol in cases:
        report = nvol_report(model, weights)
        assert (report.logdisc, report.volume, report.nvol) == (logdisc, volume, nvol)


def test_rescaling_invariance_exact():
    cases = [
        (affine_space(3), RVector([1, 2, 5])),
        (conifold(), RVector([1, 1, 3])),
        (akm_singularity(3, 3), canonical_weights(3, 3)),
    ]
    for model, weights in cases:
        base = nvol_report(model, weights).nvol
        for lam in (Fraction(1, 3), Fraction(2), Fraction(7)):
            assert nvol_report(model, weights.scale(lam)).nvol == base


XY_ZW = WeightedHomogeneousHypersurface(nvars=4, monomials=((1, 1, 0, 0), (0, 0, 1, 1)))


def test_toric_hypersurface_consistency_a1():
    # the quadric surface and 3-fold have both descriptions; A, vol, nvol agree,
    # in reports and through the model methods
    pairs = [
        (cyclic_quotient_cone(2, 1), akm_singularity(2, 2), canonical_weights(2, 2)),
        (conifold(), akm_singularity(3, 2), canonical_weights(3, 2)),
        (conifold(), XY_ZW, RVector([2, 2, 2, 2])),
    ]
    for toric, hyp, weights in pairs:
        xi = toric.canonical_xi
        rt = nvol_report(toric, xi)
        rh = nvol_report(hyp, weights)
        assert (rt.logdisc, rt.volume, rt.nvol) == (rh.logdisc, rh.volume, rh.nvol)
        assert (toric.logdisc(xi), toric.volume(xi)) == (hyp.logdisc(weights), hyp.volume(weights))
        assert toric.domain_logdisc(xi) is not None and hyp.domain_logdisc(weights) is not None
    # the domain boundary: a ray of sigma is not a Reeb vector
    assert conifold().domain_logdisc([1, 0, 0]) is None
    with pytest.raises(NotInReebCone):
        conifold().logdisc([1, 0, 0])
    # a weight whose initial form is the single monomial xy
    assert XY_ZW.domain_logdisc([1, 1, 2, 2]) is None
    assert XY_ZW.logdisc([1, 1, 2, 2]) == 4
    with pytest.raises(ModelError):
        XY_ZW.volume([1, 1, 2, 2])
    # a nonpositive weight
    assert XY_ZW.domain_logdisc([1, 1, 1, 0]) is None
    with pytest.raises(NotInReebCone):
        XY_ZW.logdisc([1, 1, 1, 0])


def test_lattice_count_small():
    assert lattice_count_oracle(affine_space(2), [1, 1], 3) == 6
    assert lattice_count_oracle(akm_singularity(2, 2), [1, 1, 1], 2) == 4


def test_lattice_count_matches_series():
    # C^2 colengths are triangular numbers
    for p in range(1, 8):
        assert lattice_count_oracle(affine_space(2), [1, 1], p) == p * (p + 1) // 2


def test_oracle_convergence_decreasing():
    model = affine_space(2)
    errors = []
    for p in (25, 100, 400):
        count = lattice_count_oracle(model, [1, 1], p)
        errors.append(abs(2 * count / p**2 - 1))
    assert errors[0] > errors[1] > errors[2]


def _naive_box_count(bounds, nonstrict, strict_coefs, strict_max):
    count = 0
    for x in itertools.product(*[range(lo, hi + 1) for lo, hi in bounds]):
        if all(sum(map(mul, c, x)) + b >= 0 for c, b in nonstrict):
            count += sum(map(mul, strict_coefs, x)) <= strict_max
    return count


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_count_box_matches_naive_count(dim):
    rng = random.Random(300 + dim)
    for _ in range(40):
        bounds = [(lo, lo + rng.randint(0, 5)) for lo in (rng.randint(-3, 2) for _ in range(dim))]
        # last coefficients of every sign, 0 included, and of size above 1
        rows = [
            ([rng.randint(-3, 3) for _ in range(dim)], rng.randint(-6, 6))
            for _ in range(rng.randint(0, 3))
        ]
        strict = [rng.randint(-2, 3) for _ in range(dim)]
        # one to three levels, counted in one sweep
        tops = [rng.randint(-4, 10) for _ in range(rng.randint(1, 3))]
        expected = [_naive_box_count(bounds, rows, strict, top) for top in tops]
        assert _count_box(bounds, rows, strict, tops) == expected, (bounds, rows, strict, tops)


def test_a_wrong_alpha_fails_the_oracle_witness(monkeypatch):
    # the witness subtracts the monomials of weight below p - alpha; twice
    # alpha must show on every hypersurface case of criterion 7
    order = selftest.initial_order
    monkeypatch.setattr(selftest, "initial_order", lambda pairings: 2 * order(pairings))
    failed = [check["name"] for check in selftest.check_oracle() if not check["pass"]]
    assert failed == [
        f"oracle_witness[{name},{weights}]"
        for name, model, valuations in selftest._oracle_cases()
        if not isinstance(model, ToricConeSingularity)
        for weights in valuations
    ]


def test_count_box_empty_cases():
    # an empty box, and a strict bound that cuts the box to nothing
    assert _count_box([(0, 3), (2, 1)], [], [1, 1], [10, 4]) == [0, 0]
    assert _count_box([(0, 3), (0, 3)], [], [1, 1], [-1]) == [0]
    # a row with last coefficient 0 that fails everywhere, or holds everywhere
    assert _count_box([(0, 3), (0, 3)], [([1, 0], -4)], [1, 1], [10]) == [0]
    assert _count_box([(0, 3), (0, 3)], [([1, 0], 0)], [0, 0], [0, -1]) == [16, 0]


@pytest.mark.parametrize("dim", range(1, 7))
def test_half_open_degrees_sweep_the_half_open_parallelepiped(dim):
    # the det lattice points r U / det, r in {0, ..., det - 1}^n, found by
    # sweeping every r, against the residues that the facet normals
    # generate; inner = sum_j c_j u_j lies beyond the facet opposite u_j
    # exactly when c_j < 0, and there lambda_j = 0 is read as 1
    rng = random.Random(dim)
    for _ in range(8):
        diagonal = [1] * dim
        for _ in range(2):
            diagonal[rng.randrange(dim)] *= rng.randint(1, 2)
        rays = [[diagonal[i] * (i == j) for j in range(dim)] for i in range(dim)]
        for _ in range(3 * dim if dim > 1 else 0):
            # unimodular row and column operations keep |det| = prod(diagonal)
            (i, j), c = rng.sample(range(dim), 2), rng.choice((-1, 1))
            rays[i] = [a + c * b for a, b in zip(rays[i], rays[j])]
            for row in rays:
                row[j] += c * row[i]
        det = abs(int_det(rays))
        a = [rng.randint(-3, 3) for _ in range(dim)]
        weights = [sum(map(mul, u, a)) for u in rays]
        signs = [rng.choice((-1, 1)) for _ in range(dim)]
        inner = [sum(c * u[k] for c, u in zip(signs, rays)) for k in range(dim)]
        expected = []
        for r in itertools.product(range(det), repeat=dim):
            if all(sum(c * u[k] for c, u in zip(r, rays)) % det == 0 for k in range(dim)):
                lam = [c or det * (s < 0) for c, s in zip(r, signs)]
                expected.append(sum(map(mul, lam, weights)) // det)
        rays = [tuple(u) for u in rays]
        assert sorted(_half_open_degrees(rays, weights, inner, det)) == sorted(expected), rays


def test_oracle_budget():
    # the box witness sweeps 10^10 cells here; the series needs 3 * 10^5
    with pytest.raises(BudgetExceeded):
        box_count(affine_space(3), [1, 1, 1], 10**5)
    assert lattice_count_oracle(affine_space(3), [1, 1, 1], 10**5) == math.comb(10**5 + 2, 3)


def test_series_budget():
    # a table of 10^6 cells and three weights: refused before it is built
    with pytest.raises(BudgetExceeded, match="^series tables of 3000001 cells exceed budget$"):
        lattice_count_oracle(affine_space(3), [1, 1, 1], 10**6)
    # weights in the domain: y^2 and z^2 tie at the least weight
    with pytest.raises(BudgetExceeded):
        lattice_count_oracle(akm_singularity(2, 2), [1, Fraction(1, 10**6), Fraction(1, 10**6)], 1)


def test_nvol_report_flags_nonpositive():
    report = nvol_report(affine_space(2), [1, 1])
    assert not report.nonpositive_discrepancy
    assert float(report.nvol) == pytest.approx(4.0)


# Cones whose dual cone the closed-form volume triangulates: simplicial and
# not, Y^{p,q}, and three 4-dim Gorenstein cones over lattice polytopes.
CLOSED_FORM_CONES = {
    "C3": affine_space(3).sigma.rays,
    "conifold": conifold().sigma.rays,
    "C2/Z3": cyclic_quotient_cone(3, 2).sigma.rays,
    "C3/Z3": [[1, 0, 0], [0, 1, 0], [-1, -1, 3]],
    "Y31": [[1, 0, 0], [1, 1, 2], [1, 3, 3], [1, 1, 0]],
    "Y32": [[1, 0, 0], [1, 0, 1], [1, 3, 3], [1, 1, 0]],
    "cube": [[a, b, c, 1] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)],
    "octahedron": [[s * e for e in row] + [1] for row in ([1, 0, 0], [0, 1, 0], [0, 0, 1]) for s in (1, -1)],
    "square pyramid": [[1, 1, 0, 1], [1, -1, 0, 1], [-1, 1, 0, 1], [-1, -1, 0, 1], [0, 0, 1, 1]],
}
# minimizer iterates carry denominators up to 10^12
COEFFICIENTS = st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=10**12)


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CONES))
def test_closed_form_volume_equals_cut_polytope(name):
    model = ToricConeSingularity.from_rays(CLOSED_FORM_CONES[name])
    rays = [RVector(ray) for ray in model.sigma.rays]

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(st.lists(COEFFICIENTS, min_size=len(rays), max_size=len(rays)))
    def check(coeffs):
        xi = RVector([0] * model.n)
        for c, ray in zip(coeffs, rays):
            xi = xi + ray.scale(c)
        expected = math.factorial(model.n) * polytope_volume(cut_cone(model.dual, xi))
        assert model.volume(xi) == expected

    check()


# The integer path (w = z / D, then integer pairings) against the plain
# Fraction formulas.  C^2/Z_3(1,1) has the non-integral Gorenstein vector
# m0 = (2/3, 1); Y^{3,1} has a non-simplicial dual cone.
INTEGER_PATH_CONES = {
    "C2/Z3(1,1)": cyclic_quotient_cone(3, 1),
    "conifold": conifold(),
    "Y31": ToricConeSingularity.from_rays(CLOSED_FORM_CONES["Y31"]),
}
INTEGER_PATH_HYPERSURFACES = {
    "akm(3,3)": akm_singularity(3, 3),
    "x2+y3+z4+w12": WeightedHomogeneousHypersurface(
        nvars=4, monomials=((2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 4, 0), (0, 0, 0, 12))
    ),
}
# a stretch of 1 puts a monomial at the tie weight, so ties are common
STRETCHES = st.one_of(
    st.just(Fraction(1)),
    st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=10**12),
)


def _toric_reference(model, xi):
    """(A, n! vol) from m0 and the cut polytope, or None off the Reeb cone."""
    if not all(xi.dot(u) > 0 for u in model.dual.rays):
        return None
    return model.m0.dot(xi), math.factorial(model.n) * polytope_volume(cut_cone(model.dual, xi))


def _check_toric(model, xi):
    expected = _toric_reference(model, xi)
    assert (model.domain_logdisc(xi) is not None) == (expected is not None)
    if expected is None:
        assert model.domain_logdisc(xi) is None
        with pytest.raises(NotInReebCone):
            model.logdisc(xi)
        with pytest.raises(NotInReebCone):
            model.volume(xi)
    else:
        assert model.domain_logdisc(xi) == model.logdisc(xi) == expected[0]
        assert model.volume(xi) == expected[1]


def _check_hypersurface(model, a):
    weights = [a.dot(m) for m in model.monomials]
    order = min(weights)
    positive = all(x > 0 for x in a)
    in_domain = positive and weights.count(order) >= 2
    assert (model.domain_logdisc(a) is not None) == in_domain
    if not positive:
        assert model.domain_logdisc(a) is None
        with pytest.raises(NotInReebCone):
            model.logdisc(a)
        return
    assert model.logdisc(a) == sum(a) - order
    if in_domain:
        assert model.domain_logdisc(a) == sum(a) - order
        assert model.volume(a) == order / math.prod(a)
    else:
        assert model.domain_logdisc(a) is None
        with pytest.raises(ModelError):
            model.volume(a)


@pytest.mark.parametrize("name", sorted(INTEGER_PATH_CONES))
def test_integer_path_matches_fraction_formulas_toric(name):
    model = INTEGER_PATH_CONES[name]
    rays = [RVector(ray) for ray in model.sigma.rays]

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.fractions(min_value=-1, max_value=100, max_denominator=10**12),
            min_size=len(rays),
            max_size=len(rays),
        )
    )
    def check(coeffs):
        xi = RVector([0] * model.n)
        for c, ray in zip(coeffs, rays):
            xi = xi + ray.scale(c)
        _check_toric(model, xi)

    check()
    # boundary: a ray of sigma pairs to zero with a dual ray; just inside it
    _check_toric(model, rays[0])
    _check_toric(model, rays[0] + rays[1].scale(Fraction(1, 10**12)))


@pytest.mark.parametrize("name", sorted(INTEGER_PATH_HYPERSURFACES))
def test_integer_path_matches_fraction_formulas_hypersurface(name):
    model = INTEGER_PATH_HYPERSURFACES[name]
    degrees = [max(m) for m in model.monomials]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=10**12),
        st.lists(STRETCHES, min_size=model.nvars, max_size=model.nvars),
    )
    def check(order, stretches):
        _check_hypersurface(model, RVector(order * s / d for s, d in zip(stretches, degrees)))

    check()
    tie = RVector(Fraction(12, d) for d in degrees)
    _check_hypersurface(model, tie)
    # boundary: one weight-minimal monomial; zero weights, where two zeros
    # also tie two monomials at d(a) = 0
    _check_hypersurface(model, RVector(list(tie[:-1]) + [tie[-1] / 2]))
    _check_hypersurface(model, RVector(list(tie[:-1]) + [0]))
    _check_hypersurface(model, RVector([0, 0] + list(tie[2:])))


# The series count against the box witness of `hvol selftest`, exactly.


def _same_count(model, a, depth):
    assert lattice_count_oracle(model, a, depth) == box_count(model, a, depth)


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_CONES))
def test_series_count_equals_box_witness_on_library_cones(name):
    # non-simplicial dual cones (conifold, Y^{p,q}, the 4-dim ones) and
    # simplicial cones with |det U_s| > 1 (C^2/Z3, C^3/Z3)
    model = ToricConeSingularity.from_rays(CLOSED_FORM_CONES[name])
    rays = [RVector(ray) for ray in model.sigma.rays]

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.fractions(min_value=Fraction(1, 3), max_value=2, max_denominator=3),
            min_size=len(rays),
            max_size=len(rays),
        ),
        st.fractions(min_value=Fraction(1, 2), max_value=7 if model.n < 4 else 3, max_denominator=3),
    )
    def check(coeffs, depth):
        xi = RVector([0] * model.n)
        for c, ray in zip(coeffs, rays):
            xi = xi + ray.scale(c)
        _same_count(model, xi, depth)

    check()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_series_count_equals_box_witness_on_random_cones(data):
    n = data.draw(st.integers(2, 4))
    rays = data.draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1).map(lambda r: r + [1]),
            min_size=n,
            max_size=n + 2,
            unique_by=tuple,
        )
    )
    try:
        model = ToricConeSingularity.from_rays(rays)
    except NotFullDimensional:
        return
    # a Reeb vector: a positive combination of the rays of sigma
    xi = RVector([Fraction(0)] * n)
    for ray in model.sigma.rays:
        c = data.draw(st.fractions(min_value=Fraction(1, 4), max_value=2, max_denominator=4))
        xi = xi + RVector(ray).scale(c)
    top = 6 if n < 4 else 2
    _same_count(model, xi, data.draw(st.fractions(min_value=Fraction(1, 2), max_value=top, max_denominator=3)))


ORACLE_HYPERSURFACES = [akm_singularity(2, 2), akm_singularity(2, 5), akm_singularity(3, 3)] + [
    INTEGER_PATH_HYPERSURFACES["x2+y3+z4+w12"]
]


@pytest.mark.parametrize("model", ORACLE_HYPERSURFACES, ids=lambda m: str(m.monomials))
def test_series_count_equals_box_witness_on_hypersurfaces(model):
    degrees = [max(m) for m in model.monomials]

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(
        st.fractions(min_value=2, max_value=6, max_denominator=4),
        st.lists(
            st.one_of(st.just(Fraction(1)), st.fractions(min_value=1, max_value=3, max_denominator=4)),
            min_size=model.nvars - 1,
            max_size=model.nvars - 1,
        ),
        st.integers(min_value=0, max_value=model.nvars - 1),
        st.fractions(min_value=Fraction(1, 2), max_value=4, max_denominator=3),
    )
    def check(order, stretches, at, depth):
        # monomial i has weight order * stretch_i; a copy of the least stretch
        # inserted at `at` ties two monomials at the least weight, as volume needs
        stretches.insert(at, min(stretches))
        _same_count(model, [order * s / d for s, d in zip(stretches, degrees)], depth)

    check()
    # every monomial tied at the least weight
    _same_count(model, [Fraction(12, d) for d in degrees], 25)


def test_series_count_equals_box_witness_on_xy_zw():
    # no variable of xy + zw is a pure power: the orthant less the multiples
    # of the leading monomial, 15 - 1 monomials below degree 3 at (1,1,1,1)
    assert lattice_count_oracle(XY_ZW, [1, 1, 1, 1], 3) == box_count(XY_ZW, [1, 1, 1, 1], 3) == 14
    for a in ([1, 3, 2, 2], [Fraction(1, 2), 2, Fraction(3, 2), 1], [2, 1, 1, 2]):
        for depth in (Fraction(5, 2), 6, Fraction(23, 3)):
            _same_count(XY_ZW, a, depth)


def test_xy_zw_count_equals_the_toric_conifold():
    # with x, y, z, w on the dual rays of the conifold (u1 + u4 = u2 + u3,
    # monomials x w and y z), the weights <u_i, xi> count what xi counts
    model = conifold()
    xy_zw = WeightedHomogeneousHypersurface(nvars=4, monomials=((1, 0, 0, 1), (0, 1, 1, 0)))
    for xi in ([0, 0, 2], [1, 1, 3], [Fraction(1, 2), Fraction(2, 3), 2]):
        a = [RVector(u).dot(xi) for u in model.dual.rays]
        for depth in (3, Fraction(17, 2), 12):
            assert lattice_count_oracle(xy_zw, a, depth) == lattice_count_oracle(model, xi, depth)


@pytest.mark.parametrize(
    "model, a, p, error, message",
    [
        (affine_space(2), [1, 1], 0, ValueError, "threshold p must be positive"),
        (akm_singularity(2, 2), [1, 1, 1], Fraction(-1, 2), ValueError, "threshold p must be positive"),
        (conifold(), [1, 0, 0], 3, NotInReebCone, "(1, 0, 0) pairs nonpositively with weight generator (0, 0, 1)"),
        (conifold(), [1, 1], 3, ModelError, "expected 3 weights, got 2"),
        (akm_singularity(2, 2), [1, -1, 1], 3, NotInReebCone, "hypersurface weights must be strictly positive"),
        # x^2 alone has the least weight: outside the domain of volume
        (akm_singularity(2, 3), [1, 2, 1], 10, ModelError, "a-initial form of the defining polynomial is a single monomial"),
    ],
    ids=["toric p=0", "hypersurface p<0", "not Reeb", "wrong length", "nonpositive weight", "one least monomial"],
)
def test_series_count_refuses_as_the_box_witness(model, a, p, error, message):
    for count in (lattice_count_oracle, box_count):
        with pytest.raises(error, match=re.escape(message)):
            count(model, a, p)
