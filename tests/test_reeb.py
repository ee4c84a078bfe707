import math
import random
from fractions import Fraction

import pytest

from hvol.errors import DomainError, NotInReebCone
from hvol.exactgeom import RVector
from hvol.reeb import (
    ReebCone,
    hvol_lower,
    link_volume_from_nvol,
    minimize_nvol,
    minimize_nvol_multistart,
    normalize_reeb,
    reeb_membership,
    rescaling_law_check,
    ricci_bound_transfer,
)
from hvol.singularities import (
    ToricConeSingularity,
    affine_space,
    akm_singularity,
    canonical_weights,
    conifold,
    cyclic_quotient_cone,
)
from hvol.valuation import log_discrepancy_toric


def test_reeb_membership():
    rc = ReebCone(gamma_generators=affine_space(3).dual.rays)
    assert reeb_membership(rc, [1, 1, 1])
    assert not reeb_membership(rc, [1, 0, 1])
    cf = conifold()
    assert reeb_membership(ReebCone(cf.dual.rays), [0, 0, 1])


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
            xi = xi + ray.scale(Fraction(rng.randint(1, 40), 7))
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
    result = minimize_nvol(affine_space(3), init=[1, 2, 5], tol=1e-8)
    assert result.converged
    assert result.argmin == RVector([1, 1, 1])
    assert result.min_nvol_exact == 27
    assert result.min_nvol == pytest.approx(27.0, abs=1e-9)


def test_minimize_akm_kink():
    # piecewise objective 3(3-2x)^3 / 2(1+x)^3/x with the minimum at the kink
    result = minimize_nvol(akm_singularity(3, 3), init=[1, 1, 1, 1])
    assert result.min_nvol_exact == Fraction(125, 9)
    ratio = result.argmin[-1] / result.argmin[0]
    assert ratio == Fraction(2, 3)


def test_minimize_akm_interior_stationary():
    result = minimize_nvol(akm_singularity(3, 5), init=[1, 1, 1, 1])
    assert result.min_nvol_exact == Fraction(27, 2)
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
    best, spread, runs = minimize_nvol_multistart(conifold(), seeds=5, base_seed=1)
    assert len(runs) == 5
    assert spread <= 1e-6
    assert best.min_nvol_exact == 16
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


def test_link_volume():
    assert link_volume_from_nvol(27.0, 3) == pytest.approx((2 * math.pi) ** 3)
    assert link_volume_from_nvol(0.0, 3) == 0.0
    assert link_volume_from_nvol(2.0, 2) == pytest.approx(2 * link_volume_from_nvol(1.0, 2))


def test_ricci_bound_transfer():
    assert ricci_bound_transfer(1.0, 5) == pytest.approx(1.0)
    assert ricci_bound_transfer(0.5, 3) == pytest.approx(0.4)
    grown = [ricci_bound_transfer(0.5, m) for m in range(2, 40)]
    assert all(a < b for a, b in zip(grown, grown[1:]))
    assert grown[-1] < 0.5
    with pytest.raises(DomainError):
        ricci_bound_transfer(1.5, 3)
    with pytest.raises(DomainError):
        ricci_bound_transfer(0.5, 1)


def test_hvol_lower():
    assert hvol_lower(0.5, 16.0, 3) == pytest.approx(2.0)
    assert hvol_lower(1.0, 27.0, 3) == pytest.approx(27.0)
    with pytest.raises(DomainError):
        hvol_lower(0.0, 1.0, 2)


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
