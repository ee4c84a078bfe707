import math
import random
from fractions import Fraction

import pytest

from hvol.errors import NonIntegerDimension, PreconditionViolated
from hvol.molien import (
    DimensionSeries,
    FiniteGroupAction,
    GroupElement,
    _reduce_to_integer,
    binary_dihedral_group,
    check_free_in_codim1,
    cyclic_group,
    cyclotomic_polynomial,
    invariant_dimension_series,
    pair_identity_check,
    quotient_min_nvol,
    quotient_volume,
)


def test_cyclic_group_eigenvalues():
    z2 = cyclic_group(2, 1)
    assert z2.order == 2
    assert {(e.eig1, e.eig2) for e in z2.elements} == {
        (0, 0),
        (Fraction(1, 2), Fraction(1, 2)),
    }


def test_free_in_codim1():
    assert check_free_in_codim1(cyclic_group(2, 1))
    assert check_free_in_codim1(cyclic_group(3, 2))
    assert not check_free_in_codim1(cyclic_group(4, 2))  # pseudo-reflection at j=2
    assert check_free_in_codim1(cyclic_group(1, 0))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_multiply_to_x_n_minus_one():
    for order in range(1, 201):
        product = [1]
        for d in range(1, order + 1):
            if order % d == 0:
                product = _poly_mul(product, cyclotomic_polynomial(d))
        assert product == [-1] + [0] * (order - 1) + [1]


def test_cyclotomic_polynomial_105_has_a_coefficient_minus_two():
    # the least order whose cyclotomic polynomial has a coefficient outside {-1, 0, 1}
    phi = cyclotomic_polynomial(105)
    assert len(phi) == 49 and phi[-1] == 1
    assert phi[7] == phi[41] == -2
    assert all(c in (-1, 0, 1) for k, c in enumerate(phi) if k not in (7, 41))


def test_series_z3():
    series = invariant_dimension_series(cyclic_group(3, 2), 5)
    # degree <3 invariants: 1 and xy; degree 3 adds x^3 and y^3
    assert series[3] == 2
    assert series[4] == 4


def test_series_trivial_group():
    series = invariant_dimension_series(cyclic_group(1, 0), 8)
    assert all(series[m] == m * (m + 1) // 2 for m in range(9))


def test_series_brute_force_cross_check():
    # count invariant monomials directly for the abelian 1/5(1,2) action
    r, a = 5, 2
    series = invariant_dimension_series(cyclic_group(r, a), 20)
    for m in range(21):
        count = sum(
            1
            for i in range(m)
            for j in range(m)
            if i + j < m and (i + a * j) % r == 0
        )
        assert series[m] == count


def test_series_rejects_unclosed_element_list():
    broken = FiniteGroupAction(
        elements=(
            GroupElement(Fraction(0), Fraction(0)),
            GroupElement(Fraction(1, 3), Fraction(1, 3)),
        )
    )
    with pytest.raises(NonIntegerDimension):
        invariant_dimension_series(broken, 6)


def test_dimension_series_invariants():
    with pytest.raises(NonIntegerDimension):
        DimensionSeries(dims=(0, 2))
    with pytest.raises(NonIntegerDimension):
        DimensionSeries(dims=(0, 1, 0))


def test_pair_identity_examples():
    z3 = cyclic_group(3, 2)
    series = invariant_dimension_series(z3, 4)
    assert series[3] + series[4] == 6  # (16 + 2) / 3
    assert pair_identity_check(z3, 3)
    assert pair_identity_check(cyclic_group(2, 1), 2)
    assert pair_identity_check(cyclic_group(1, 0), 1)


def test_pair_identity_preconditions():
    with pytest.raises(PreconditionViolated):
        pair_identity_check(cyclic_group(3, 2), 4)  # 3 does not divide 4
    with pytest.raises(PreconditionViolated):
        pair_identity_check(cyclic_group(4, 2), 4)  # not free in codim 1


def test_binary_dihedral():
    bd = binary_dihedral_group(2)
    assert bd.order == 8
    assert check_free_in_codim1(bd)
    assert pair_identity_check(bd, 8)
    assert quotient_min_nvol(bd).min_nvol == Fraction(1, 2)


def test_quotient_volume():
    qv = quotient_volume(cyclic_group(5, 2), 200)
    assert qv.exact == Fraction(1, 5)
    assert abs(qv.estimate - 0.2) <= 2 / 200
    assert quotient_volume(cyclic_group(1, 0), 100).exact == 1


def test_quotient_volume_requires_freeness():
    with pytest.raises(PreconditionViolated):
        quotient_volume(cyclic_group(4, 2), 50)


def test_quotient_min_nvol():
    assert quotient_min_nvol(cyclic_group(2, 1)).min_nvol == 2
    result = quotient_min_nvol(cyclic_group(7, 3))
    assert result.min_nvol == Fraction(4, 7)
    assert result.logdisc_witness == 2
    assert result.volume_witness == Fraction(1, 7)
    assert quotient_min_nvol(cyclic_group(1, 0)).min_nvol == 4


def test_conjugation_invariance():
    # swapping the eigenvalue pair of every element leaves the series unchanged
    z5 = cyclic_group(5, 2)
    swapped = FiniteGroupAction(
        elements=tuple(GroupElement(e.eig2, e.eig1) for e in z5.elements)
    )
    a = invariant_dimension_series(z5, 30)
    b = invariant_dimension_series(swapped, 30)
    assert a.dims == b.dims


# -- the series against independent witnesses ----------------------------------


def _power_series_dims(numerator: dict[int, int], denominator_degrees, depth: int) -> list[int]:
    """Cumulative coefficients (degrees below m, m = 0 .. depth) of
    sum_k c_k t^k / prod_d (1 - t^d)."""
    coeffs = [0] * depth
    for k, c in numerator.items():
        if k < depth:
            coeffs[k] += c
    for d in denominator_degrees:
        for k in range(d, depth):
            coeffs[k] += coeffs[k - d]
    dims = [0]
    for c in coeffs:
        dims.append(dims[-1] + c)
    return dims


@pytest.mark.parametrize("m", range(1, 7))
def test_binary_dihedral_matches_hilbert_series(m):
    # invariants of degrees 4, 2m and 2m + 2 with one relation in degree 4m + 4
    expected = _power_series_dims({0: 1, 2 * m + 2: 1}, (4, 2 * m), 200)
    assert list(invariant_dimension_series(binary_dihedral_group(m), 200).dims) == expected


@pytest.mark.parametrize("r", range(1, 17))
def test_cyclic_series_matches_monomial_counts(r):
    # depth 3r + 2 spans several periods of the trace sums
    depth = 3 * r + 2
    for a in range(r):
        per_degree = [sum(1 for j in range(d + 1) if ((d - j) + a * j) % r == 0) for d in range(depth)]
        expected = [sum(per_degree[:m]) for m in range(depth + 1)]
        assert list(invariant_dimension_series(cyclic_group(r, a), depth).dims) == expected, (r, a)


def _series_reference(g: FiniteGroupAction, M: int) -> tuple[int, ...]:
    """The trace sums stepped in the cyclotomic ring at every degree, with no
    periodic extension: t_m = eig1 t_{m-1} + eig2^m per element."""
    order = math.lcm(*(math.lcm(e.eig1.denominator, e.eig2.denominator) for e in g.elements))
    cyclo = cyclotomic_polynomial(order)
    shifts = [(int(e.eig1 * order) % order, int(e.eig2 * order) % order) for e in g.elements]
    traces = [[1] + [0] * (order - 1) for _ in g.elements]
    dims = [0]
    for m in range(M):
        total = [sum(vec[i] for vec in traces) for i in range(order)]
        value = _reduce_to_integer(total, cyclo)
        if value % g.order != 0:
            raise NonIntegerDimension(f"average at degree {m} is {value}/{g.order}")
        dims.append(dims[-1] + value // g.order)
        for idx, (e1, e2) in enumerate(shifts):
            shifted = [0] * order
            for i, c in enumerate(traces[idx]):
                shifted[(i + e1) % order] += c
            shifted[((m + 1) * e2) % order] += 1
            traces[idx] = shifted
    return DimensionSeries(dims=tuple(dims)).dims


def _outcome(series, g, M):
    try:
        return series(g, M)
    except NonIntegerDimension as exc:
        return str(exc)


def _random_element_list(rng: random.Random) -> FiniteGroupAction:
    """A group, sometimes with elements added or dropped, so that most lists
    are not closed and fail at some degree."""
    if rng.random() < 0.8:
        r = rng.randint(1, 12)
        base = list(cyclic_group(r, rng.randrange(r)).elements)
    else:
        base = list(binary_dihedral_group(rng.randint(1, 4)).elements)
    for _ in range(rng.randint(0, 3)):
        q = rng.choice([1, 2, 3, 4, 6])
        x = Fraction(rng.randrange(q), q)
        roll = rng.random()
        if roll < 0.4:
            base.append(GroupElement(x, x))
        elif roll < 0.7:
            base.append(GroupElement(x, Fraction(rng.randrange(q), q)))
        elif len(base) > 1:
            base.pop(rng.randrange(1, len(base)))
    return FiniteGroupAction(elements=tuple(base))


def test_series_matches_reference_on_random_element_lists():
    rng = random.Random(14)
    failures = 0
    for _ in range(150):
        g = _random_element_list(rng)
        M = rng.choice([1, 2, 5, 20, 45])
        expected = _outcome(_series_reference, g, M)
        got = _outcome(lambda g, M: invariant_dimension_series(g, M).dims, g, M)
        assert got == expected, (g, M)
        failures += isinstance(expected, str)
    assert 30 <= failures <= 120


def test_series_error_past_one_period_matches_reference():
    # the trace sums are integers below the period N = 2, and the first
    # average that is not an integer lies at degree 2 = N, in the extension
    elements = FiniteGroupAction(
        elements=(
            GroupElement(0, 0),
            GroupElement(0, Fraction(1, 2)),
            GroupElement(Fraction(1, 2), Fraction(1, 2)),
        )
    )
    expected = _outcome(_series_reference, elements, 6)
    assert expected == "average at degree 2 is 7/3"
    assert _outcome(lambda g, M: invariant_dimension_series(g, M).dims, elements, 6) == expected
