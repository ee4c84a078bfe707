"""Built-in verification suite.

Every check here is a reproducible desk-scale consequence of the volume
minimization theory: exact quotient-surface identities, global minimizers of
the A_{k-1} family, sharpness of the lower bound, oracle agreement for the
closed volume formulas, the interpolation calculus, stability gaps, Reeb-cone
laws, the toric log-Fano centroid identity and the extreme rays of integer
cones against the minors sweep.  The CLI `selftest` command and the
acceptance test module both run this list.

The module also holds the witnesses those checks compare with, computed
apart from the program's own route: among them the `Fraction` polytope layer
(halfspaces, vertex enumeration, polytope volumes and centroids, cut cones),
which `import hvol` does not load.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product as iter_product
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import BudgetExceeded, DegeneratePolytope, EmptyRegion, NotInReebCone, UnboundedRegion
from .exactgeom import (
    PolyCone,
    RVector,
    _fan,
    _integral,
    _vector,
    int_cone_rays,
    int_det,
    int_kernel,
    int_rank,
    rat,
)
from .filtration import (
    interpolation_closed_form,
    interpolation_derivative_forms,
    interpolation_volume,
    profile_from_model,
    profile_integral,
    stability_gap,
    tail_volume_exact,
    theta_integral,
    volume_from_profile,
)
from .molien import (
    binary_dihedral_group,
    cyclic_group,
    invariant_dimension_series,
    pair_identity_check,
    quotient_min_nvol,
    quotient_volume,
)
from .reeb import minimize_nvol, normalize_reeb, rescaling_law_check
from .singularities import (
    PolarizedConeData,
    ToricConeSingularity,
    affine_space,
    akm_singularity,
    canonical_weights,
    cone_invariants,
    conifold,
    cyclic_quotient_cone,
    toric_log_fano,
)
from .valuation import (
    _require_reeb,
    hypersurface_pairings,
    initial_order,
    lattice_count_oracle,
    nvol_report,
    reduction_variable,
    volume_gradient_toric,
)


class CheckResult:
    def __init__(self, name: str, passed: bool, lhs: str, rhs: str, tolerance: str):
        self.name = name
        self.passed = passed
        self.lhs = lhs
        self.rhs = rhs
        self.tolerance = tolerance

    @classmethod
    def exact(cls, name: str, lhs, rhs) -> "CheckResult":
        return cls(name, lhs == rhs, str(lhs), str(rhs), "exact")

    @classmethod
    def close(cls, name: str, lhs: float, rhs: float, tol: float) -> "CheckResult":
        return cls(name, abs(lhs - rhs) <= tol, f"{lhs:.17g}", f"{rhs:.17g}", f"{tol:g}")


def _coprime_pairs(max_r: int) -> list[tuple[int, int]]:
    pairs = []
    for r in range(1, max_r + 1):
        for a in range(1, max(r, 2)):
            if math.gcd(a, r) == 1:
                pairs.append((r, a))
                break  # one representative per order keeps runtime small
    return pairs


# -- the Fraction polytope layer: the witness of the closed forms -------------------
#
# Halfspaces, vertex enumeration, polytope volumes and centroids, and cut
# cones, computed from the vertices, apart from the cone triangulation and the
# simplex sums that the program uses: criteria 8, 10 and 11 compare with them.


class Halfspace:
    """Closed halfspace {x : <normal, x> + offset >= 0}."""

    def __init__(self, normal: Sequence, offset):
        self.normal = RVector(normal)
        self.offset = rat(offset)
        if self.normal.is_zero():
            raise ValueError("halfspace normal must be nonzero")

    def __repr__(self) -> str:
        return f"Halfspace(normal={self.normal!r}, offset={self.offset!r})"

    def value(self, point: Sequence) -> Fraction:
        return self.normal.dot(point) + self.offset

    @cached_property
    def row(self) -> tuple[list[int], int]:
        """(c (normal, offset), c) for the least positive integer c that
        clears the denominators (`_integral`), cleared on first use."""
        return _integral([*self.normal, self.offset])


def _homogenized_rays(
    rows: Sequence[Sequence[int]], dim: int
) -> tuple[list[RVector], list[tuple[int, ...]]]:
    """The extreme rays (N, D) of {(x, t) : <a, x> + b t >= 0, t >= 0} over
    integer rows (a, b) (`int_cone_rays`), split by D: the points N / D for
    D > 0, sorted, and the directions N for D = 0, in sorted order.  A
    `Fraction` is built only for the points."""
    rays = int_cone_rays([*rows, [0] * dim + [1]], dim + 1)
    tops = [ray for ray in rays if ray[dim]]
    scale = math.lcm(*(ray[dim] for ray in tops))
    tops.sort(key=lambda ray: [c * (scale // ray[dim]) for c in ray[:dim]])
    points = [_vector(Fraction(c, ray[dim]) for c in ray[:dim]) for ray in tops]
    return points, [ray[:dim] for ray in rays if not ray[dim]]


def vertex_enumerate(hrep: Sequence[Halfspace], dim: int) -> list[RVector]:
    """All vertices of the polytope cut out by hrep, exactly and deduplicated.

    Raises UnboundedRegion if the region is nonempty and has a recession
    direction, EmptyRegion if it is empty.  Each halfspace is cleared to one
    integer row (normal, offset) once.  A kernel of the normals (`int_kernel`)
    is a lineality space, so there is no vertex; the region is nonempty iff
    it has a vertex on the complement where the kernel's free columns are 0.
    Otherwise the region is the slice t = 1 of a pointed cone, and one call of
    `_homogenized_rays`, one double description (`int_cone_rays`), gives both
    its vertices and its extreme recession directions, the rays of the
    normals' cone.
    """
    rows = [h.row[0] for h in hrep]
    kernel = int_kernel([row[:dim] for row in rows], dim)
    if kernel:
        free = {f for f, _ in kernel}
        restricted = [[c for j, c in enumerate(row) if j not in free] for row in rows]
        if not _homogenized_rays(restricted, dim - len(kernel))[0]:
            raise EmptyRegion("no feasible point")
        raise UnboundedRegion(f"recession direction {RVector(kernel[0][1])}")
    found, directions = _homogenized_rays(rows, dim)
    if not found:
        raise EmptyRegion("no feasible vertex")
    if directions:
        raise UnboundedRegion(f"recession direction {RVector(directions[0])}")
    return found


class Polytope(NamedTuple):
    """Bounded intersection of halfspaces together with its vertex set."""

    dim: int
    hrep: tuple[Halfspace, ...]
    vrep: tuple[RVector, ...]

    @classmethod
    def from_hrep(cls, hrep: Sequence[Halfspace], dim: int) -> "Polytope":
        vertices = vertex_enumerate(hrep, dim)
        return cls(dim=dim, hrep=tuple(hrep), vrep=tuple(vertices))


def _simplex_decomposition(p: Polytope) -> tuple[list[tuple[int, list[int]]], int]:
    """The fan triangulation in integers: ([(|det|, vertex sum), ...], L),
    with no simplex when p is not full-dimensional.

    The vertices are cleared to one common denominator L once, as integer
    points V = L v; their rows (V, L) have rank dim + 1 iff p is
    full-dimensional.  Each simplex s gives |det(V_i - V_0)| = L^dim
    |det(v_i - v_0)| and the sum of its V, (dim + 1) L times its centroid.  A
    vertex lies on the facet (a, b), cleared to integers, iff <a, V> + b L =
    0, and a set of vertices has affine rank one less than the linear rank of
    their (V, L).
    """
    scale = math.lcm(*(c.denominator for v in p.vrep for c in v))
    cleared = [[c.numerator * (scale // c.denominator) for c in v] + [scale] for v in p.vrep]
    if int_rank(cleared) != p.dim + 1:
        return [], scale
    cleared.sort()  # the lexicographic order of the vertices: one denominator
    incidences = [
        frozenset(i for i, v in enumerate(cleared) if sum(map(mul, h.row[0], v)) == 0)
        for h in p.hrep
    ]
    fan = _fan(
        tuple(range(len(cleared))),
        incidences,
        lambda face: int_rank([cleared[i] for i in face]) - 1,
        p.dim,
    )
    pieces = []
    for simplex in fan:
        base, *others = (cleared[i][:-1] for i in simplex)
        d = abs(int_det([[a - b for a, b in zip(v, base)] for v in others]))
        if d:
            pieces.append((d, [sum(coords) for coords in zip(base, *others)]))
    return pieces, scale


def polytope_volume(p: Polytope) -> Fraction:
    """Exact Euclidean volume; a lower-dimensional polytope reports 0."""
    pieces, scale = _simplex_decomposition(p)
    return Fraction(sum(d for d, _ in pieces), scale**p.dim * math.factorial(p.dim))


def centroid(p: Polytope) -> RVector:
    """Exact center of mass with respect to Lebesgue measure."""
    pieces, scale = _simplex_decomposition(p)
    if not pieces:
        raise DegeneratePolytope("centroid of a lower-dimensional polytope")
    weights = [d for d, _ in pieces]
    common = sum(weights) * scale * (p.dim + 1)
    return _vector(
        Fraction(sum(map(mul, weights, coords)), common)
        for coords in zip(*(sums for _, sums in pieces))
    )


def cut_cone(c: PolyCone, xi: Sequence) -> Polytope:
    """{y in c : <y, xi> <= 1}; requires xi strictly positive on the rays of c."""
    xi = RVector(xi)
    for ray in c.rays:
        if xi.dot(ray) <= 0:
            raise NotInReebCone(f"ray {RVector(ray)} pairs nonpositively with {xi}")
    hrep = [Halfspace(normal, 0) for normal in c.facets] + [Halfspace(-xi, Fraction(1))]
    return Polytope.from_hrep(hrep, c.dim)


# -- criterion 1: quotient surfaces -------------------------------------------


def check_quotient_min() -> list[CheckResult]:
    """4/r two ways on C^2/Z_r: the exact nvol at the canonical Reeb vector,
    and both ends of the bracket of one minimizer run from a start off the
    centre of the Reeb cone."""
    out = []
    for r, a in _coprime_pairs(12):
        model = cyclic_quotient_cone(r, a)
        expected = Fraction(4, r)
        out.append(
            CheckResult.exact(
                f"quotient_canonical_nvol[r={r},a={a}]",
                nvol_report(model, model.canonical_xi).nvol,
                expected,
            )
        )
        first, second = model.sigma.rays
        found = minimize_nvol(model, init=[a + 3 * b for a, b in zip(first, second)])
        out.append(
            CheckResult.exact(
                f"quotient_min[r={r},a={a}]",
                f"{found.min_nvol_lower} {found.min_nvol_upper}",
                f"{expected} {expected}",
            )
        )
    hyp = nvol_report(akm_singularity(2, 2), canonical_weights(2, 2))
    out.append(
        CheckResult.exact(
            "quotient_min[cross-check A1 surface]",
            quotient_min_nvol(cyclic_group(2, 1)).min_nvol,
            hyp.nvol,
        )
    )
    return out


def _library_groups():
    return [
        cyclic_group(1, 0),
        cyclic_group(2, 1),
        cyclic_group(3, 1),
        cyclic_group(3, 2),
        cyclic_group(5, 2),
        cyclic_group(7, 3),
        cyclic_group(8, 3),
        cyclic_group(11, 5),
        cyclic_group(12, 5),
        binary_dihedral_group(2),
        binary_dihedral_group(3),
    ]


# -- criterion 2: exact pair identity ------------------------------------------


def check_pair_identity() -> list[CheckResult]:
    out = []
    for group in _library_groups():
        series = invariant_dimension_series(group, 62)
        for m in range(group.order, 61, group.order):
            ok = pair_identity_check(group, m, series)
            rhs = Fraction((m + 1) ** 2 + group.order - 1, group.order)
            out.append(
                CheckResult(
                    f"pair_identity[{group.label},m={m}]",
                    ok,
                    str(series[m] + series[m + 1]),
                    str(rhs),
                    "exact",
                )
            )
    return out


# -- criterion 3: Molien limit ---------------------------------------------------


def check_molien_limit(depth: int = 400) -> list[CheckResult]:
    out = []
    for group in _library_groups():
        qv = quotient_volume(group, depth)
        out.append(
            CheckResult.close(
                f"molien_limit[{group.label}]",
                qv.estimate,
                float(qv.exact),
                2.0 / depth,
            )
        )
    return out


# -- criteria 4 and 5: A_{k-1} minimizers ----------------------------------------


MINIMIZER_CERTIFIED = [(2, 2), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2), (3, 4), (4, 3)]
# (n, k, minimum, nvol of the canonical weights) where the canonical weights
# are not the minimizer
CONJECTURED = [
    (3, 5, Fraction(27, 2), Fraction(343, 25)),
    (4, 4, Fraction(4096, 27), Fraction(625, 4)),
]


def _certified(name: str, best, expected: Fraction) -> CheckResult:
    """Both ends of the minimizer's exact bracket equal `expected`."""
    return CheckResult.exact(
        name, f"{best.min_nvol_lower} {best.min_nvol_upper}", f"{expected} {expected}"
    )


def check_akm_minimizers() -> list[CheckResult]:
    out = []
    for n, k in MINIMIZER_CERTIFIED:
        model = akm_singularity(n, k)
        best = minimize_nvol(model)
        expected = Fraction(((n - 2) * k + 2) ** n, k ** (n - 1))
        out.append(
            CheckResult.exact(
                f"akm_argmin[n={n},k={k}]",
                best.argmin,
                normalize_reeb(model, canonical_weights(n, k)),
            )
        )
        out.append(
            CheckResult.exact(f"akm_min_value[n={n},k={k}]", best.min_nvol_upper, expected)
        )
        out.append(_certified(f"akm_certified[n={n},k={k}]", best, expected))
    return out


def check_conjectured_minimizers() -> list[CheckResult]:
    out = []
    for n, k, expected, canonical in CONJECTURED:
        model = akm_singularity(n, k)
        best = minimize_nvol(model)
        out.append(
            CheckResult.exact(
                f"conjectured_last_weight[n={n},k={k}]",
                best.argmin[-1] / best.argmin[0],
                Fraction(n - 2, n - 1),
            )
        )
        out.append(_certified(f"conjectured_value[n={n},k={k}]", best, expected))
        value = nvol_report(model, canonical_weights(n, k)).nvol
        out.append(
            CheckResult(
                f"conjectured_below_canonical[n={n},k={k}]",
                best.min_nvol_upper < value == canonical,
                str(best.min_nvol_upper),
                str(value),
                "strict <",
            )
        )
    return out


# -- criterion 6: sharpness of the lower bound ------------------------------------


def check_sharpness(trials: int = 50, seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []
    for trial in range(trials):
        n = rng.randint(2, 6)
        q = rng.randint(1, 5)
        r = Fraction(rng.randint(1, n * q), q)
        degh = Fraction(rng.randint(1, 20), rng.randint(1, 10))
        inv = cone_invariants(PolarizedConeData(n=n, r=r, degH=degh))
        out.append(
            CheckResult.exact(
                f"sharpness[{trial}:n={n},r={r}]",
                inv.nvol_lower_bound,
                inv.nvol_canonical,
            )
        )
    return out


# -- criterion 7: lattice-counting oracle ------------------------------------------


_ENUM_BUDGET = 60_000_000  # bounding-box cells of the box witness


def _count_box(
    bounds: list[tuple[int, int]],
    nonstrict: list[tuple[list[int], int]],
    strict_coefs: list[int],
    strict_max: int,
) -> int:
    """Count integer points in a box with <c,x>+b >= 0 constraints and <s,x> <= strict_max.

    Loops over every coordinate but the last, x_n.  There each row
    c x_n + r >= 0 (r collecting the constant and the other coordinates)
    bounds x_n below by ceil(-r / c) when c > 0 and above by floor(r / -c)
    when c < 0, or holds or fails outright when c = 0, and the lengths of the
    resulting intervals are added up.
    """
    sizes = [hi - lo + 1 for lo, hi in bounds]
    if any(s <= 0 for s in sizes):
        return 0
    total = math.prod(sizes)
    if total > _ENUM_BUDGET:
        raise BudgetExceeded(f"enumeration box of {total} cells exceeds budget")
    rows = [(coefs[:-1], coefs[-1], const) for coefs, const in nonstrict]
    rows.append(([-c for c in strict_coefs[:-1]], -strict_coefs[-1], strict_max))
    *head, (lo_last, hi_last) = bounds
    count = 0
    for prefix in iter_product(*[range(lo, hi + 1) for lo, hi in head]):
        lo, hi = lo_last, hi_last
        for coefs, c, const in rows:
            r = const + sum(map(mul, coefs, prefix))
            if c > 0:
                lo = max(lo, -(r // c))
            elif c < 0:
                hi = min(hi, r // -c)
            elif r < 0:
                hi = lo - 1
                break
        if hi >= lo:
            count += hi - lo + 1
    return count


def dual_cone_box(x: ToricConeSingularity, a: RVector, p: Fraction) -> list[tuple[int, int]]:
    """Integer bounds per coordinate of {alpha in the dual cone : <alpha, a> <= p}.

    That polytope is conv(0, p u / <u, a>) over the dual rays u, so the box
    comes from the rays without enumerating vertices.
    """
    _, pairings, denom = _require_reeb(x, a)
    corners = [
        [p * denom * c / pairing for c in ray] for ray, pairing in zip(x.reeb_generators, pairings)
    ]
    return [
        (math.ceil(min(0, *coords)), math.floor(max(0, *coords))) for coords in zip(*corners)
    ]


def lattice_region(model, a: RVector, p: Fraction) -> tuple[list, list]:
    """(box, rows) holding the monomials alpha with <alpha, a> < p.

    On a toric cone: the integer box around {<alpha, a> <= p} in the dual
    cone (`dual_cone_box`), and the facet rows <rho, alpha> >= 0 over the
    primitive rays rho of sigma; a must be a Reeb vector.  On a hypersurface:
    each alpha_i below p / a_i, and the exponent of a's reduction variable
    below its exponent there; no facet rows; the weights must be positive and
    tie two monomials at the least weight, where `volume` is defined.
    """
    if isinstance(model, ToricConeSingularity):
        return dual_cone_box(model, a, p), [(list(ray), 0) for ray in model.sigma.rays]
    initial_order(hypersurface_pairings(model, a)[1])
    red, exp = reduction_variable(model, a)
    bounds = [(0, math.ceil(p / weight) - 1) for weight in a]
    bounds[red] = (0, min(bounds[red][1], exp - 1))
    return bounds, []


def box_count(model, a, p) -> int:
    """The count of `lattice_count_oracle` by sweeping the box and facet
    rows of `lattice_region`, independent of the Hilbert series: the witness
    that criterion 7 compares the oracle with."""
    a = RVector(a)
    p = rat(p)
    if p <= 0:
        raise ValueError("threshold p must be positive")
    bounds, rows = lattice_region(model, a, p)
    strict_coefs, scale = _integral(a)
    return _count_box(bounds, rows, strict_coefs, math.ceil(scale * p) - 1)


def _oracle_cases():
    return [
        ("C2", affine_space(2), [[1, 1], [2, 1], [1, 3]]),
        ("C3", affine_space(3), [[1, 1, 1], [2, 1, 1], [1, 1, 2]]),
        ("A1_surface", cyclic_quotient_cone(2, 1), [[2, 0], [1, 0], [3, 1]]),
        ("conifold", conifold(), [[0, 0, 2], [0, 1, 3]]),
        ("A1_3fold", akm_singularity(3, 2), [[2, 2, 2, 2], [1, 1, 1, 1], [2, 1, 1, 1]]),
        ("A2_3fold", akm_singularity(3, 3), [[3, 3, 3, 2], [1, 1, 1, 1], [1, 1, 1, 2]]),
    ]


def check_oracle(depth: int = 200) -> list[CheckResult]:
    """Per case: the oracle's count equals the box witness's at depth 24,
    and n! count / depth^n is within 5% of the closed-form volume."""
    out = []
    for name, model, valuations in _oracle_cases():
        for weights in valuations:
            out.append(
                CheckResult.exact(
                    f"oracle_witness[{name},{weights}]",
                    lattice_count_oracle(model, weights, 24),
                    box_count(model, weights, 24),
                )
            )
            report = nvol_report(model, weights)
            count = lattice_count_oracle(model, RVector(weights), Fraction(depth))
            estimate = math.factorial(report.n) * count / depth**report.n
            rel = abs(estimate - float(report.volume)) / float(report.volume)
            out.append(
                CheckResult.close(f"oracle[{name},{weights}]", rel, 0.0, 0.05)
            )
    return out


# -- criterion 8: interpolation calculus ---------------------------------------------


def _profile_cases():
    c2 = affine_space(2)
    c3 = affine_space(3)
    a13 = akm_singularity(3, 2)
    return [
        ("C2(1,2)", c2, RVector([1, 1]), RVector([1, 2])),
        ("A1_3fold(canonical)", a13, canonical_weights(3, 2), canonical_weights(3, 2)),
        ("C3(1,1,2)", c3, RVector([1, 1, 1]), RVector([1, 1, 2])),
        ("conifold(1,1,3)", conifold(), RVector([0, 0, 2]), RVector([1, 1, 3])),
    ]


def _slice_volume(model, v0: RVector, v1: RVector, t: Fraction) -> Fraction:
    """n! vol {y in the cone : <v0, y> <= 1, <v1 - t v0, y> >= 0} from the
    enumerated vertices of the slice.  The cone is the dual cone of a toric
    model; for a hypersurface it is the orthant of the variables other than
    v1's reduction variable, and the volume counts that variable's exponent."""
    if isinstance(model, ToricConeSingularity):
        normals, multiplicity = list(model.sigma.rays), 1
    else:
        red, multiplicity = reduction_variable(model, v1)
        keep = [i for i in range(model.nvars) if i != red]
        v0, v1 = RVector(v0[i] for i in keep), RVector(v1[i] for i in keep)
        normals = [RVector(int(i == j) for j in keep) for i in keep]
    n = len(v0)
    hrep = [Halfspace(u, 0) for u in normals] + [Halfspace(-v0, 1)]
    rotating = v1 - v0.scale(t)
    if not rotating.is_zero():
        hrep.append(Halfspace(rotating, 0))
    return math.factorial(n) * multiplicity * polytope_volume(Polytope.from_hrep(hrep, n))


def check_interpolation_calculus() -> list[CheckResult]:
    out = []
    for name, model, v0, v1 in _profile_cases():
        profile = profile_from_model(model, v0, v1)
        n = profile.n
        # the closed-form pieces against the vertex-enumerated slice, at the
        # midpoint of every region of the profile
        mids = [Fraction(a * d + c * b, 2 * b * d) for (a, b), (c, d), *_ in profile.regions]
        out.append(
            CheckResult.exact(
                f"profile_matches_slice_volume[{name}]",
                " ".join(str(profile.vol_r_exact(t)) for t in mids),
                " ".join(str(_slice_volume(model, v0, v1, t)) for t in mids),
            )
        )
        lam_star = model.logdisc(v0) / model.logdisc(v1)
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2), lam_star):
            label = f"{name},lam={float(lam):.6g}"
            out.append(
                CheckResult.exact(
                    f"phi_at_zero[{label}]", interpolation_volume(profile, lam, 0), profile.degH
                )
            )
            out.append(
                CheckResult.exact(
                    f"phi_at_one[{label}]",
                    interpolation_volume(profile, lam, 1),
                    lam**-n * profile.vol_v1,
                )
            )
        # Phi at s = 1/2 against the closed-form volume of the interpolated
        # weight, which never goes through the profile
        half = Fraction(1, 2)
        out.append(
            CheckResult.exact(
                f"phi_matches_volume[{name}]",
                interpolation_volume(profile, lam_star, half),
                model.volume(v0.scale(1 - half) + v1.scale(half * lam_star)),
            )
        )
        values = [interpolation_volume(profile, lam_star, Fraction(j, 20)) for j in range(21)]
        worst = min(
            [Fraction(0)]
            + [(values[j - 1] + values[j + 1]) / 2 - values[j] for j in range(1, 20)]
        )
        out.append(
            CheckResult(f"phi_midpoint_convexity[{name}]", worst >= 0, str(worst), "0", "exact")
        )
        # the closed-form sum over the simplices, which `phi_surface` reports,
        # against the profile integrals on the same grid; the largest gap
        out.append(
            CheckResult.exact(
                f"phi_surface_matches_profile[{name}]",
                max(
                    abs(interpolation_closed_form(profile, lam_star, Fraction(j, 20)) - value)
                    for j, value in enumerate(values)
                ),
                0,
            )
        )
        forms = interpolation_derivative_forms(profile, lam_star)
        out.append(CheckResult.exact(f"derivative_forms_agree[{name}]", forms.spread(), 0))
        out.append(
            CheckResult.exact(
                f"theta_c1_identity[{name}]",
                tail_volume_exact(profile, profile.c1),
                profile.degH - profile.c1**n * profile.vol_v1,
            )
        )
        out.append(
            CheckResult.exact(
                f"integral_identity[{name}]",
                profile_integral(profile, profile.c1),
                Fraction(n + 1, n) * theta_integral(profile, profile.c1)
                + profile.c1 / n * tail_volume_exact(profile, profile.c1),
            )
        )
        out.append(
            CheckResult.exact(
                f"profile_volume[{name}]", volume_from_profile(profile), profile.vol_v1
            )
        )
    identity = profile_from_model(
        akm_singularity(3, 2), canonical_weights(3, 2), canonical_weights(3, 2)
    )
    forms = interpolation_derivative_forms(identity, 1)
    out.append(
        CheckResult.exact(
            "derivative_zero_at_minimizer", forms.spread() + abs(forms.via_profile_integral), 0
        )
    )
    return out


# -- criterion 9: stability gap ----------------------------------------------------


def _gap_samples(model, rng) -> Iterable[RVector]:
    """Ten weights inside the domain: positive combinations of the vertices
    of the slice of the model's first convex piece."""
    vertices = [RVector(Fraction(c, h) for c in v) for v, h in model.convex_pieces[0].vertices]
    zero = RVector([0] * len(vertices[0]))
    for _ in range(10):
        yield sum((v.scale(Fraction(rng.randint(20, 300), 100)) for v in vertices), zero)


def _gap_models():
    return [
        ("C2", affine_space(2), RVector([1, 1])),
        ("C3", affine_space(3), RVector([1, 1, 1])),
        ("A1_surface", cyclic_quotient_cone(2, 1), RVector([2, 0])),
        ("conifold", conifold(), RVector([0, 0, 2])),
        ("A2_3fold", akm_singularity(3, 3), canonical_weights(3, 3)),
    ]


def check_stability_gap(seed: int = 0) -> list[CheckResult]:
    """The gap A(v1) - (n+1)/n A(v0) / degH * section_integral, exactly
    (`stability_gap`): nonnegative, 0 at the canonical valuation, and A(v1)
    times the section-integral form of d/ds Phi at 0 equals n degH times the
    gap."""
    rng = random.Random(seed)
    out = []
    for name, model, v0 in _gap_models():
        n = model.n
        r_value = model.logdisc(v0)
        gaps, relation = [], []
        for v1 in _gap_samples(model, rng):
            profile = profile_from_model(model, v0, v1)
            a_value = model.logdisc(v1)
            gap = stability_gap(profile, r_value, a_value)
            forms = interpolation_derivative_forms(profile, r_value / a_value)
            gaps.append(gap)
            relation.append(abs(forms.via_section_integral * a_value - n * profile.degH * gap))
        out.append(
            CheckResult(f"gap_nonnegative[{name}]", min(gaps) >= 0, str(min(gaps)), "0", "exact")
        )
        out.append(CheckResult.exact(f"gap_derivative_relation[{name}]", max(relation), 0))
        canonical = profile_from_model(model, v0, v0)
        out.append(
            CheckResult.exact(
                f"gap_zero_at_canonical[{name}]",
                stability_gap(canonical, r_value, r_value),
                0,
            )
        )
    return out


# -- criterion 10: Reeb-cone laws ----------------------------------------------------


def _toric_library():
    return [
        ("C2", affine_space(2)),
        ("C3", affine_space(3)),
        ("A1_surface", cyclic_quotient_cone(2, 1)),
        ("conifold", conifold()),
        ("Z3_surface", cyclic_quotient_cone(3, 2)),
    ]


def check_reeb_laws(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []
    for name, model in _toric_library():
        xi = RVector([Fraction(0)] * model.n)
        for ray in model.sigma.rays:
            xi = xi + RVector(ray).scale(Fraction(rng.randint(10, 50), 10))
        ok = all(
            rescaling_law_check(model, xi, lam)
            for lam in (Fraction(1, 3), Fraction(2), Fraction(7), Fraction(1, 2), Fraction(3))
        )
        out.append(CheckResult(f"rescaling_law[{name}]", ok, "exact", "exact", "exact"))
        normalized = normalize_reeb(model, xi)
        out.append(
            CheckResult.exact(
                f"normalize_idempotent[{name}]",
                normalize_reeb(model, normalized),
                normalized,
            )
        )
        out.append(
            CheckResult.exact(
                f"normalize_slice[{name}]",
                model.logdisc(normalized),
                Fraction(model.n),
            )
        )
        # grad V = -(n+1) V centroid(cut polytope), the derivative of the
        # Laplace transform V(xi) = int_{dual cone} e^{-<xi, y>} dy
        # (Martelli-Sparks-Yau): the triangulation's closed form against the
        # vertex-enumerated polytope
        cut = cut_cone(model.dual, xi)
        n_vol = math.factorial(model.n) * polytope_volume(cut)
        expected = centroid(cut).scale(-(model.n + 1) * n_vol)
        out.append(
            CheckResult.exact(
                f"gradient_centroid[{name}]",
                " ".join(map(str, volume_gradient_toric(model, xi))),
                " ".join(map(str, expected)),
            )
        )
    return out


# -- criterion 11: toric log-Fano centroid law ------------------------------------------


def _random_rational_polytope(rng: random.Random, dim: int) -> list[Halfspace]:
    """A random unimodular image of a cube, simplex or cross-polytope, each
    facet pushed out by 0, 1/2, 1 or 3/2, so that its vertices have unequal
    denominators and the simplices of its triangulation unequal volumes."""
    kind = rng.choice(["cube", "simplex", "cross"])
    units = [[int(i == j) for j in range(dim)] for i in range(dim)]
    if kind == "cube":
        hrep = [(e, 1) for e in units] + [([-v for v in e], 1) for e in units]
    elif kind == "simplex":
        hrep = [(e, 0) for e in units] + [([-1] * dim, dim)]
    else:
        hrep = [(list(signs), 1) for signs in iter_product([1, -1], repeat=dim)]
    # random unimodular shear and integer translation: x -> U x + t
    u = [list(e) for e in units]
    for _ in range(3):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i != j:
            c = rng.randint(-2, 2)
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    shift = [rng.randint(-3, 3) for _ in range(dim)]
    # halfspace <a, x> + b >= 0 pulls back to <a U, y> + (<a, t> + b) >= 0 for x = U y + t
    return [
        Halfspace(
            [sum(a * row[col] for a, row in zip(normal, u)) for col in range(dim)],
            sum(map(mul, normal, shift)) + offset + Fraction(rng.randint(0, 3), 2),
        )
        for normal, offset in hrep
    ]


def lifted_polytope(facets: Sequence[Halfspace]) -> Polytope:
    """{(y', y_n) : <eta_i, y'> + a_i y_n >= 0, y_n <= 1} = conv(0, P x {1})
    for P = {<eta_i, x> + a_i >= 0}, by vertex enumeration."""
    n = facets[0].normal.dim + 1
    hrep = [Halfspace([*h.normal, h.offset], 0) for h in facets]
    return Polytope.from_hrep([*hrep, Halfspace([0] * (n - 1) + [-1], 1)], n)


def check_toric_log_fano(seed: int = 0) -> list[CheckResult]:
    """The barycenters that `toric_log_fano` reads off the cone over P x {1},
    frak_p* of the lifted polytope and p* of P, against the centroids of the
    vertex-enumerated lifted polytope and of P."""
    rng = random.Random(seed)
    out = []
    for k in range(10):
        dim = rng.randint(2, 4)
        facets = _random_rational_polytope(rng, dim)
        p_star = centroid(Polytope.from_hrep(facets, dim))
        r = Fraction(1, math.ceil(max(h.value(p_star) for h in facets)))
        report = toric_log_fano([h.row for h in facets], r)
        out.append(
            CheckResult.exact(
                f"lifted_centroid[{k}:dim={dim}]",
                report.frak_p_star,
                centroid(lifted_polytope(facets)),
            )
        )
        out.append(CheckResult.exact(f"barycenter[{k}:dim={dim}]", report.p_star, p_star))
    return out


# -- criterion 12: extreme rays of integer cones -----------------------------------------


def minors_cone_rays(rows, dim: int) -> list[tuple[int, ...]]:
    """The output of `exactgeom.int_cone_rays` by the signed maximal minors of
    every (dim - 1)-subset of the rows, independent of the double description:
    the witness that criterion 12 compares it with.

    A candidate is the vector of signed maximal minors of dim - 1 of the rows,
    which spans their kernel when they have rank dim - 1 and is zero
    otherwise; it is kept, with either sign, when every row pairs
    nonnegatively with it.  In dimension 1 the empty minor gives the
    candidates (1) and (-1).  C(len(rows), dim - 1) determinants: desk-scale
    inputs only.
    """
    found: set[tuple[int, ...]] = set()
    for active in combinations(rows, dim - 1):
        ray = [(-1) ** i * int_det([r[:i] + r[i + 1 :] for r in active]) for i in range(dim)]
        g = math.gcd(*ray)
        if g == 0:
            continue
        pairings = [sum(map(mul, r, ray)) for r in rows]
        if min(pairings, default=0) >= 0:
            found.add(tuple(c // g for c in ray))
        if max(pairings, default=0) <= 0:
            found.add(tuple(-c // g for c in ray))
    return sorted(found)


def random_cone_rows(rng: random.Random, dim: int, count: int, lost: int = 0) -> list[list[int]]:
    """count integer rows of length dim: fresh rows pairing positively with
    (1, ..., 1), so that the cone has rays, and zero, repeated, scaled and
    opposite copies of earlier rows.  Fresh entries lie in [-1, 1] for half
    the row sets, whose cones have many rays on many rows each, so that the
    adjacency of two rays is not read off their count of common rows, and in
    [-3, 3] otherwise.  With lost > 0 the rows vanish on `lost` columns
    before a random unimodular column shear, so their rank is at most
    dim - lost and the kernel is no coordinate space."""
    rows: list[list[int]] = []
    spread = rng.choice((1, 3))
    for _ in range(count):
        kind = rng.randrange(8) if rows else 0
        if kind < 4:
            row = [0] * dim
            while sum(row) <= 0:
                row = [rng.randint(-spread, spread) for _ in range(dim)]
        elif kind == 4:
            row = [0] * dim
        else:
            row = list(rng.choice(rows))
            if kind == 6:
                row = [rng.randint(2, 3) * c for c in row]
            elif kind == 7:
                row = [-c for c in row]
        rows.append(row)
    for j in rng.sample(range(dim), min(lost, dim)):
        for row in rows:
            row[j] = 0
    for _ in range(dim if dim > 1 else 0):
        i, j = rng.sample(range(dim), 2)
        c = rng.randint(-2, 2)
        for row in rows:
            row[i] += c * row[j]
    return rows


def check_cone_rays(seed: int = 0, per_dim: int = 15) -> list[CheckResult]:
    """`int_cone_rays` equals the minors sweep exactly on seeded random row
    sets in dimensions 2-5, a third of them of rank below dim."""
    rng = random.Random(seed)
    out = []
    for dim in range(2, 6):
        for k in range(per_dim):
            lost = rng.randint(1, 2) if k % 3 == 2 else 0
            rows = random_cone_rows(rng, dim, rng.randint(dim, dim + 6), lost)
            out.append(
                CheckResult.exact(
                    f"cone_rays[dim={dim},{k}]",
                    int_cone_rays(rows, dim),
                    minors_cone_rays(rows, dim),
                )
            )
    return out


# -- driver ------------------------------------------------------------------------------


SUITES: list[tuple[str, Callable[[], list[CheckResult]]]] = [
    ("quotient", check_quotient_min),
    ("pair_identity", check_pair_identity),
    ("molien", check_molien_limit),
    ("akm", check_akm_minimizers),
    ("conjectured", check_conjectured_minimizers),
    ("sharpness", check_sharpness),
    ("oracle", check_oracle),
    ("interpolation", check_interpolation_calculus),
    ("gap", check_stability_gap),
    ("reeb", check_reeb_laws),
    ("toric_log_fano", check_toric_log_fano),
    ("cone_rays", check_cone_rays),
]


def run_all(name_filter: str | None = None) -> list[CheckResult]:
    results: list[CheckResult] = []
    for suite_name, runner in SUITES:
        if name_filter and name_filter not in suite_name:
            continue
        results.extend(runner())
    return results
