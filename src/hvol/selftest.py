"""Built-in verification suite.

Every check here is a reproducible desk-scale consequence of the volume
minimization theory: exact quotient-surface identities, global minimizers of
the A_{k-1} family, sharpness of the lower bound, oracle agreement for the
closed volume formulas, the interpolation calculus, stability gaps, Reeb-cone
laws and the toric log-Fano centroid identity.  The CLI `selftest` command and
the acceptance test module both run this list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .exactgeom import (
    Halfspace,
    PolyCone,
    Polytope,
    RVector,
    centroid,
    cut_cone,
    dual_cone,
    polytope_volume,
    rat,
    triangulate_cone,
)
from .filtration import (
    interpolation_closed_form,
    interpolation_derivative_forms,
    interpolation_volume,
    profile_from_model,
    profile_integral,
    section_integral,
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
    lattice_count_oracle,
    nvol_report,
    reduction_variable,
    simplex_sum,
    volume_gradient_toric,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    lhs: str
    rhs: str
    tolerance: str

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
        found = minimize_nvol(model, init=first + second.scale(3))
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


LIBRARY_GROUPS = [
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
    for group in LIBRARY_GROUPS:
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
    for group in LIBRARY_GROUPS:
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


ORACLE_CASES = [
    ("C2", affine_space(2), [[1, 1], [2, 1], [1, 3]]),
    ("C3", affine_space(3), [[1, 1, 1], [2, 1, 1], [1, 1, 2]]),
    ("A1_surface", cyclic_quotient_cone(2, 1), [[2, 0], [1, 0], [3, 1]]),
    ("A1_3fold", akm_singularity(3, 2), [[2, 2, 2, 2], [1, 1, 1, 1], [2, 1, 1, 1]]),
    ("A2_3fold", akm_singularity(3, 3), [[3, 3, 3, 2], [1, 1, 1, 1], [1, 1, 1, 2]]),
]


def check_oracle(depth: int = 200) -> list[CheckResult]:
    out = []
    for name, model, valuations in ORACLE_CASES:
        for weights in valuations:
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
        mids = [(lo + hi) / 2 for lo, hi, _ in profile.regions]
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
    vertices = model.convex_pieces[0].vertices
    zero = RVector([0] * len(vertices[0]))
    for _ in range(10):
        yield sum((v.scale(Fraction(rng.randint(20, 300), 100)) for v in vertices), zero)


GAP_MODELS = [
    ("C2", affine_space(2), RVector([1, 1])),
    ("C3", affine_space(3), RVector([1, 1, 1])),
    ("A1_surface", cyclic_quotient_cone(2, 1), RVector([2, 0])),
    ("conifold", conifold(), RVector([0, 0, 2])),
    ("A2_3fold", akm_singularity(3, 3), canonical_weights(3, 3)),
]


def check_stability_gap(seed: int = 0) -> list[CheckResult]:
    """The gap A(v1) - delta / degH * section_integral, exactly: nonnegative,
    0 at the canonical valuation, and A(v1) times the section-integral form of
    d/ds Phi at 0 equals n degH times the gap."""
    rng = random.Random(seed)
    out = []
    for name, model, v0 in GAP_MODELS:
        n = model.n
        r_value = model.logdisc(v0)
        delta = r_value * Fraction(n + 1, n)
        gaps, relation = [], []
        for v1 in _gap_samples(model, rng):
            profile = profile_from_model(model, v0, v1)
            a_value = model.logdisc(v1)
            gap = a_value - delta / profile.degH * section_integral(profile)
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
                r_value - delta / canonical.degH * section_integral(canonical),
                0,
            )
        )
    return out


# -- criterion 10: Reeb-cone laws ----------------------------------------------------


TORIC_LIBRARY = [
    ("C2", affine_space(2)),
    ("C3", affine_space(3)),
    ("A1_surface", cyclic_quotient_cone(2, 1)),
    ("conifold", conifold()),
    ("Z3_surface", cyclic_quotient_cone(3, 2)),
]


def check_reeb_laws(seed: int = 0) -> list[CheckResult]:
    rng = random.Random(seed)
    out = []
    for name, model in TORIC_LIBRARY:
        xi = RVector([Fraction(0)] * model.n)
        for ray in model.sigma.rays:
            xi = xi + ray.scale(Fraction(rng.randint(10, 50), 10))
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


def _random_lattice_polytope(rng: random.Random, dim: int) -> list[Halfspace]:
    """A random unimodular image of a cube, simplex or cross-polytope."""
    kind = rng.choice(["cube", "simplex", "cross"])
    if kind == "cube":
        hrep = []
        for i in range(dim):
            e = [0] * dim
            e[i] = 1
            hrep.append((list(e), 1))
            hrep.append(([-v for v in e], 1))
    elif kind == "simplex":
        hrep = []
        for i in range(dim):
            e = [0] * dim
            e[i] = 1
            hrep.append((list(e), 0))
        hrep.append(([-1] * dim, dim))
    else:
        hrep = []
        for signs in range(2**dim):
            row = [(1 if signs >> i & 1 else -1) for i in range(dim)]
            hrep.append((row, 1))
    # random unimodular shear and integer translation: x -> U x + t
    u = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    for _ in range(3):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i != j:
            c = rng.randint(-2, 2)
            for col in range(dim):
                u[i][col] += c * u[j][col]
    shift = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
    # halfspace <a, x> + b >= 0 pulls back to <a U, y> + (<a, t> + b) >= 0 for x = U y + t
    out = []
    for normal, offset in hrep:
        pulled = [
            sum(rat(normal[r]) * u[r][col] for r in range(dim)) for col in range(dim)
        ]
        const = sum(rat(normal[r]) * shift[r] for r in range(dim)) + offset
        out.append(Halfspace(RVector(pulled), const))
    return out


def _lifted_centroid_by_triangulation(facets: list[Halfspace], n: int) -> RVector:
    """The centroid of the lifted polytope {<eta_i, y'> + a_i y_n >= 0, y_n <= 1}
    without its vertices.  It is the cut at xi = e_n of the cone over P x {1},
    whose rays are the extreme rays of {<(eta_i, a_i), y> >= 0}.  With F(xi) the
    simplex sum over `triangulate_cone`, n! times the cut's volume, the cut's
    centroid is -grad F / ((n + 1) F) (Martelli-Sparks-Yau, hep-th/0503183)."""
    cone = dual_cone(PolyCone.from_rays([list(h.normal) + [h.offset] for h in facets]))
    generators = [tuple(int(c) for c in ray) for ray in cone.rays]
    value, gradient = simplex_sum(generators, triangulate_cone(cone), RVector([0] * (n - 1) + [1]))
    return gradient.scale(-1 / ((n + 1) * value))


def check_toric_log_fano(seed: int = 0) -> list[CheckResult]:
    """The lifted centroid and beta_n = r / n that `toric_log_fano` reports,
    from vertex enumeration and `centroid`, against the triangulated cone over
    the base polytope."""
    rng = random.Random(seed)
    out = []
    produced = 0
    while produced < 10:
        dim = rng.randint(2, 4)
        facets = _random_lattice_polytope(rng, dim)
        base = Polytope.from_hrep(facets, dim)
        p_star = centroid(base)
        max_l = max(h.value(p_star) for h in facets)
        r = Fraction(1, math.ceil(max_l))
        if r > dim + 1:
            r = Fraction(dim + 1)
        report = toric_log_fano(facets, r)
        n = dim + 1
        lifted = _lifted_centroid_by_triangulation(facets, n)
        out.append(
            CheckResult.exact(
                f"lifted_centroid[{produced}:dim={dim}]",
                report.frak_p_star,
                lifted,
            )
        )
        out.append(
            CheckResult.exact(
                f"beta_n[{produced}:dim={dim}]", report.s * (1 - lifted[-1]), r / n
            )
        )
        produced += 1
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
]


def run_all(name_filter: str | None = None) -> list[CheckResult]:
    results: list[CheckResult] = []
    for suite_name, runner in SUITES:
        if name_filter and name_filter not in suite_name:
            continue
        results.extend(runner())
    return results
