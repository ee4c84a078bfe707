"""`hvol filtration`: the volume profile of a filtration and its interpolation calculus."""

from __future__ import annotations

import argparse
from fractions import Fraction
from typing import Callable

from ..cli import (
    Report,
    _approx,
    _check,
    _cone_model,
    _exact_check,
    _exact_pair,
    _fmt_float,
    _load_json_arg,
    _parse_rational,
    _parse_weights,
)
from ..errors import SchemaError
from ..exactgeom import RVector, to_float
from ..filtration import (
    interpolation_derivative_forms,
    interpolation_volume,
    liu_bound_check,
    phi_surface,
    profile_from_model,
    profile_to_dict,
    section_integral,
    stability_gap,
    tail_volume_exact,
    volume_from_profile,
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True)
    parser.add_argument(
        "--v1",
        required=True,
        help="comma-separated filtration weights; on a hypersurface, a v1 with a single "
        "least monomial gives the profile of a monomial filtration of C[z]/(in_v0 f), "
        "not of a valuation",
    )
    parser.add_argument("--v0", help="grading weights; defaults to the canonical ones")
    parser.add_argument(
        "--lam", "--lambda", dest="lam", help="a positive rational; auto by default"
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=400,
        help="profile rows of the --format csv table; a JSON report samples none",
    )


def run(args: argparse.Namespace) -> tuple[Report, Callable[[], str] | None]:
    descriptor = _load_json_arg(args.model, "model")
    v1_raw = _parse_weights(args.v1, "v1")
    v0_raw = _parse_weights(args.v0, "v0")
    samples = args.samples
    if samples < 0 or samples == 1:
        raise SchemaError(f"filtration --samples must be 0 or at least 2, not {samples}")
    lam_raw = args.lam or "auto"  # absent or empty
    lam = None if lam_raw == "auto" else _parse_rational(lam_raw)
    if lam is not None and lam <= 0:
        raise SchemaError(f"--lam must be auto or a positive rational, not {lam_raw!r}")
    model = _cone_model(descriptor, "filtration")
    if v1_raw is None:
        raise SchemaError("filtration needs --v1")
    v1 = RVector(v1_raw)
    if v0_raw is not None:
        v0 = RVector(v0_raw)
    elif model.canonical_xi is not None:
        v0 = model.canonical_xi
    else:
        raise SchemaError("this model has no canonical grading; pass --v0")
    profile = profile_from_model(model, v0, v1)
    n = profile.n
    r_value = model.logdisc(v0)
    a_value = model.logdisc(v1)
    if lam is None:
        lam = r_value / a_value
    gap = stability_gap(profile, r_value, a_value)
    # a v1 beyond the float range is refused here, before the Phi surface
    logdisc_v1 = _exact_pair(a_value, "logdisc_v1")
    forms = interpolation_derivative_forms(profile, lam)
    surface = phi_surface(profile, [0.5, 1.0, 2.0, lam], s_count=21)
    results = {
        "profile": profile_to_dict(profile),
        "lambda_approx": _approx(lam, "lambda"),
        "derivative_at_zero": {
            f"{name}_approx": _approx(value, name) for name, value in forms._asdict().items()
        },
        "section_integral": _exact_pair(section_integral(profile), "section_integral"),
        "phi_surface": {
            "lambdas_approx": [_fmt_float(x) for x in surface.lambdas],
            "s_grid_approx": [_fmt_float(x) for x in surface.s_grid],
            "values_approx": [
                [_fmt_float(v) for v in row] for row in surface.values
            ],
        },
    }
    # keep the headline quantities at top level alongside the full profile
    results.update(
        {
            "n": n,
            "degH": _exact_pair(profile.degH, "degH"),
            "c1": _exact_pair(profile.c1, "c1"),
            "c2": _exact_pair(profile.c2, "c2"),
            "vol_v1": _exact_pair(profile.vol_v1, "vol_v1"),
            "logdisc_v0": _exact_pair(r_value, "logdisc_v0"),
            "logdisc_v1": logdisc_v1,
            "stability_gap_approx": _approx(gap, "stability_gap"),
        }
    )
    exact_pairs = [
        # degH against the closed form of vol(v0), which never reads the profile
        ("phi_at_zero", interpolation_volume(profile, lam, 0), model.volume(v0)),
        ("phi_at_one", interpolation_volume(profile, lam, 1), lam**-n * profile.vol_v1),
        ("derivative_forms_agree", forms.spread(), Fraction(0)),
        (
            "theta_c1_identity",
            tail_volume_exact(profile, profile.c1),
            profile.degH - profile.c1**n * profile.vol_v1,
        ),
        ("profile_volume_matches", volume_from_profile(profile), profile.vol_v1),
    ]
    checks = [_exact_check(*pair) for pair in exact_pairs]
    c1 = profile.c1
    checks.append(
        _check(
            "liu_bound",
            liu_bound_check(
                profile,
                [Fraction(c1.numerator * j, 4 * c1.denominator) for j in range(1, 5)]
                + [profile.c2],
            ),
            "pointwise bound",
            "holds",
            "exact",
        )
    )

    def csv() -> str:
        ts = (to_float(profile.c2, "c2") * 1.05 * j / (samples - 1) for j in range(samples))
        rows = (f"{_fmt_float(t)},{_fmt_float(profile.vol_r(t))}\n" for t in ts)
        return "t,vol_r\n" + "".join(rows)

    inputs = {
        "model": descriptor,
        "v0": [str(v) for v in v0],
        "v1": [str(v) for v in v1],
        "lambda": lam_raw,
        "samples": samples,
    }
    return Report("filtration", inputs, results, checks), csv
