"""Batch command-line surface.

Commands
--------
hvol compute    --model m.json [--valuation "1,1,1"]
hvol minimize   --model m.json [--init "..."]  (--tol and --seed are not used)
hvol quotient   --group '{"type":"cyclic","r":7,"a":3}'
hvol filtration --model m.json --v1 "1,2" [--v0 "..."] [--lam auto]
hvol selftest   [--filter name]

Reports are canonical JSON written to stdout (or --output): keys are sorted,
exact rationals are "p/q" strings, floating point values are strings with 17
significant digits under keys suffixed `_approx`, so identical jobs produce
byte-identical reports.  Wall-clock timing is volatile and therefore only
included when --timing is passed.  `--format csv` emits the command's main
tabular payload (trajectory, dimension series, profile samples, or the check
table) instead of JSON.  That payload is built only when it is printed, so a
JSON run never evaluates it: `filtration --samples` costs nothing there.

Exit codes: 0 all checks pass, 2 some check failed, 3 schema or model error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Sequence

from . import selftest as selftest_mod
from .errors import HvolError, SchemaError
from .exactgeom import Halfspace, RVector
from .filtration import (
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
from .molien import (
    FiniteGroupAction,
    GroupElement,
    check_free_in_codim1,
    cyclic_group,
    invariant_dimension_series,
    pair_identity_check,
    quotient_min_nvol,
    quotient_volume,
)
from .reeb import CERTIFIED_WIDTH, minimize_nvol
from .singularities import (
    PolarizedConeData,
    ToricConeSingularity,
    WeightedHomogeneousHypersurface,
    akm_singularity,
    cone_invariants,
    toric_log_fano,
)
from .valuation import nvol_report

DEFAULTS = {
    "tol": 1e-8,
    "max_iter": 500,
    "samples": 400,
    "seed": 0,
}


@dataclass
class JobSpec:
    command: str
    model: dict | None = None
    group: dict | None = None
    valuation: list | None = None
    options: dict = field(default_factory=dict)

    def opt(self, key: str):
        return self.options.get(key, DEFAULTS.get(key))


@dataclass
class Report:
    command: str
    inputs: dict
    results: dict
    checks: list[dict]
    timing: float | None = None

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self, include_timing: bool = False) -> str:
        payload = {
            "schema": 1,
            "command": self.command,
            "inputs": _jsonable(self.inputs),
            "results": _jsonable(self.results),
            "checks": _jsonable(self.checks),
        }
        if include_timing and self.timing is not None:
            payload["timing"] = {"seconds_approx": _fmt_float(self.timing)}
        return json.dumps(payload, sort_keys=True, indent=2)


def _fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def _jsonable(obj: Any):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _parse_rational(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational literal {text!r}") from exc


def _parse_weights(text: str) -> list[Fraction]:
    return [_parse_rational(part.strip()) for part in str(text).split(",") if part.strip()]


def _canonical_xi(descriptor: dict) -> list[Fraction] | None:
    canonical = descriptor.get("canonical_xi")
    if canonical and not isinstance(canonical, list):
        raise SchemaError("canonical_xi must be a list of weights")
    return [_parse_rational(v) for v in canonical] if canonical else None


def parse_model(descriptor: dict):
    if not isinstance(descriptor, dict) or "type" not in descriptor:
        raise SchemaError("model descriptor must be an object with a 'type' field")
    if descriptor.get("schema", 1) != 1:
        raise SchemaError(f"unsupported schema version {descriptor.get('schema')}")
    kind = descriptor["type"]
    if kind == "toric_cone":
        rays = descriptor.get("rays")
        if not rays:
            raise SchemaError("toric_cone needs a 'rays' list")
        if any(not isinstance(ray, list) or len(ray) != len(rays[0]) for ray in rays):
            raise SchemaError("toric_cone rays must be lists of one length")
        return ToricConeSingularity.from_rays(
            [[_parse_rational(v) for v in ray] for ray in rays],
            canonical_xi=_canonical_xi(descriptor),
        )
    if kind == "hypersurface":
        monomials = descriptor.get("monomials")
        if descriptor.get("n") is None or not monomials:
            raise SchemaError("hypersurface needs 'n' and 'monomials'")
        if any(not isinstance(mono, list) for mono in monomials):
            raise SchemaError("hypersurface monomials must be lists of exponents")
        nvars = _parse_integer(descriptor["n"], "hypersurface 'n'") + 1
        canonical = _canonical_xi(descriptor)
        if canonical is not None and (len(canonical) != nvars or min(canonical) <= 0):
            raise SchemaError(f"hypersurface canonical_xi needs {nvars} positive weights")
        return WeightedHomogeneousHypersurface(
            nvars=nvars,
            monomials=tuple(
                RVector([_parse_integer(e, "hypersurface exponent") for e in mono])
                for mono in monomials
            ),
            canonical_xi=RVector(canonical) if canonical else None,
        )
    if kind == "akm":
        try:
            n, k = descriptor["n"], descriptor["k"]
            return akm_singularity(_parse_integer(n, "akm 'n'"), _parse_integer(k, "akm 'k'"))
        except KeyError as exc:
            raise SchemaError("akm needs integer fields 'n' and 'k'") from exc
    if kind == "polarized_cone":
        try:
            return PolarizedConeData(
                n=_parse_integer(descriptor["n"], "polarized_cone 'n'"),
                r=_parse_rational(descriptor["r"]),
                degH=_parse_rational(descriptor["degH"]),
            )
        except KeyError as exc:
            raise SchemaError("polarized_cone needs 'n', 'r' and 'degH'") from exc
    if kind == "toric_log_fano":
        facets = descriptor.get("facets")
        if not facets or "r" not in descriptor:
            raise SchemaError("toric_log_fano needs 'facets' and 'r'")
        if not isinstance(facets, list) or any(
            not isinstance(f, dict) or not isinstance(f.get("normal"), list) or "offset" not in f
            for f in facets
        ):
            raise SchemaError("toric_log_fano facets must be objects with 'normal' and 'offset'")
        normals = [RVector([_parse_rational(v) for v in f["normal"]]) for f in facets]
        if any(len(v) != len(normals[0]) or not any(v) for v in normals):
            raise SchemaError("toric_log_fano facet normals must be nonzero and of one length")
        halfspaces = [Halfspace(v, _parse_rational(f["offset"])) for v, f in zip(normals, facets)]
        return halfspaces, _parse_rational(descriptor["r"])
    raise SchemaError(f"unknown model type {kind!r}")


def _parse_integer(value, what: str) -> int:
    """An integer given as a JSON number or string; anything else, a
    fraction or a boolean included, is a SchemaError."""
    if type(value) is int:
        return value
    try:
        parsed = Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        parsed = None
    if parsed is None or parsed.denominator != 1:
        raise SchemaError(f"{what} must be an integer, not {value!r}")
    return int(parsed)


def parse_group(descriptor: dict) -> FiniteGroupAction:
    if not isinstance(descriptor, dict) or "type" not in descriptor:
        raise SchemaError("group descriptor must be an object with a 'type' field")
    kind = descriptor["type"]
    if kind == "cyclic":
        if "r" not in descriptor or "a" not in descriptor:
            raise SchemaError("cyclic group needs integer 'r' and 'a'")
        return cyclic_group(
            _parse_integer(descriptor["r"], "cyclic 'r'"),
            _parse_integer(descriptor["a"], "cyclic 'a'"),
        )
    if kind == "elements":
        eigs = descriptor.get("eigs")
        if not eigs or not isinstance(eigs, list):
            raise SchemaError("element-list group needs 'eigs'")
        elements = []
        for row in eigs:
            if not isinstance(row, list) or len(row) != 4:
                raise SchemaError(f"element {row!r} must be a list [p1, q1, p2, q2]")
            p1, q1, p2, q2 = (_parse_integer(v, f"element {row!r} entry") for v in row)
            if q1 == 0 or q2 == 0:
                raise SchemaError(f"element {row!r} has a zero denominator")
            elements.append(GroupElement(Fraction(p1, q1), Fraction(p2, q2)))
        return FiniteGroupAction(elements=tuple(elements), label="elements")
    raise SchemaError(f"unknown group type {kind!r}")


def _check(name: str, passed: bool, lhs, rhs, tolerance) -> dict:
    return {
        "name": name,
        "pass": bool(passed),
        "lhs": _jsonable(lhs),
        "rhs": _jsonable(rhs),
        "tolerance": str(tolerance),
    }


def _exact_pair(value: Fraction) -> dict:
    return {"exact": str(value), "approx": _fmt_float(float(value))}


# -- command implementations ----------------------------------------------------


def run(spec: JobSpec) -> tuple[Report, Callable[[], str] | None]:
    """Execute a job; returns the report and a zero-argument function that
    builds the CSV payload, or None where the command has none."""
    start = time.perf_counter()
    handler = {
        "compute": _run_compute,
        "minimize": _run_minimize,
        "quotient": _run_quotient,
        "filtration": _run_filtration,
        "selftest": _run_selftest,
    }.get(spec.command)
    if handler is None:
        raise SchemaError(f"unknown command {spec.command!r}")
    report, csv = handler(spec)
    report.timing = time.perf_counter() - start
    return report, csv


def _run_compute(spec: JobSpec) -> tuple[Report, Callable[[], str] | None]:
    model = parse_model(spec.model)
    inputs = {"model": spec.model, "valuation": spec.valuation}
    checks: list[dict] = []
    if isinstance(model, PolarizedConeData):
        inv = cone_invariants(model)
        results = {
            "beta": _exact_pair(inv.beta),
            "antilog_power": _exact_pair(inv.antilog_power),
            "nvol_lower_bound": _exact_pair(inv.nvol_lower_bound),
            "nvol_canonical": _exact_pair(inv.nvol_canonical),
        }
        checks.append(
            _check(
                "lower_bound_sharpness",
                inv.nvol_lower_bound == inv.nvol_canonical,
                str(inv.nvol_lower_bound),
                str(inv.nvol_canonical),
                "exact",
            )
        )
        return Report("compute", inputs, results, checks), None
    if isinstance(model, tuple):  # toric_log_fano: (facets, r)
        facets, r = model
        rep = toric_log_fano(facets, r)
        results = {
            "p_star": [str(v) for v in rep.p_star],
            "gammas": [str(g) for g in rep.gammas],
            "frak_p_star": [str(v) for v in rep.frak_p_star],
            "s": str(rep.s),
            "beta_i": [str(b) for b in rep.beta_i],
            "beta_n": _exact_pair(rep.beta_n),
        }
        n = len(rep.p_star) + 1
        expected = RVector(list(rep.p_star) + [Fraction(1)]).scale(Fraction(n, n + 1))
        checks.append(
            _check(
                "lifted_centroid",
                rep.frak_p_star == expected,
                [str(v) for v in rep.frak_p_star],
                [str(v) for v in expected],
                "exact",
            )
        )
        checks.append(
            _check("beta_n_is_r_over_n", rep.beta_n == r / n, str(rep.beta_n), str(r / n), "exact")
        )
        return Report("compute", inputs, results, checks), None
    if spec.valuation is None:
        raise SchemaError("compute on this model needs --valuation")
    weights = RVector(spec.valuation)
    report = nvol_report(model, weights)
    results = {
        "n": report.n,
        "logdisc": _exact_pair(report.logdisc),
        "volume": _exact_pair(report.volume),
        "nvol": _exact_pair(report.nvol),
        "nonpositive_discrepancy": report.nonpositive_discrepancy,
    }
    for lam in (Fraction(1, 3), Fraction(2), Fraction(7)):
        scaled = nvol_report(model, weights.scale(lam))
        checks.append(
            _check(
                f"rescaling_invariance[{lam}]",
                scaled.nvol == report.nvol,
                str(scaled.nvol),
                str(report.nvol),
                "exact",
            )
        )

    def csv() -> str:
        keys = ("logdisc", "volume", "nvol")
        rows = (f"{k},{results[k]['exact']},{results[k]['approx']}\n" for k in keys)
        return "quantity,exact,approx\n" + "".join(rows)

    return Report("compute", inputs, results, checks), csv


def _run_minimize(spec: JobSpec) -> tuple[Report, Callable[[], str] | None]:
    tol = float(spec.opt("tol"))
    if not 0 < tol < math.inf:
        raise SchemaError(f"minimize --tol must be a positive finite number, not {tol!r}")
    model = parse_model(spec.model)
    if isinstance(model, (PolarizedConeData, tuple)):
        raise SchemaError("minimize needs a toric_cone, hypersurface or akm model")
    init = spec.valuation
    max_iter = int(spec.opt("max_iter"))
    seed = int(spec.opt("seed"))
    best = minimize_nvol(model, init=init, max_iter=max_iter)
    logdisc = model.logdisc(best.argmin)
    lower, upper = best.min_nvol_lower, best.min_nvol_upper
    results = {
        "argmin": [str(v) for v in best.argmin],
        "argmin_approx": [_fmt_float(float(v)) for v in best.argmin],
        "min_nvol_approx": _fmt_float(best.min_nvol),
        "min_nvol_upper": str(upper),
        "min_nvol_lower": str(lower),
        "iterations": best.iterations,
        "grad_norm_approx": _fmt_float(best.grad_norm),
        "converged": best.converged,
        "stalled_at_kink": best.stalled_at_kink,
        # one run per model, so no spread; kept for the report's schema
        "multistart_spread_approx": _fmt_float(0.0),
    }
    checks = [
        _check("converged", best.converged, best.converged, True, "boolean"),
        _check(
            "slice_normalization",
            logdisc == Fraction(model.n),
            str(logdisc),
            str(model.n),
            "exact",
        ),
        _check(
            "certified_bracket",
            lower <= upper and upper - lower <= CERTIFIED_WIDTH * upper,
            str(lower),
            str(upper),
            f"{float(CERTIFIED_WIDTH):g} relative",
        ),
    ]

    def csv() -> str:
        head = "iteration," + ",".join(f"w{i}" for i in range(len(best.argmin))) + ",nvol\n"
        return head + "".join(
            f"{i}," + ",".join(_fmt_float(c) for c in point) + f",{_fmt_float(value)}\n"
            for i, (point, value) in enumerate(best.trajectory)
        )

    inputs = {"model": spec.model, "init": init, "tol": tol, "max_iter": max_iter, "seed": seed}
    return Report("minimize", inputs, results, checks), csv


def _run_quotient(spec: JobSpec) -> tuple[Report, Callable[[], str] | None]:
    group = parse_group(spec.group)
    depth = int(spec.opt("samples"))
    if depth < 1:
        raise SchemaError(f"quotient --samples must be at least 1, not {depth}")
    free = check_free_in_codim1(group)
    top_m = (60 // group.order) * group.order
    series = invariant_dimension_series(group, max(depth, group.order + 1, top_m + 1))
    results: dict[str, Any] = {
        "order": group.order,
        "free_in_codim1": free,
        "series_head": list(series.dims[: min(len(series), 12)]),
    }
    checks: list[dict] = []
    if free:
        minimum = quotient_min_nvol(group)
        volume = quotient_volume(group, depth, series)
        results.update(
            {
                "min_nvol": _exact_pair(minimum.min_nvol),
                "logdisc_witness": str(minimum.logdisc_witness),
                "volume_witness": _exact_pair(minimum.volume_witness),
                "volume_estimate_approx": _fmt_float(volume.estimate),
            }
        )
        if top_m >= group.order:
            ok = pair_identity_check(group, top_m, series)
            rhs = Fraction((top_m + 1) ** 2 + group.order - 1, group.order)
            checks.append(
                _check(
                    f"pair_identity[m={top_m}]",
                    ok,
                    str(series[top_m] + series[top_m + 1]),
                    str(rhs),
                    "exact",
                )
            )
        checks.append(
            _check(
                "molien_limit",
                abs(volume.estimate - float(volume.exact)) <= 2.0 / depth,
                _fmt_float(volume.estimate),
                str(volume.exact),
                f"{2.0 / depth:g}",
            )
        )

    def csv() -> str:
        return "m,dim_below_m\n" + "".join(f"{m},{d}\n" for m, d in enumerate(series.dims))

    inputs = {"group": spec.group, "depth": depth}
    return Report("quotient", inputs, results, checks), csv


def _run_filtration(spec: JobSpec) -> tuple[Report, Callable[[], str] | None]:
    samples = int(spec.opt("samples"))
    if samples < 0 or samples == 1:
        raise SchemaError(f"filtration --samples must be 0 or at least 2, not {samples}")
    lam_raw = spec.options.get("lam", "auto")
    lam = None if lam_raw == "auto" else _parse_rational(lam_raw)
    if lam is not None and lam <= 0:
        raise SchemaError(f"--lam must be auto or a positive rational, not {lam_raw!r}")
    model = parse_model(spec.model)
    if isinstance(model, (PolarizedConeData, tuple)):
        raise SchemaError("filtration needs a toric_cone, hypersurface or akm model")
    if spec.valuation is None:
        raise SchemaError("filtration needs --v1")
    v1 = RVector(spec.valuation)
    v0_raw = spec.options.get("v0")
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
    delta = r_value * Fraction(n + 1, n)
    gap = stability_gap(profile, float(a_value), delta, profile.degH)
    forms = interpolation_derivative_forms(profile, lam)
    surface = phi_surface(profile, [0.5, 1.0, 2.0, lam], s_count=21)
    results = {
        "profile": profile_to_dict(profile),
        "lambda_approx": _fmt_float(lam),
        "derivative_at_zero": {
            "via_profile_integral_approx": _fmt_float(forms.via_profile_integral),
            "via_tail_integral_approx": _fmt_float(forms.via_tail_integral),
            "via_tail_and_volume_approx": _fmt_float(forms.via_tail_and_volume),
            "via_section_integral_approx": _fmt_float(forms.via_section_integral),
        },
        "section_integral": _exact_pair(section_integral(profile)),
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
            "degH": _exact_pair(profile.degH),
            "c1": _exact_pair(profile.c1),
            "c2": _exact_pair(profile.c2),
            "vol_v1": _exact_pair(profile.vol_v1),
            "logdisc_v0": _exact_pair(r_value),
            "logdisc_v1": _exact_pair(a_value),
            "stability_gap_approx": _fmt_float(gap),
        }
    )
    exact_pairs = [
        ("phi_at_zero", interpolation_volume(profile, lam, 0), profile.degH),
        ("phi_at_one", interpolation_volume(profile, lam, 1), lam**-n * profile.vol_v1),
        ("derivative_forms_agree", forms.spread(), Fraction(0)),
        (
            "theta_c1_identity",
            tail_volume_exact(profile, profile.c1),
            profile.degH - profile.c1**n * profile.vol_v1,
        ),
        ("profile_volume_matches", volume_from_profile(profile), profile.vol_v1),
    ]
    checks = [_check(name, lhs == rhs, lhs, rhs, "exact") for name, lhs, rhs in exact_pairs]
    checks.append(
        _check(
            "liu_bound",
            liu_bound_check(
                profile, [profile.c1 * Fraction(j, 4) for j in range(1, 5)] + [profile.c2]
            ),
            "pointwise bound",
            "holds",
            "exact",
        )
    )

    def csv() -> str:
        ts = (float(profile.c2) * 1.05 * j / (samples - 1) for j in range(samples))
        rows = (f"{_fmt_float(t)},{_fmt_float(profile.vol_r(t))}\n" for t in ts)
        return "t,vol_r\n" + "".join(rows)

    inputs = {
        "model": spec.model,
        "v0": [str(v) for v in v0],
        "v1": [str(v) for v in v1],
        "lambda": lam_raw,
        "samples": samples,
    }
    return Report("filtration", inputs, results, checks), csv


def _run_selftest(spec: JobSpec) -> tuple[Report, Callable[[], str] | None]:
    name_filter = spec.options.get("filter")
    results = selftest_mod.run_all(name_filter)
    checks = [
        _check(r.name, r.passed, r.lhs, r.rhs, r.tolerance) for r in results
    ]
    summary = {
        "total": len(results),
        "failed": sum(1 for r in results if not r.passed),
        "filter": name_filter,
    }

    def csv() -> str:
        rows = (f"{r.name},{int(r.passed)},{r.lhs},{r.rhs},{r.tolerance}\n" for r in results)
        return "name,pass,lhs,rhs,tolerance\n" + "".join(rows)

    return Report("selftest", {"filter": name_filter}, summary, checks), csv


# -- argument parsing -------------------------------------------------------------


def _load_json_arg(raw: str, what: str) -> dict:
    try:
        if raw.strip().startswith("{"):
            return json.loads(raw)
        with open(raw, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot load {what}: {exc}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `hvol` parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hvol",
        description="normalized volume of valuations on cone singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--timing", action="store_true", help="include wall time in the report")

    p = sub.add_parser("compute", help="evaluate A, vol and A^n vol")
    p.add_argument("--model", required=True)
    p.add_argument("--valuation", help="comma-separated weights")
    add_common(p)

    p = sub.add_parser(
        "minimize",
        help="minimize A^n vol over the Reeb cone",
        description="Newton steps on each convex piece of the model's domain (a toric "
        "cone's Reeb cone; the faces of a hypersurface's domain, over weights constant on "
        "interchangeable variables), then an exact bracket min_nvol_lower <= min <= "
        "min_nvol_upper from convexity (the certified_bracket check asks for a width of "
        "at most 1e-12 relative).  A hypersurface result is the minimum among monomial "
        "valuations in these coordinates.  --tol and --seed are accepted and change no "
        "report; a hypersurface --init is checked and then unused.",
    )
    p.add_argument("--model", required=True)
    p.add_argument("--init", help="comma-separated starting weights (used on a toric cone)")
    p.add_argument("--tol", type=float, default=DEFAULTS["tol"], help="checked, not used")
    p.add_argument("--max-iter", type=int, default=DEFAULTS["max_iter"])
    p.add_argument("--seed", type=int, default=DEFAULTS["seed"], help="not used")
    add_common(p)

    p = sub.add_parser("quotient", help="quotient surface invariants")
    p.add_argument("--group", required=True)
    p.add_argument("--samples", type=int, default=DEFAULTS["samples"])
    add_common(p)

    p = sub.add_parser("filtration", help="volume profile and interpolation calculus")
    p.add_argument("--model", required=True)
    p.add_argument("--v1", required=True, help="comma-separated filtration weights")
    p.add_argument("--v0", help="grading weights; defaults to the canonical ones")
    p.add_argument("--lam", "--lambda", dest="lam", default="auto")
    p.add_argument(
        "--samples",
        type=int,
        default=DEFAULTS["samples"],
        help="profile rows of the --format csv table; a JSON report samples none",
    )
    add_common(p)

    p = sub.add_parser("selftest", help="run the built-in verification suite")
    p.add_argument("--filter", help="only run suites whose name contains this")
    add_common(p)
    return parser


def spec_from_args(args: argparse.Namespace) -> JobSpec:
    options: dict[str, Any] = {}
    for key in ("tol", "max_iter", "samples", "seed"):
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) is not None:
            options[key] = getattr(args, attr)
    model = _load_json_arg(args.model, "model") if getattr(args, "model", None) else None
    group = _load_json_arg(args.group, "group") if getattr(args, "group", None) else None
    valuation = None
    if getattr(args, "valuation", None):
        valuation = _parse_weights(args.valuation)
    if getattr(args, "init", None):
        valuation = _parse_weights(args.init)
    if getattr(args, "v1", None):
        valuation = _parse_weights(args.v1)
    if getattr(args, "v0", None):
        options["v0"] = _parse_weights(args.v0)
    if getattr(args, "lam", None):
        options["lam"] = args.lam
    if getattr(args, "filter", None):
        options["filter"] = args.filter
    return JobSpec(command=args.command, model=model, group=group, valuation=valuation, options=options)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = spec_from_args(args)
        report, csv = run(spec)
        if args.format == "csv" and csv is not None:
            payload = csv()
        else:
            payload = report.to_json(include_timing=args.timing) + "\n"
    except HvolError as exc:
        sys.stderr.write(f"error[{exc.code}]: {exc}\n")
        return 3
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
