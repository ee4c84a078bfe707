"""Batch command-line surface.

Commands
--------
hvol compute    --model m.json [--valuation "1,1,1"]
hvol minimize   --model m.json [--init "..."]  (--tol and --seed are not used)
hvol quotient   --group '{"type":"cyclic","r":7,"a":3}'
hvol filtration --model m.json --v1 "1,2" [--v0 "..."] [--lam auto]
hvol selftest   [--filter name]

The parsed command line is the job: each subcommand's parser names its
handler, which reads its own flags.  A handler loads its JSON argument and
parses its weight flags before its other checks; an empty flag value counts
as absent.

Reports are canonical JSON written to stdout (or --output): keys are sorted,
exact rationals are "p/q" strings, floating point values are strings with 17
significant digits under keys suffixed `_approx`, so identical jobs produce
byte-identical reports.  `Report.to_json` writes that text in one recursive
pass over the report (`_write_json`): keys sorted, an indent of 2, strings
escaped to ASCII as the json module escapes them, and a `Fraction` or float
turned into its string where it is met.  The text is what
json.dumps(..., sort_keys=True, indent=2) writes for the converted report.
Wall-clock timing is volatile and therefore only included when --timing is
passed.  `--format csv` emits the command's main tabular payload
(trajectory, dimension series, profile samples, or the check table) instead
of JSON.  That payload is built only when it is printed, so a JSON run never
evaluates it: `filtration --samples` costs nothing there.  The self-test
suites are imported only when `hvol selftest` runs.  Record types are
NamedTuples or plain classes, so start-up loads no `dataclasses` (nor the
`inspect` it imports) and generates no methods through `exec`.

Exit codes: 0 all checks pass, 2 some check failed, 3 schema or model error,
usage errors included (a missing flag, a bad value, an unknown command).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Sequence

from .errors import HvolError, PreconditionViolated, SchemaError
from .exactgeom import Halfspace, RVector, to_float
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


class Report:
    def __init__(self, command: str, inputs: dict, results: dict, checks: list[dict]):
        self.command = command
        self.inputs = inputs
        self.results = results
        self.checks = checks
        self.timing: float | None = None

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_json(self, include_timing: bool = False) -> str:
        payload = {
            "schema": 1,
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "checks": self.checks,
        }
        if include_timing and self.timing is not None:
            payload["timing"] = {"seconds_approx": _fmt_float(self.timing)}
        out: list[str] = []
        _write_json(payload, "\n", out)
        return "".join(out)


def _fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def _write_json(obj: Any, newline: str, out: list[str]) -> None:
    """Append the canonical text of obj to out, `newline` being the line
    break and indent of obj's own line: what json.dumps(obj, sort_keys=True,
    indent=2) writes once every Fraction is its "p/q" string and every float
    its `_fmt_float` string.  Dict keys must be strings."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, Fraction):
        out.append(f'"{obj}"')
    elif isinstance(obj, float):
        out.append(f'"{_fmt_float(obj)}"')
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key in sorted(obj):
            out += (opener, encode_basestring_ascii(key), ": ")
            _write_json(obj[key], inner, out)
            opener = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        for item in obj:
            out.append(opener)
            _write_json(item, inner, out)
            opener = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _parse_rational(text) -> Fraction:
    if type(text) is int:  # a JSON integer, without the round trip through its text
        return Fraction(text)
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational literal {text!r}") from exc


def _parse_weights(text: str | None, flag: str) -> list[Fraction] | None:
    """Comma-separated weights; None for an absent or empty flag, and a
    SchemaError for an empty entry, such as a doubled or trailing comma."""
    if not text:
        return None
    parts = [part.strip() for part in text.split(",")]
    if not all(parts):
        raise SchemaError(f"--{flag} has an empty entry: {text!r}")
    weights = [_parse_rational(part) for part in parts]
    try:
        [str(w) for w in weights]  # the report echoes each entry as text
    except ValueError:
        raise SchemaError(f"--{flag} has an entry with too many digits: {text!r}") from None
    return weights


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
                tuple(_parse_integer(e, "hypersurface exponent") for e in mono)
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
        "lhs": lhs,
        "rhs": rhs,
        "tolerance": str(tolerance),
    }


def _approx(value, what: str) -> str:
    """An exact value's float text; `what` names it if it overflows a float."""
    return _fmt_float(to_float(value, what))


def _exact_pair(value: Fraction, what: str) -> dict:
    """An exact value's text and float; `what` names it if either fails."""
    try:
        exact = str(value)
    except ValueError:
        raise PreconditionViolated(f"{what} has too many digits for an exact report") from None
    return {"exact": exact, "approx": _approx(value, what)}


def _cone_model(descriptor, command: str):
    """The model of `descriptor`, refused unless it offers the cone-model interface."""
    model = parse_model(descriptor)
    if isinstance(model, (PolarizedConeData, tuple)):
        raise SchemaError(f"{command} needs a toric_cone, hypersurface or akm model")
    return model


# -- command implementations ----------------------------------------------------


def _run_compute(args: argparse.Namespace) -> tuple[Report, Callable[[], str] | None]:
    descriptor = _load_json_arg(args.model, "model")
    valuation = _parse_weights(args.valuation, "valuation")
    model = parse_model(descriptor)
    inputs = {"model": descriptor, "valuation": valuation}
    checks: list[dict] = []
    if isinstance(model, PolarizedConeData):
        inv = cone_invariants(model)
        results = {
            "beta": _exact_pair(inv.beta, "beta"),
            "antilog_power": _exact_pair(inv.antilog_power, "antilog_power"),
            "nvol_lower_bound": _exact_pair(inv.nvol_lower_bound, "nvol_lower_bound"),
            "nvol_canonical": _exact_pair(inv.nvol_canonical, "nvol_canonical"),
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
            "beta_n": _exact_pair(rep.beta_n, "beta_n"),
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
    if valuation is None:
        raise SchemaError("compute on this model needs --valuation")
    weights = RVector(valuation)
    report = nvol_report(model, weights)
    results = {
        "n": report.n,
        "logdisc": _exact_pair(report.logdisc, "logdisc"),
        "volume": _exact_pair(report.volume, "volume"),
        "nvol": _exact_pair(report.nvol, "nvol"),
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


def _run_minimize(args: argparse.Namespace) -> tuple[Report, Callable[[], str] | None]:
    descriptor = _load_json_arg(args.model, "model")
    init = _parse_weights(args.init, "init")
    if not 0 < args.tol < math.inf:
        raise SchemaError(f"minimize --tol must be a positive finite number, not {args.tol!r}")
    if args.max_iter < 1:
        raise SchemaError(f"minimize --max-iter must be a positive integer, not {args.max_iter}")
    model = _cone_model(descriptor, "minimize")
    best = minimize_nvol(model, init=init, max_iter=args.max_iter)
    logdisc = model.logdisc(best.argmin)
    lower, upper = best.min_nvol_lower, best.min_nvol_upper
    results = {
        "argmin": [str(v) for v in best.argmin],
        "argmin_approx": [_approx(v, "the argmin") for v in best.argmin],
        "min_nvol_approx": _fmt_float(best.min_nvol),
        "min_nvol_upper": str(upper),
        "min_nvol_lower": str(lower),
        "iterations": best.iterations,
        "grad_norm_approx": _fmt_float(best.grad_norm),
        "converged": best.converged,
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

    inputs = dict(model=descriptor, init=init, tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    return Report("minimize", inputs, results, checks), csv


def _run_quotient(args: argparse.Namespace) -> tuple[Report, Callable[[], str] | None]:
    descriptor = _load_json_arg(args.group, "group")
    group = parse_group(descriptor)
    depth = args.samples
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
                "min_nvol": _exact_pair(minimum.min_nvol, "min_nvol"),
                "logdisc_witness": str(minimum.logdisc_witness),
                "volume_witness": _exact_pair(minimum.volume_witness, "volume_witness"),
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
                abs(volume.estimate - to_float(volume.exact, "the volume")) <= 2.0 / depth,
                _fmt_float(volume.estimate),
                str(volume.exact),
                f"{2.0 / depth:g}",
            )
        )

    def csv() -> str:
        return "m,dim_below_m\n" + "".join(f"{m},{d}\n" for m, d in enumerate(series.dims))

    inputs = {"group": descriptor, "depth": depth}
    return Report("quotient", inputs, results, checks), csv


def _run_filtration(args: argparse.Namespace) -> tuple[Report, Callable[[], str] | None]:
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


def _run_selftest(args: argparse.Namespace) -> tuple[Report, Callable[[], str] | None]:
    from . import selftest  # imported here: it is large and only this command runs it

    name_filter = args.filter or None
    results = selftest.run_all(name_filter)
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


def _load_json_arg(raw: str, what: str):
    """The JSON text `raw`, or the JSON file it names; None when it is empty."""
    if not raw:
        return None
    try:
        if raw.strip().startswith("{"):
            return json.loads(raw)
        with open(raw, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot load {what}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 as SchemaError, not 2, the code of failed checks."""

    def error(self, message):
        raise SchemaError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `hvol` parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="hvol",
        description="normalized volume of valuations on cone singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, handler):
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--timing", action="store_true", help="include wall time in the report")
        p.set_defaults(handler=handler)

    p = sub.add_parser("compute", help="evaluate A, vol and A^n vol")
    p.add_argument("--model", required=True)
    p.add_argument("--valuation", help="comma-separated weights")
    add_common(p, _run_compute)

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
    p.add_argument("--tol", type=float, default=1e-8, help="checked, not used")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--seed", type=int, default=0, help="not used")
    add_common(p, _run_minimize)

    p = sub.add_parser("quotient", help="quotient surface invariants")
    p.add_argument("--group", required=True)
    p.add_argument("--samples", type=int, default=400)
    add_common(p, _run_quotient)

    p = sub.add_parser("filtration", help="volume profile and interpolation calculus")
    p.add_argument("--model", required=True)
    p.add_argument("--v1", required=True, help="comma-separated filtration weights")
    p.add_argument("--v0", help="grading weights; defaults to the canonical ones")
    p.add_argument("--lam", "--lambda", dest="lam", help="a positive rational; auto by default")
    p.add_argument(
        "--samples",
        type=int,
        default=400,
        help="profile rows of the --format csv table; a JSON report samples none",
    )
    add_common(p, _run_filtration)

    p = sub.add_parser("selftest", help="run the built-in verification suite")
    p.add_argument("--filter", help="only run suites whose name contains this")
    add_common(p, _run_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        start = time.perf_counter()
        report, csv = args.handler(args)
        report.timing = time.perf_counter() - start
        if args.format == "csv" and csv is not None:
            payload = csv()
        else:
            payload = report.to_json(include_timing=args.timing) + "\n"
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(payload)
            except OSError as exc:
                raise SchemaError(f"cannot write report: {exc}") from exc
    except HvolError as exc:
        sys.stderr.write(f"error[{exc.code}]: {exc}\n")
        return 3
    if not args.output:
        sys.stdout.write(payload)
    return 0 if report.passed else 2


if __name__ == "__main__":
    sys.exit(main())
