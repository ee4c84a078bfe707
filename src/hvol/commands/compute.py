"""`hvol compute`: A, vol and A^n vol of a valuation, or a model's own invariants."""

from __future__ import annotations

import argparse
from fractions import Fraction
from typing import Callable

from ..cli import (
    Report,
    _check,
    _exact_pair,
    _exact_text,
    _load_json_arg,
    _parse_weights,
    parse_model,
)
from ..errors import SchemaError
from ..exactgeom import RVector
from ..singularities import PolarizedConeData, ToricLogFanoPair, cone_invariants, toric_log_fano
from ..valuation import nvol_report


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True)
    parser.add_argument("--valuation", help="comma-separated weights")


def run(args: argparse.Namespace) -> tuple[Report, Callable[[], str] | None]:
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
    if isinstance(model, ToricLogFanoPair):
        rep = toric_log_fano(*model)
        results = {
            "p_star": [_exact_text(v, "p_star") for v in rep.p_star],
            "gammas": [_exact_text(g, "gammas") for g in rep.gammas],
            "frak_p_star": [_exact_text(v, "frak_p_star") for v in rep.frak_p_star],
            "s": _exact_text(rep.s, "s"),
            "beta_i": [_exact_text(b, "beta_i") for b in rep.beta_i],
            "beta_n": _exact_pair(rep.beta_n, "beta_n"),
        }
        n = len(rep.p_star) + 1
        expected = RVector([*rep.p_star, 1]).scale(Fraction(n, n + 1))
        checks.append(
            _check(
                "lifted_centroid",
                rep.frak_p_star == expected,
                results["frak_p_star"],
                [_exact_text(v, "lifted_centroid") for v in expected],
                "exact",
            )
        )
        r_over_n = model.r / n
        checks.append(
            _check(
                "beta_n_is_r_over_n",
                rep.beta_n == r_over_n,
                results["beta_n"]["exact"],
                _exact_text(r_over_n, "beta_n_is_r_over_n"),
                "exact",
            )
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
