"""`hvol quotient`: invariants of the quotient surface C^2 / G of a finite group."""

from __future__ import annotations

import argparse
from fractions import Fraction
from typing import Any, Callable

from ..cli import Report, _check, _exact_pair, _fmt_float, _load_json_arg, _parse_integer
from ..errors import SchemaError
from ..exactgeom import to_float
from ..molien import (
    FiniteGroupAction,
    GroupElement,
    check_free_in_codim1,
    cyclic_group,
    invariant_dimension_series,
    pair_identity_check,
    quotient_min_nvol,
    quotient_volume,
)


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


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--group", required=True)
    parser.add_argument("--samples", type=int, default=400)


def run(args: argparse.Namespace) -> tuple[Report, Callable[[], str] | None]:
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
