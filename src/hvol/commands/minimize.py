"""`hvol minimize`: the minimum of A^n vol over the Reeb cone, with a certified bracket."""

from __future__ import annotations

import argparse
import math
from fractions import Fraction
from typing import Callable

from ..cli import Report, _approx, _check, _cone_model, _fmt_float, _load_json_arg, _parse_weights
from ..errors import SchemaError
from ..reeb import CERTIFIED_WIDTH, minimize_nvol


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.description = (
        "Newton steps on each convex piece of the model's domain (a toric "
        "cone's Reeb cone; the faces of a hypersurface's domain, over weights constant on "
        "interchangeable variables), then an exact bracket min_nvol_lower <= min <= "
        "min_nvol_upper from convexity (the certified_bracket check asks for a width of "
        "at most 1e-12 relative).  A hypersurface result is the minimum among monomial "
        "valuations in these coordinates.  --tol and --seed are accepted and change no "
        "report; a hypersurface --init is checked and then unused."
    )
    parser.add_argument("--model", required=True)
    parser.add_argument("--init", help="comma-separated starting weights (used on a toric cone)")
    parser.add_argument("--tol", type=float, default=1e-8, help="checked, not used")
    parser.add_argument("--max-iter", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0, help="not used")


def run(args: argparse.Namespace) -> tuple[Report, Callable[[], str] | None]:
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
