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
as absent.  Each command's flags and handler live in its own module,
`hvol.commands.<name>`, so each command's code is compiled only when that
command runs: `main` builds the parser for the command named first on the
command line, and only `hvol -h` and usage errors without a known command
build the parser that names all five.  This module keeps the report writer
and the parsing helpers the commands share.

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
evaluates it: `filtration --samples` costs nothing there.  Record types are
NamedTuples or plain classes, so start-up loads no `dataclasses` (nor the
`inspect` it imports) and generates no methods through `exec`.

Exit codes: 0 all checks pass, 2 some check failed, 3 schema or model error,
usage errors included (a missing flag, a bad value, an unknown command).
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

from .errors import HvolError, PreconditionViolated, SchemaError
from .exactgeom import RVector, _integral, to_float
from .singularities import (
    PolarizedConeData,
    ToricConeSingularity,
    ToricLogFanoPair,
    WeightedHomogeneousHypersurface,
    akm_singularity,
)

# each command's one-line help; its flags and handler are in hvol.commands.<name>
COMMANDS = {
    "compute": "evaluate A, vol and A^n vol",
    "minimize": "minimize A^n vol over the Reeb cone",
    "quotient": "quotient surface invariants",
    "filtration": "volume profile and interpolation calculus",
    "selftest": "run the built-in verification suite",
}


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
    its `_fmt_float` string.  Dict keys must be strings.  Containers are told
    apart by their exact type, and a `str` child is written where it is met,
    without a call of its own."""
    kind = type(obj)
    if kind is not dict and kind is not list and kind is not tuple:
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
        elif isinstance(obj, (dict, list, tuple)):  # a subclass, such as a NamedTuple
            _write_json(dict(obj) if isinstance(obj, dict) else list(obj), newline, out)
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        return
    if not obj:
        out.append("{}" if kind is dict else "[]")
        return
    inner = newline + "  "
    if kind is dict:
        opener = "{" + inner
        for key in sorted(obj):
            value = obj[key]
            if type(value) is str:
                out += (opener, encode_basestring_ascii(key), ": ", encode_basestring_ascii(value))
            else:
                out += (opener, encode_basestring_ascii(key), ": ")
                _write_json(value, inner, out)
            opener = "," + inner
        out.append(newline + "}")
    else:
        opener = "[" + inner
        for item in obj:
            if type(item) is str:
                out += (opener, encode_basestring_ascii(item))
            else:
                out.append(opener)
                _write_json(item, inner, out)
            opener = "," + inner
        out.append(newline + "]")


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
        normals = [[_parse_rational(v) for v in f["normal"]] for f in facets]
        if any(len(v) != len(normals[0]) or not any(v) for v in normals):
            raise SchemaError("toric_log_fano facet normals must be nonzero and of one length")
        rows = [_integral([*v, _parse_rational(f["offset"])]) for v, f in zip(normals, facets)]
        return ToricLogFanoPair(rows, _parse_rational(descriptor["r"]))
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


def _exact_text(value: Fraction, what: str) -> str:
    """An exact value's text; `what` names it if it has more digits than
    Python prints."""
    try:
        return str(value)
    except ValueError:
        raise PreconditionViolated(f"{what} has too many digits for an exact report") from None


def _exact_pair(value: Fraction, what: str) -> dict:
    """An exact value's text and float; `what` names it if either fails."""
    return {"exact": _exact_text(value, what), "approx": _approx(value, what)}


def _cone_model(descriptor, command: str):
    """The model of `descriptor`, refused unless it offers the cone-model interface."""
    model = parse_model(descriptor)
    if isinstance(model, (PolarizedConeData, ToricLogFanoPair)):
        raise SchemaError(f"{command} needs a toric_cone, hypersurface or akm model")
    return model


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
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `hvol` parser, built once per process and command: parsing leaves
    it unchanged.  A command of COMMANDS gets its subparser alone, with flags
    and handler from `hvol.commands.<command>`; None gets every command's
    name and help line, all that `hvol -h` and usage errors read."""
    parser = _Parser(
        prog="hvol",
        description="normalized volume of valuations on cone singularities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if command is None:
        for name, text in COMMANDS.items():
            sub.add_parser(name, help=text)
        return parser
    module = importlib.import_module(f".commands.{command}", __package__)
    p = sub.add_parser(command, help=COMMANDS[command])
    module.add_arguments(p)
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--timing", action="store_true", help="include wall time in the report")
    p.set_defaults(handler=module.run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
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
