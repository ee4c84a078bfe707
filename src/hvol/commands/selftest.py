"""`hvol selftest`: the built-in verification suite."""

from __future__ import annotations

import argparse
from typing import Callable

from ..cli import Report, _check


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--filter", help="only run suites whose name contains this")


def run(args: argparse.Namespace) -> tuple[Report, Callable[[], str] | None]:
    from .. import selftest  # imported here: it is large and only this command runs it

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
