"""`hvol selftest`: the built-in verification suite."""

from __future__ import annotations

import argparse
from typing import Callable

from ..cli import Report


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--filter", help="only run suites whose name contains this")


def run(args: argparse.Namespace) -> tuple[Report, Callable[[], str] | None]:
    from .. import selftest  # imported here: it is large and only this command runs it

    name_filter = args.filter or None
    checks = selftest.run_all(name_filter)
    summary = {
        "total": len(checks),
        "failed": sum(1 for c in checks if not c["pass"]),
        "filter": name_filter,
    }

    def csv() -> str:
        rows = (
            f"{c['name']},{int(c['pass'])},{c['lhs']},{c['rhs']},{c['tolerance']}\n"
            for c in checks
        )
        return "name,pass,lhs,rhs,tolerance\n" + "".join(rows)

    return Report("selftest", {"filter": name_filter}, summary, checks), csv
