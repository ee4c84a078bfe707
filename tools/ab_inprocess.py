"""Time two checkouts' `hvol` side by side in one process, job by job.

    python3 tools/ab_inprocess.py PARENT_DIR CHANGE_DIR --workload toric-minimize --rounds 5

Each checkout's `src/hvol` is imported under its own package name
(`hvol_parent`, `hvol_change`), so its relative imports resolve inside it and
both trees live in this one interpreter.  The jobs are the distinct jobs of
the workload in PARENT_DIR's `hvolbench/jobs.py`.  Every round runs each job
on both trees, the parent first in even (round + job) and the change first
in odd, as `hvolbench/run.py:execute` runs it: `cli.main(argv)` with stdout
captured, or the lattice-oracle library call.  A job whose stdout or exit
code differs between the trees in any run is still timed to the end.

It prints one line per job (the least time of each tree and their ratio,
change over parent, and `differs` on a job whose output differed, followed by
the first stdout line where the two trees differ, one line per tree), then
the median job time of each tree over all runs, the quartiles of the per-job
ratios of least times and the count of differing jobs.  A ratio below 1 means
the change is faster.  It exits 1 if any job's output differed, 0 otherwise.
It writes no file, and it times nothing but the calls:
one process on a quiet host resolves a few percent, where a benchmark run
that spends most of its time in set-up and probes cannot.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def load(name: str, checkout: Path):
    """`checkout/src/hvol` as the package `name`, with its `cli`,
    `singularities` and `valuation` modules loaded."""
    root = checkout / "src" / "hvol"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "singularities", "valuation"):
        importlib.import_module(f"{name}.{module}")
    return package


def execute(package, job) -> tuple[int | None, str, float]:
    """(exit code, stdout, ms) of one job on one tree."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            if job.argv:
                code = package.cli.main(list(job.argv))
            else:
                family, model, weights, depth = json.loads(job.call)
                if family == "toric":
                    model = package.singularities.ToricConeSingularity.from_rays(model)
                else:
                    model = package.singularities.akm_singularity(*model)
                print(package.valuation.lattice_count_oracle(model, weights, depth))
                code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), (time.perf_counter() - start) * 1e3


def first_difference(outcomes: dict) -> tuple[str, str]:
    """The first stdout line where the parent's and the change's outcomes
    differ, or their exit codes when every line agrees."""
    (code_a, out_a), (code_b, out_b) = (outcomes[side] for side in SIDES)
    lines = itertools.zip_longest(out_a.splitlines(), out_b.splitlines(), fillvalue="<no line>")
    return next(((a, b) for a, b in lines if a != b), (f"exit {code_a}", f"exit {code_b}"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.parent.resolve() / "hvolbench"))
    from jobs import WORKLOADS

    jobs = list(dict.fromkeys(job for slot in WORKLOADS[args.workload]() for job in slot.jobs))
    packages = {side: load(f"hvol_{side}", getattr(args, side).resolve()) for side in SIDES}
    times = {side: [[] for _ in jobs] for side in SIDES}
    differs = {}  # the first differing outcomes of a job, by job index
    for r in range(args.rounds):
        for k, job in enumerate(jobs):
            order = SIDES if (r + k) % 2 == 0 else SIDES[::-1]
            outcomes = {}
            for side in order:
                code, stdout, ms = execute(packages[side], job)
                outcomes[side] = code, stdout
                times[side][k].append(ms)
            if outcomes["parent"] != outcomes["change"]:
                differs.setdefault(k, outcomes)
    ratios = []
    for k, job in enumerate(jobs):
        best = {side: min(times[side][k]) for side in SIDES}
        ratios.append(best["change"] / best["parent"])
        mark = "  differs" if k in differs else ""
        line = f"{best['parent']:.4f} ms -> {best['change']:.4f} ms  x{ratios[-1]:.3f}"
        print(f"{line}  {job.key}{mark}")
        if k in differs:
            for side, text in zip(SIDES, first_difference(differs[k])):
                print(f"    {side}: {text}")
    medians = {side: statistics.median(t for ts in times[side] for t in ts) for side in SIDES}
    q1, q2, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(
        f"{args.workload}: {len(jobs)} jobs x {args.rounds} rounds, "
        f"{len(differs)} with differing outputs; "
        f"median job {medians['parent']:.4f} -> {medians['change']:.4f} ms "
        f"({100 * (medians['change'] / medians['parent'] - 1):+.1f}%); "
        f"ratio of least times change/parent: quartiles {q1:.3f} {q2:.3f} {q3:.3f}"
    )
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
