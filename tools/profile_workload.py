"""Show where one benchmark workload spends its time, under cProfile.

    python3 tools/profile_workload.py filtration

Run it from the root of a source checkout; it imports `hvol` from `src/` and
the job lists from `hvolbench/`, and changes neither.  In one process,
through `hvolbench/run.py:execute` as `tools/job_digests.py` does, it runs
every distinct job of the workload once untimed, so that imports, parsers and
caches are warm, then three more passes under cProfile.  It prints the jobs
and seconds per profiled pass, then the 25 functions with the most cumulative
time and the 25 with the most self time over the three passes.  It writes no
file.  cProfile charges a cost to every Python call, so the shares it shows
lean toward code that makes many small calls; time a candidate with the
benchmark itself before claiming a gain.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
import sysconfig
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "hvolbench"
sys.path.insert(0, str(BENCH))

from jobs import WORKLOADS  # noqa: E402
from run import SRC, execute  # noqa: E402

sys.path.insert(0, str(SRC))

PASSES = 3
TOP = 25


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    jobs = list(dict.fromkeys(job for slot in WORKLOADS[args.workload]() for job in slot.jobs))
    for job in jobs:  # the warm pass
        execute(job)
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    for _ in range(PASSES):
        for job in jobs:
            execute(job)
    profile.disable()
    seconds = time.perf_counter() - start
    print(
        f"{args.workload}: {len(jobs)} distinct jobs per pass, {PASSES} passes under cProfile, "
        f"{seconds / PASSES:.3f} s per pass"
    )
    for key in ("cumulative", "tottime"):
        out = io.StringIO()
        pstats.Stats(profile, stream=out).sort_stats(key).print_stats(TOP)
        # the table alone, with paths relative to the checkout or the stdlib
        table = out.getvalue()
        table = table[table.index("   ncalls"):].rstrip()
        for prefix in (ROOT, sysconfig.get_paths()["stdlib"]):
            table = table.replace(f"{prefix}{os.sep}", "")
        print(f"\n-- top {TOP} by {key} time --")
        print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
