"""Print one sha256 digest per benchmark job, to show that a change leaves
every report byte-identical.

    python3 tools/job_digests.py > digests.txt

Run it from the root of a source checkout; it imports `hvol` from `src/` and
the job lists from `hvolbench/`, and changes neither.  In one process, through
`hvolbench/run.py:execute`, it runs every distinct job of
`hvolbench/jobs.py:WORKLOADS`, each CLI job again with `--format csv`, and
`hvol selftest` in JSON and in CSV.  Each output line is the sha256 of the
job's exit code, stdout and error line, then the job's key.  Diff the output
of two checkouts to compare them; the last line counts the jobs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "hvolbench"
sys.path.insert(0, str(BENCH))

from jobs import WORKLOADS, Job  # noqa: E402
from run import SRC, execute  # noqa: E402

sys.path.insert(0, str(SRC))


def jobs() -> list[Job]:
    """The distinct jobs of every workload, then the CSV reruns of the CLI
    jobs, then the self-test in both formats."""
    distinct = list(
        dict.fromkeys(job for build in WORKLOADS.values() for slot in build() for job in slot.jobs)
    )
    csv = [Job("csv", argv=job.argv + ("--format", "csv")) for job in distinct if job.argv]
    selftest = [Job("selftest", argv=("selftest",) + fmt) for fmt in ((), ("--format", "csv"))]
    return distinct + csv + selftest


def digest(job: Job) -> str:
    outcome = execute(job)
    payload = json.dumps([outcome.code, outcome.stdout, outcome.error])
    return hashlib.sha256(payload.encode()).hexdigest()


def main() -> int:
    todo = jobs()
    for job in todo:
        print(f"{digest(job)}  {job.key}", flush=True)
    print(f"{len(todo)} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
