"""Print one sha256 digest per benchmark job, to show that a change leaves
every report byte-identical.

    python3 tools/job_digests.py > digests.txt

Run it from the root of a source checkout; it imports `hvol` from `src/` and
the job lists from `hvolbench/`, and changes neither.  In one process, through
`hvolbench/run.py:execute`, it runs every distinct job of
`hvolbench/jobs.py:WORKLOADS`, each CLI job again with `--format csv`, and
`hvol selftest` in JSON and in CSV, then the parser surface: `hvol --help`,
each `hvol <command> --help`, and the usage errors of no command, an unknown
command, a missing required flag and an unknown flag.  Help text is wrapped at
80 columns whatever the terminal.  Each output line is the sha256 of the
job's exit code, stdout and error line, then the job's key.  Diff the output
of two checkouts to compare them; the last line counts the jobs (1132: 1122
benchmark and self-test jobs, 10 parser-surface jobs).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

os.environ["COLUMNS"] = "80"  # argparse wraps help text at the terminal width

BENCH = Path(__file__).resolve().parent.parent / "hvolbench"
sys.path.insert(0, str(BENCH))

from jobs import WORKLOADS, Job  # noqa: E402
from run import SRC, Outcome, execute  # noqa: E402

sys.path.insert(0, str(SRC))


def jobs() -> list[Job]:
    """The distinct jobs of every workload, then the CSV reruns of the CLI
    jobs, then the self-test in both formats."""
    distinct = list(
        dict.fromkeys(job for build in WORKLOADS.values() for slot in build() for job in slot.jobs)
    )
    csv = [Job("csv", argv=job.argv + ("--format", "csv")) for job in distinct if job.argv]
    selftest = [Job("selftest", argv=("selftest",) + fmt) for fmt in ((), ("--format", "csv"))]
    return distinct + csv + selftest + surface()


def surface() -> list[Job]:
    """The help texts and usage errors, but for the bare `hvol` (see `bare_hvol`)."""
    commands = ("compute", "minimize", "quotient", "filtration", "selftest")
    model = '{"type":"toric_cone","rays":[[1,0],[0,1]]}'
    argvs = [("--help",), *((name, "--help") for name in commands)]
    argvs += [("bogus",), ("minimize",), ("minimize", "--model", model, "--bogus")]
    return [Job("usage", argv=argv) for argv in argvs]


def digest(outcome) -> str:
    payload = json.dumps([outcome.code, outcome.stdout, outcome.error])
    return hashlib.sha256(payload.encode()).hexdigest()


def bare_hvol() -> Outcome:
    """`hvol` without arguments, which `execute` would take for a library call."""
    import hvol.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hvol.cli.main([])
    return Outcome(code, out.getvalue(), err.getvalue().strip().splitlines()[0], 0.0)


def main() -> int:
    todo = jobs()
    for job in todo:
        print(f"{digest(execute(job))}  {job.key}", flush=True)
    print(f"{digest(bare_hvol())}  (no command)")
    print(f"{len(todo) + 1} jobs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
