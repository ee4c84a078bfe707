"""Self-test of the tracer: for each workload, one traced run with seed 0 must
be correct (its reports agree with the references and are byte-identical to
the untraced run of the same jobs, and every wrapped binding is restored) and
read non-zero on every metric notes.json expects to be non-zero on that
workload.

    python3 hvolbench/selftest.py

Exits 1 if any check fails.  Takes about three minutes.
"""

from __future__ import annotations

import json
import sys

from run import SRC, traced_metrics

sys.path.insert(0, str(SRC))

from check import load_references  # noqa: E402
from jobs import TRACED_ROUNDS, WORKLOADS, JobStream  # noqa: E402


def main() -> int:
    references = load_references()
    ok = True
    for workload in WORKLOADS:
        stream = JobStream(workload, 0)
        jobs = [job for _ in range(TRACED_ROUNDS[workload]) for job in stream.next_round()]
        correct, _, detail, _ = traced_metrics(workload, 0, jobs, references)
        passed = correct and not detail["unexpected_zero"]
        ok = ok and passed
        print(json.dumps({"workload": workload, "passed": passed, **detail}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
