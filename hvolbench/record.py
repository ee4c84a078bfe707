"""Record reference.json: the exact fields of every job whose reference is not
a closed form, as the program computes them now.

    python3 hvolbench/record.py

Run it only at a commit whose results are trusted; a later commit is checked
against what it writes.
"""

from __future__ import annotations

import json
import sys

from run import SRC, execute

sys.path.insert(0, str(SRC))

from check import REFERENCE_FILE, recorded_fields  # noqa: E402
from jobs import recorded_jobs  # noqa: E402


def main() -> int:
    references = {}
    jobs = recorded_jobs()
    for i, job in enumerate(jobs):
        outcome = execute(job)
        if outcome.error is None:
            references[job.key] = recorded_fields(job.argv, json.loads(outcome.stdout))
        else:
            print(f"no reference for {job.key}: {outcome.error}", file=sys.stderr)
        if i % 100 == 0:
            print(f"{i}/{len(jobs)}", file=sys.stderr, flush=True)
    REFERENCE_FILE.write_text(json.dumps(references, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
