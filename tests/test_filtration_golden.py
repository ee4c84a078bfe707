"""Golden filtration reports: two `hvol filtration` jobs per benchmark model.

`data/filtration_golden.json` holds, for C^2, C^2/Z_3, C^3, the conifold,
akm(2,3) and akm(3,2), the first round's raw job and its first c1=1 job in
`hvolbench/jobs.py:filtration_slots`: the job's argv, its whole stdout, its
`results` object and its `--format csv` payload.  The raw jobs' `results`
and CSV were recorded with the sampled-profile code of commit 01128f8; the
stdout fields and the c1=1 records were recorded from the integer-backed
toric minimize commit 1b7a795, before the filtration calculus moved to
integer numerators.  The `stability_gap_approx` text of six records was
later changed by hand, in `results` and `stdout`, to the exact gap rounded
once, where the float formula had cancelled.  The report must stay
byte-identical: the profile pieces, every exact field, the lhs and rhs of
every check, the floats derived from them and the report's formatting.
"""

import json
from pathlib import Path

import pytest

from hvol import cli

GOLDEN = json.loads((Path(__file__).parent / "data" / "filtration_golden.json").read_text())


def _run(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("record", GOLDEN, ids=[r["model"] for r in GOLDEN])
def test_filtration_report_matches_recording(capsys, record):
    out = _run(capsys, record["argv"])
    report = json.loads(out)
    assert all(check["pass"] for check in report["checks"])
    assert report["results"] == record["results"]
    assert out == record["stdout"]
    assert _run(capsys, record["argv"] + ["--format", "csv"]) == record["csv"]
