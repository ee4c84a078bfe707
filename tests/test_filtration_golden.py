"""Golden filtration reports: one `hvol filtration` job per benchmark model.

`data/filtration_golden.json` holds, for C^2, C^2/Z_3, C^3, the conifold,
akm(2,3) and akm(3,2), the job's argv, its `results` object and its
`--format csv` payload, recorded with the sampled-profile code of commit
01128f8 (the first round's raw job of each model in
`hvolbench/jobs.py:filtration_slots`).  The profile pieces, every exact field
and the floats derived from them must stay byte-identical.
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
    report = json.loads(_run(capsys, record["argv"]))
    assert all(check["pass"] for check in report["checks"])
    assert json.dumps(report["results"], sort_keys=True) == json.dumps(
        record["results"], sort_keys=True
    )
    assert _run(capsys, record["argv"] + ["--format", "csv"]) == record["csv"]
