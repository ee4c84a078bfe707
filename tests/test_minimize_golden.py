"""Golden toric minimize reports: one `hvol minimize` job per model.

`data/minimize_golden.json` holds, for C^2/Z_3(1,1), the conifold and
Y^{3,1}, the job's argv (the `--seed 0` job of each model in
`hvolbench/jobs.py:toric_minimize_slots`), its `results` object and its
`--format csv` payload, recorded from the Newton minimizer with its exact
bracket.  The bracket, the argmin, every float derived from them and the
Newton trajectory must stay byte-identical.
"""

import json
from pathlib import Path

import pytest

from hvol import cli

GOLDEN = json.loads((Path(__file__).parent / "data" / "minimize_golden.json").read_text())


def _run(capsys, argv):
    assert cli.main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("record", GOLDEN, ids=[r["model"] for r in GOLDEN])
def test_minimize_report_matches_recording(capsys, record):
    report = json.loads(_run(capsys, record["argv"]))
    assert all(check["pass"] for check in report["checks"])
    assert json.dumps(report["results"], sort_keys=True) == json.dumps(
        record["results"], sort_keys=True
    )
    assert _run(capsys, record["argv"] + ["--format", "csv"]) == record["csv"]
