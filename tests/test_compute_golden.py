"""Golden compute reports: toric volumes and the toric log-Fano pipeline.

`data/compute_golden.json` holds the argv and the whole stdout of `hvol
compute` on the conifold and Y^{3,1} (the first job of each model in the
"compute toric 4 rays" slot of `hvolbench/jobs.py:short_jobs_slots`) and on
one unimodular image each of a cube, cross-polytope and simplex in dimensions
2 and 3 (the first job of each `toric_log_fano` slot there).  They reach
the double description of the cone over a polytope, its certified
triangulation, both barycenter formulas of `toric_log_fano` and exact
determinants, which the minimize and filtration goldens do not; every report
must stay byte-identical.
"""

import json
from pathlib import Path

import pytest

from hvol import cli

GOLDEN = json.loads((Path(__file__).parent / "data" / "compute_golden.json").read_text())


@pytest.mark.parametrize("record", GOLDEN, ids=[r["name"] for r in GOLDEN])
def test_compute_report_matches_recording(capsys, record):
    assert cli.main(record["argv"]) == 0
    out = capsys.readouterr().out
    assert all(check["pass"] for check in json.loads(out)["checks"])
    assert out == record["stdout"]
