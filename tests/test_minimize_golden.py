"""Golden minimize reports: one `hvol minimize` job per model.

`data/minimize_golden.json` holds, for C^2/Z_3(1,1), the conifold, Y^{3,1},
the asymmetric hypersurface x^2 + y^3 + z^4 + w^12 and every A_{k-1} cone
that `hvolbench/jobs.py` minimizes, akm(n,k) for (n,k) = (2,2), (2,5),
(3,1), (3,2), (3,3), (4,2), (3,4), (4,3) and (3,5), the job's argv (the
`--seed 0` job of each model in `hvolbench/jobs.py`), its whole stdout, its
`results` object and its `--format csv` payload, recorded from the Newton
minimizer with its exact bracket; the constant fields
`multistart_spread_approx` and `stalled_at_kink` were later deleted from
each record's `results` and `stdout`, and the `converged` check, which
`certified_bracket` implies, from each `stdout`.  A run now ends with 0
Newton steps on a start where the exact slope on its piece vanishes: the
C^2/Z_3(1,1) and conifold runs, and on each hypersurface the face whose
slice is one vertex, so `iterations` was re-recorded one lower on those
records, and akm(3,3)'s CSV row is its exact start.  So every layout of
hypersurface pieces that the benchmark minimizes is pinned, and so is
akm(4,4), whose minimizer (3/2, 3/2, 3/2, 3/2, 1) is not on the ray of its
canonical weights (4, 4, 4, 4, 2).  The report must stay byte-identical: the
bracket, the argmin, every float derived from them, the Newton trajectory and
the report's formatting.
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
    out = _run(capsys, record["argv"])
    report = json.loads(out)
    assert all(check["pass"] for check in report["checks"])
    assert report["results"] == record["results"]
    assert out == record["stdout"]
    assert _run(capsys, record["argv"] + ["--format", "csv"]) == record["csv"]
