import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hvol

from hvol.cli import JobSpec, main, parse_group, parse_model, run
from hvol.errors import SchemaError
from hvol.singularities import PolarizedConeData, ToricConeSingularity


AKM_35 = '{"type":"akm","n":3,"k":5}'
C2_TORIC = '{"type":"toric_cone","rays":[[1,0],[0,1]],"canonical_xi":[1,1]}'


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_compute_toric(capsys):
    code, out = run_cli(
        capsys, ["compute", "--model", C2_TORIC, "--valuation", "1,1"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["nvol"]["exact"] == "4"
    assert all(check["pass"] for check in report["checks"])


def test_compute_akm_rational_weights(capsys):
    code, out = run_cli(
        capsys,
        ["compute", "--model", AKM_35, "--valuation", "1,1,1,1/2"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["logdisc"]["exact"] == "3/2"
    assert report["results"]["volume"]["exact"] == "4"


def test_minimize_akm(capsys):
    code, out = run_cli(capsys, ["minimize", "--model", AKM_35])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["min_nvol_upper"] == "27/2"
    assert report["results"]["min_nvol_lower"] == "27/2"
    assert report["results"]["converged"] is True
    bracket = report["checks"][-1]
    assert bracket["name"] == "certified_bracket"
    assert (bracket["pass"], bracket["lhs"], bracket["rhs"]) == (True, "27/2", "27/2")


def test_hypersurface_minimize_ignores_seed_and_init(capsys):
    # one run per face of the domain, certified by its bracket: --seed and a
    # hypersurface --init change nothing but the echo of the inputs (the
    # finite-difference descent this replaced failed akm(3,5) on --seed 10)
    reports = set()
    for argv in [["--seed", str(seed)] for seed in range(16)] + [["--init", "1,1,1,1"]]:
        code, out = run_cli(capsys, ["minimize", "--model", AKM_35, "--tol", "1e-8", *argv])
        assert code == 0
        report = json.loads(out)
        report.pop("inputs")
        reports.add(json.dumps(report, sort_keys=True))
    assert len(reports) == 1


def test_build_parser_once():
    from hvol.cli import build_parser

    assert build_parser() is build_parser()


def test_minimize_with_init_matches_example(capsys):
    model = '{"type":"toric_cone","rays":[[1,0,0],[0,1,0],[0,0,1]]}'
    code, out = run_cli(
        capsys, ["minimize", "--model", model, "--init", "1,2,5"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["argmin"] == ["1", "1", "1"]
    assert report["results"]["min_nvol_upper"] == report["results"]["min_nvol_lower"] == "27"
    bracket = report["checks"][-1]
    assert bracket["name"] == "certified_bracket"
    assert (bracket["pass"], bracket["lhs"], bracket["rhs"]) == (True, "27", "27")


def test_toric_minimize_ignores_seed(capsys):
    # one Newton run, certified by its bracket: --seed changes nothing but
    # the echo of the inputs
    model = '{"type":"toric_cone","rays":[[1,0,0],[1,1,2],[1,3,3],[1,1,0]]}'
    runs = []
    for seed in ("0", "7"):
        code, out = run_cli(capsys, ["minimize", "--model", model, "--seed", seed])
        assert code == 0
        report = json.loads(out)
        assert report.pop("inputs")["seed"] == int(seed)
        csv_code, csv = run_cli(capsys, ["minimize", "--model", model, "--seed", seed, "--format", "csv"])
        assert csv_code == 0
        runs.append((json.dumps(report, sort_keys=True), csv))
    assert runs[0] == runs[1]


def test_quotient_cyclic(capsys):
    code, out = run_cli(
        capsys, ["quotient", "--group", '{"type":"cyclic","r":7,"a":3}']
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["min_nvol"]["exact"] == "4/7"


def test_quotient_element_list(capsys):
    group = '{"type":"elements","eigs":[[0,1,0,1],[1,2,1,2]]}'
    code, out = run_cli(capsys, ["quotient", "--group", group])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["order"] == 2
    assert report["results"]["min_nvol"]["exact"] == "2"


# sha256 of the default (--samples 400) quotient report and CSV, as stepping
# the Molien series degree by degree gives them
QUOTIENT_PINS = [
    (
        '{"type":"cyclic","r":7,"a":3}',
        "5d7c1ba2a671e8675e95757bb0564473e062f1241baf07616ee3c044ea705947",
        "61ca8b903daf8277428c9624c22364ca15041ceec1725645c05338497638cdf1",
    ),
    (
        '{"type":"elements","eigs":[[0,1,0,1],[1,4,3,4],[1,2,1,2],[3,4,1,4]]}',
        "650dcde78775e7327931af9fb23176b55e3522dc525366e8b184ac756c2c74f8",
        "2192471db4b21cac9e8f8986cd4b3ae31a6eac65dcfceddeb190fb7b5860705f",
    ),
]


@pytest.mark.parametrize("group, report_sha, csv_sha", QUOTIENT_PINS)
def test_quotient_default_outputs_are_pinned(capsys, group, report_sha, csv_sha):
    for fmt, expected in (("json", report_sha), ("csv", csv_sha)):
        code, out = run_cli(capsys, ["quotient", "--group", group, "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == expected, fmt


@pytest.mark.parametrize("samples", [1, 2, 5, 56, 60])
def test_quotient_few_samples_still_checks_the_pair_identity(capsys, samples):
    code, out = run_cli(
        capsys, ["quotient", "--group", '{"type":"cyclic","r":7,"a":3}', "--samples", str(samples)]
    )
    assert code == 0
    report = json.loads(out)
    assert report["inputs"]["depth"] == samples
    pair = next(c for c in report["checks"] if c["name"] == "pair_identity[m=56]")
    assert pair["pass"] and pair["lhs"] == pair["rhs"] == "465"
    code, csv = run_cli(
        capsys,
        ["quotient", "--group", '{"type":"cyclic","r":7,"a":3}', "--samples", str(samples), "--format", "csv"],
    )
    assert code == 0
    assert len(csv.splitlines()) == 1 + max(samples, 57) + 1


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_quotient_refuses_nonpositive_samples(capsys, samples):
    code = main(["quotient", "--group", '{"type":"cyclic","r":7,"a":3}', "--samples", samples])
    assert code == 3
    assert capsys.readouterr().err.startswith("error[schema_error]: quotient --samples")


@pytest.mark.parametrize(
    "group",
    [
        {"type": "elements", "eigs": [[0, 1, 0, 1], [1, 2, 1]]},
        {"type": "elements", "eigs": [[0, 1, 0, 1], [1, 2, 1, 2, 0]]},
        {"type": "elements", "eigs": [[0, 1, 0, 1], 5]},
        {"type": "elements", "eigs": [[0, 1, 0, 1], [1, 0, 1, 2]]},
        {"type": "elements", "eigs": [[0, 1, 0, 1], [1, 2, 1, 0]]},
        {"type": "elements", "eigs": [[0, 1, 0, 1], [1, "x", 1, 2]]},
        {"type": "elements", "eigs": [[0, 1, 0, 1], [1.5, 2, 1, 2]]},
        {"type": "elements", "eigs": {"0": [0, 1, 0, 1]}},
        {"type": "cyclic", "r": 3, "a": "x"},
        {"type": "cyclic", "r": "x", "a": 1},
        {"type": "cyclic", "r": 3.5, "a": 1},
        {"type": "cyclic", "r": 3, "a": True},
    ],
)
def test_parse_group_refuses_malformed_descriptors(capsys, group):
    with pytest.raises(SchemaError):
        parse_group(group)
    assert main(["quotient", "--group", json.dumps(group)]) == 3
    assert capsys.readouterr().err.startswith("error[schema_error]: ")


def test_parse_group_accepts_integer_strings():
    group = parse_group({"type": "cyclic", "r": "5", "a": "2"})
    assert group.order == 5
    elements = parse_group({"type": "elements", "eigs": [["0", "1", "0", "1"], [1, -2, 1, 2]]})
    assert {(e.eig1, e.eig2) for e in elements.elements} == {
        (0, 0),
        (Fraction(1, 2), Fraction(1, 2)),
    }


# `--format csv` payloads that no golden file covers, as the eagerly built
# CSV gave them: compute's quantity rows and one self-test check table
COMPUTE_CSV_PINS = [
    (C2_TORIC, "1,1", "quantity,exact,approx\nlogdisc,2,2\nvolume,1,1\nnvol,4,4\n"),
    (AKM_35, "1,1,1,1/2", "quantity,exact,approx\nlogdisc,3/2,1.5\nvolume,4,4\nnvol,27/2,13.5\n"),
]


@pytest.mark.parametrize("model, valuation, expected", COMPUTE_CSV_PINS, ids=["C2", "akm(3,5)"])
def test_compute_csv_is_pinned(capsys, model, valuation, expected):
    argv = ["compute", "--model", model, "--valuation", valuation, "--format", "csv"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert out == expected


def test_selftest_csv_is_pinned(capsys):
    code, out = run_cli(capsys, ["selftest", "--filter", "molien", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[:2] == [
        "name,pass,lhs,rhs,tolerance",
        "molien_limit[Z1(1,0)],1,1.0024999999999999,1,0.005",
    ]
    assert len(out.splitlines()) == 12
    digest = "a880ec624f5bbb4509134186126902f32d2ec89ac5628148af944eaf80ce36b5"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_filtration_command(capsys):
    code, out = run_cli(
        capsys, ["filtration", "--model", C2_TORIC, "--v1", "1,2", "--lam", "auto"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["results"]["c1"]["exact"] == "1"
    assert report["results"]["vol_v1"]["exact"] == "1/2"
    assert all(check["pass"] for check in report["checks"])


def test_filtration_needs_v0_without_canonical_grading(capsys):
    # a hypersurface model has no canonical grading, even on A_1's monomials
    model = '{"type":"hypersurface","n":2,"monomials":[[2,0,0],[0,2,0],[0,0,2]]}'
    code = main(["filtration", "--model", model, "--v1", "1,1,2"])
    assert code == 3
    assert "schema_error" in capsys.readouterr().err
    code, _ = run_cli(capsys, ["filtration", "--model", model, "--v1", "1,1,2", "--v0", "1,1,1"])
    assert code == 0


A1_MONOMIALS = [[2, 0, 0], [0, 2, 0], [0, 0, 2]]


def test_filtration_reads_canonical_xi_on_a_hypersurface(capsys):
    # canonical_xi on a hypersurface descriptor is the default --v0
    graded = json.dumps({"type": "hypersurface", "n": 2, "monomials": A1_MONOMIALS, "canonical_xi": [1, 1, 1]})
    bare = json.dumps({"type": "hypersurface", "n": 2, "monomials": A1_MONOMIALS})
    code, out = run_cli(capsys, ["filtration", "--model", graded, "--v1", "1,1,2"])
    assert code == 0
    code, explicit = run_cli(capsys, ["filtration", "--model", bare, "--v1", "1,1,2", "--v0", "1,1,1"])
    assert code == 0
    report, expected = json.loads(out), json.loads(explicit)
    assert report["results"] == expected["results"]
    assert report["checks"] == expected["checks"]


@pytest.mark.parametrize("canonical", [[1, 1], [1, 1, 1, 1], [1, 0, 1], [1, -1, 2], 5])
def test_hypersurface_canonical_xi_is_checked(capsys, canonical):
    descriptor = {"type": "hypersurface", "n": 2, "monomials": A1_MONOMIALS, "canonical_xi": canonical}
    with pytest.raises(SchemaError):
        parse_model(descriptor)
    code = main(["filtration", "--model", json.dumps(descriptor), "--v1", "1,1,2"])
    assert code == 3
    assert "schema_error" in capsys.readouterr().err


def test_selftest_filtered(capsys):
    code, out = run_cli(capsys, ["selftest", "--filter", "sharpness"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["failed"] == 0
    assert report["results"]["total"] == 50


def test_csv_output(capsys):
    code, out = run_cli(
        capsys,
        ["minimize", "--model", C2_TORIC, "--init", "1,3", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "iteration,w0,w1,nvol"
    assert len(lines) >= 2


def test_reports_are_byte_identical(tmp_path):
    spec = JobSpec(
        command="minimize",
        model=json.loads(AKM_35),
        options={"seed": 3},
    )
    first, _ = run(spec)
    second, _ = run(spec)
    assert first.to_json() == second.to_json()


def test_exit_code_on_schema_error(capsys):
    code = main(["compute", "--model", '{"type":"mystery"}'])
    err = capsys.readouterr().err
    assert code == 3
    assert "schema_error" in err


def test_exit_code_on_model_error(capsys):
    code = main(["compute", "--model", C2_TORIC, "--valuation", "1,-1"])
    assert code == 3
    # a nonpositive hypersurface weight is an error report, not a traceback
    code = main(["compute", "--model", '{"type":"akm","n":2,"k":2}', "--valuation", "1,1,0"])
    assert code == 3
    assert "not_in_reeb_cone" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra", [["--lam", "0"], ["--lam", "nan"], ["--lam=-1/2"], ["--samples", "1"]]
)
def test_filtration_rejects_bad_lambda_and_samples(capsys, extra):
    code = main(["filtration", "--model", C2_TORIC, "--v1", "1,2"] + extra)
    assert code == 3
    assert "schema_error" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_minimize_rejects_bad_tol(capsys, tol):
    code = main(["minimize", "--model", C2_TORIC, "--tol", tol])
    assert code == 3
    assert "schema_error" in capsys.readouterr().err


C2_BARE = '{"type":"toric_cone","rays":[[1,0],[0,1]]}'
AKM_22 = '{"type":"akm","n":2,"k":2}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compute", "--model", C2_BARE, "--valuation=1"], "expected 2 weights, got 1"),
        (["compute", "--model", C2_BARE, "--valuation=1,2,3"], "expected 2 weights, got 3"),
        (["filtration", "--model", C2_TORIC, "--v1=1,2,3"], "expected 2 weights, got 3"),
        (["filtration", "--model", C2_TORIC, "--v1=1,2", "--v0=1"], "expected 2 weights, got 1"),
        (["filtration", "--model", AKM_22, "--v1=1,1"], "expected 3 weights, got 2"),
        (["compute", "--model", AKM_22, "--valuation=1,1"], "expected 3 weights, got 2"),
    ],
)
def test_wrong_length_weights_are_model_errors(capsys, argv, message):
    code = main(argv)
    assert code == 3
    assert f"error[model_error]: {message}" in capsys.readouterr().err


def _log_fano(*facets) -> str:
    rows = [{"normal": normal, "offset": offset} for normal, offset in facets]
    return json.dumps({"type": "toric_log_fano", "facets": rows, "r": "1"})


@pytest.mark.parametrize(
    "model, line",
    [
        (
            _log_fano(([1, 0], 0), ([-1, 0], 1), ([1, 0], 2)),
            "error[unbounded_region]: recession direction (0, 1)",
        ),
        (
            _log_fano(([1, 0], 0), ([0, 1], 0), ([1, 1], 1)),
            "error[unbounded_region]: recession direction (0, 1)",
        ),
        (
            _log_fano(([1, 0], -1), ([-1, 0], 0), ([1, 0], 5)),
            "error[empty_region]: no feasible point",
        ),
        # fewer than dim + 1 halfspaces: empty or unbounded by feasibility
        (
            _log_fano(([1, 0], -1), ([-1, 0], 0)),
            "error[empty_region]: no feasible point",
        ),
        (
            _log_fano(([1, 0], 0), ([-1, 0], 1)),
            "error[unbounded_region]: recession direction (0, 1)",
        ),
        (
            _log_fano(([1, 0], 0), ([0, 1], 0)),
            "error[unbounded_region]: recession direction (0, 1)",
        ),
    ],
)
def test_region_errors_name_the_region(capsys, model, line):
    assert main(["compute", "--model", model]) == 3
    assert capsys.readouterr().err == line + "\n"


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports hvol from this checkout."""
    src = str(Path(hvol.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_python_dash_m_runs_the_cli():
    done = _run_python("-m", "hvol", "compute", "--model", C2_TORIC, "--valuation", "1,1")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["results"]["nvol"]["exact"] == "4"


def test_import_does_not_load_numpy():
    # start-up cost: the package runs on the standard library alone
    done = _run_python("-c", "import sys, hvol, hvol.cli; assert 'numpy' not in sys.modules")
    assert done.returncode == 0, done.stderr


def test_parse_model_variants():
    assert isinstance(
        parse_model({"type": "toric_cone", "rays": [[1, 0], [0, 1]]}),
        ToricConeSingularity,
    )
    assert isinstance(
        parse_model({"type": "polarized_cone", "n": 3, "r": "2", "degH": "1/2"}),
        PolarizedConeData,
    )
    hyp = parse_model(
        {"type": "hypersurface", "n": 2, "monomials": [[2, 0, 0], [0, 2, 0], [0, 0, 3]]}
    )
    assert hyp.nvars == 3
    with pytest.raises(SchemaError):
        parse_model({"rays": [[1, 0]]})
    with pytest.raises(SchemaError):
        parse_model({"type": "toric_cone"})
    with pytest.raises(SchemaError):
        parse_group({"type": "cyclic", "r": 3})


def _refused_model(capsys, descriptor: dict) -> None:
    with pytest.raises(SchemaError):
        parse_model(descriptor)
    assert main(["compute", "--model", json.dumps(descriptor), "--valuation", "1,1,1"]) == 3
    assert capsys.readouterr().err.startswith("error[schema_error]: ")


@pytest.mark.parametrize(
    "fields",
    [{"n": "x", "k": 2}, {"n": 2.5, "k": 2}, {"n": 3, "k": "2.5"}, {"n": True, "k": 2}],
)
def test_akm_refuses_non_integer_fields(capsys, fields):
    _refused_model(capsys, {"type": "akm", **fields})


@pytest.mark.parametrize(
    "fields",
    [
        {"n": "2.5", "monomials": A1_MONOMIALS},
        {"n": 2.5, "monomials": A1_MONOMIALS},
        {"n": 2, "monomials": [[2, 0, 0], [0, "y", 0], [0, 0, 2]]},
        {"n": 2, "monomials": [[2, 0, 0], [0, 2.5, 0], [0, 0, 2]]},
        {"n": 2, "monomials": [[2, 0, 0], 5, [0, 0, 2]]},
    ],
)
def test_hypersurface_refuses_non_integer_fields(capsys, fields):
    _refused_model(capsys, {"type": "hypersurface", **fields})


@pytest.mark.parametrize("n", [2.5, "x", "3/2"])
def test_polarized_cone_refuses_a_non_integer_dimension(capsys, n):
    _refused_model(capsys, {"type": "polarized_cone", "n": n, "r": "2", "degH": "1/2"})


@pytest.mark.parametrize("rays", [[[1, 0], [0]], [[1], [0, 1]], [[1, 0], 5], [5, [1, 0]]])
def test_toric_cone_refuses_rays_of_unequal_length(capsys, rays):
    _refused_model(capsys, {"type": "toric_cone", "rays": rays})


_SQUARE_FACETS = [
    {"normal": [1, 0], "offset": 1},
    {"normal": [-1, 0], "offset": 1},
    {"normal": [0, 1], "offset": 1},
    {"normal": [0, -1], "offset": 1},
]


@pytest.mark.parametrize(
    "facets",
    [
        "abc",
        [5] + _SQUARE_FACETS[1:],
        [{"offset": 1}] + _SQUARE_FACETS[1:],
        [{"normal": [1, 0]}] + _SQUARE_FACETS[1:],
        [{"normal": 5, "offset": 1}] + _SQUARE_FACETS[1:],
        [{"normal": "10", "offset": 1}] + _SQUARE_FACETS[1:],
        [{"normal": [1, 0, 0], "offset": 1}] + _SQUARE_FACETS[1:],
        [{"normal": [1], "offset": 1}] + _SQUARE_FACETS[1:],
        [{"normal": [0, 0], "offset": 1}] + _SQUARE_FACETS[1:],
    ],
    ids=[
        "facets a string",
        "facet not an object",
        "no normal",
        "no offset",
        "normal a number",
        "normal a string",
        "normal too long",
        "normal too short",
        "zero normal",
    ],
)
def test_toric_log_fano_refuses_malformed_facets(capsys, facets):
    _refused_model(capsys, {"type": "toric_log_fano", "facets": facets, "r": "1"})
    assert parse_model({"type": "toric_log_fano", "facets": _SQUARE_FACETS, "r": "1"})


def test_integer_fields_accept_integer_strings_and_floats():
    assert parse_model({"type": "akm", "n": "3", "k": 2.0}).nvars == 4
    monomials = [[2, 0, "0"], [0, 2.0, 0], [0, 0, 2]]
    hyp = parse_model({"type": "hypersurface", "n": "2", "monomials": monomials})
    assert hyp.exponents == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    assert parse_model({"type": "polarized_cone", "n": "3", "r": "2", "degH": "1/2"}).n == 3


def test_schema_version_rejected():
    with pytest.raises(SchemaError):
        parse_model({"schema": 2, "type": "akm", "n": 2, "k": 2})


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["compute", "--model", C2_TORIC, "--valuation", "2,3", "--output", str(target)]
    )
    assert code == 0
    report = json.loads(target.read_text())
    assert report["results"]["logdisc"]["exact"] == "5"
