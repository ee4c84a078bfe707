import collections
import csv
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hvol
import hvol.singularities as singularities

from hvol.cli import COMMANDS, Report, main, parse_model
from hvol.commands.quotient import parse_group
from hvol.errors import SchemaError
from hvol.singularities import PolarizedConeData, ToricConeSingularity
from hvol.valuation import simplex_sum


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
    assert build_parser("minimize") is build_parser("minimize")


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


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["minimize", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: hvol minimize")


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


def test_reports_are_byte_identical(capsys):
    argv = ["minimize", "--model", AKM_35, "--seed", "3"]
    first = run_cli(capsys, argv)
    assert first == run_cli(capsys, argv)
    assert first[0] == 0


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


def _log_fano(*facets, r: str = "1") -> str:
    rows = [{"normal": normal, "offset": offset} for normal, offset in facets]
    return json.dumps({"type": "toric_log_fano", "facets": rows, "r": r})


# the triangle x >= -1, y >= -1, x + y <= 1: its barycenter 0 is interior,
# every l_i(0) = 1
_TRIANGLE = (([1, 0], 1), ([0, 1], 1), ([-1, -1], 1))


@pytest.mark.parametrize("r", ["0", "-1"])
def test_toric_log_fano_refuses_a_nonpositive_index(capsys, r):
    assert main(["compute", "--model", _log_fano(*_TRIANGLE, r=r)]) == 3
    assert capsys.readouterr().err == f"error[invalid_index]: r = {r} is not positive\n"


C2_PLAIN = '{"type":"toric_cone","rays":[[1,0],[0,1]]}'


@pytest.mark.parametrize(
    "argv, what",
    [
        (["filtration", "--model", C2_PLAIN, "--v0=1,1", "--v1=1,1", "--lam=1e400"], "lambda"),
        (["filtration", "--model", C2_PLAIN, "--v0=1,1", "--v1=1,1", "--lam=1e-400"], "Phi(lambda, s)"),
        (["filtration", "--model", C2_PLAIN, "--v0=1,1", "--v1=1e400,1"], "logdisc_v1"),
        (["filtration", "--model", '{"type":"akm","n":2,"k":3}', "--v1=1e400,1,1"], "logdisc_v1"),
        (["compute", "--model", C2_PLAIN, "--valuation=1e400,1"], "logdisc"),
        (["compute", "--model", C2_PLAIN, "--valuation=1e-400,1"], "volume"),
    ],
    ids=["huge lambda", "tiny lambda", "huge v1", "huge akm v1", "huge valuation", "tiny valuation"],
)
def test_values_beyond_the_float_range_are_refused(capsys, argv, what):
    # the exact value exists, but its float approximation does not
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == f"error[precondition_violated]: {what} is too large in magnitude for a float\n"


@pytest.mark.parametrize("r", ["1", "2"])
def test_values_beyond_the_digit_limit_are_refused(capsys, r):
    # (-K - D)^n = r^n (2001/2000)^n degH: a rational whose numerator has
    # more digits than Python prints; at r = 1 its float is about e
    model = json.dumps({"type": "polarized_cone", "n": 2000, "r": r, "degH": "1"})
    assert main(["compute", "--model", model]) == 3
    assert capsys.readouterr() == (
        "",
        "error[precondition_violated]: antilog_power has too many digits for an exact report\n",
    )


def test_toric_log_fano_accepts_a_positive_index_below_one(capsys):
    assert main(["compute", "--model", _log_fano(*_TRIANGLE, r="1/2")]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["gammas"] == ["1/2", "1/2", "1/2"]
    assert results["beta_n"]["exact"] == "1/6"


def test_log_fano_texts_beyond_the_digit_limit_are_refused(capsys):
    # P = [-10^5000, 1]: its barycenter has more digits than Python prints
    model = _log_fano(([1], "1e5000"), ([-1], "1"), r="1e-5000")
    assert main(["compute", "--model", model]) == 3
    assert capsys.readouterr() == (
        "",
        "error[precondition_violated]: p_star has too many digits for an exact report\n",
    )


@pytest.mark.parametrize(
    "facets, r, gammas",
    [
        # the segment [-1, 1] at r = 2: each gamma is 2 l_i(0) = 2
        ((([1], "1"), ([-1], "1")), "2", "('2', '2')"),
        # P = [-10^5000, 1]: its gammas have more digits than Python prints
        ((([1], "1e5000"), ([-1], "1")), "1", "the gammas have too many digits to print"),
    ],
)
def test_angles_above_one_are_refused(capsys, facets, r, gammas):
    assert main(["compute", "--model", _log_fano(*facets, r=r)]) == 3
    assert capsys.readouterr() == (
        "",
        f"error[angle_out_of_range]: some r*l_i(p*) exceeds 1: {gammas}\n",
    )


# a hexagon with rational offsets, whose triangulation has simplices of
# unequal volume
_HEXAGON = (
    ([1, 0], "1"), ([0, 1], "1/2"), ([-1, -1], "1"),
    ([-1, 0], "1"), ([0, -1], "1"), ([1, 1], "3/2"),
)


def test_lifted_centroid_can_fail(capsys, monkeypatch):
    # one barycenter from the cone's simplex sum, the other from the simplices
    # of P: unit weights in the simplex sum break only the first
    model = _log_fano(*_HEXAGON, r="1/2")
    assert main(["compute", "--model", model]) == 0
    capsys.readouterr()

    def unit_weights(generators, simplices, z):
        return simplex_sum(generators, [(1, s) for _, s in simplices], z)

    monkeypatch.setattr(singularities, "simplex_sum", unit_weights)
    assert main(["compute", "--model", model]) == 2
    checks = {c["name"]: c["pass"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["lifted_centroid"] is False


POLARIZED = '{"type":"polarized_cone","n":3,"r":1,"degH":9}'


@pytest.mark.parametrize(
    "argv, same_as",
    [
        (["compute", "--model", POLARIZED, "--valuation", ""], ["compute", "--model", POLARIZED]),
        (["minimize", "--model", C2_BARE, "--init", ""], ["minimize", "--model", C2_BARE]),
        (
            ["filtration", "--model", C2_TORIC, "--v1=1,2", "--v0", ""],
            ["filtration", "--model", C2_TORIC, "--v1=1,2"],
        ),
        (
            ["filtration", "--model", C2_TORIC, "--v1=1,2", "--lam", ""],
            ["filtration", "--model", C2_TORIC, "--v1=1,2", "--lam", "auto"],
        ),
    ],
    ids=["valuation", "init", "v0", "lam is auto"],
)
def test_an_empty_flag_counts_as_absent(capsys, argv, same_as):
    first = (main(argv), *capsys.readouterr())
    assert first == (main(same_as), *capsys.readouterr())


def test_an_empty_filter_runs_every_suite(capsys, monkeypatch):
    from hvol import selftest

    filters = []
    monkeypatch.setattr(selftest, "run_all", lambda name_filter: filters.append(name_filter) or [])
    assert main(["selftest", "--filter", ""]) == 0
    assert filters == [None]
    assert json.loads(capsys.readouterr().out)["inputs"] == {"filter": None}


def _refused_kind(command: str) -> str:
    return f"error[schema_error]: {command} needs a toric_cone, hypersurface or akm model\n"


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["compute", "--model", C2_BARE, "--valuation", ""],
            "error[schema_error]: compute on this model needs --valuation\n",
        ),
        (
            ["filtration", "--model", C2_TORIC, "--v1", ""],
            "error[schema_error]: filtration needs --v1\n",
        ),
        (["minimize", "--model", POLARIZED], _refused_kind("minimize")),
        (["minimize", "--model", _log_fano(*_TRIANGLE)], _refused_kind("minimize")),
        (["filtration", "--model", POLARIZED, "--v1=1,2"], _refused_kind("filtration")),
        (["filtration", "--model", _log_fano(*_TRIANGLE), "--v1=1,2"], _refused_kind("filtration")),
        # two faults: the JSON argument and the weight flags are read first
        (
            ["minimize", "--model", "{bad", "--tol", "0"],
            "error[schema_error]: cannot load model: Expecting property name enclosed in double"
            " quotes: line 1 column 2 (char 1)\n",
        ),
        (
            ["minimize", "--model", C2_BARE, "--init", "1,x", "--tol", "-1"],
            "error[schema_error]: bad rational literal 'x'\n",
        ),
        (
            ["minimize", "--model", C2_BARE, "--max-iter=-3"],
            "error[schema_error]: minimize --max-iter must be a positive integer, not -3\n",
        ),
        (
            ["minimize", "--model", C2_BARE, "--max-iter", "0"],
            "error[schema_error]: minimize --max-iter must be a positive integer, not 0\n",
        ),
        # an empty entry in a weight flag, not a shorter weight vector
        (
            ["compute", "--model", C2_BARE, "--valuation", "1,,1"],
            "error[schema_error]: --valuation has an empty entry: '1,,1'\n",
        ),
        (
            ["minimize", "--model", C2_BARE, "--init=,"],
            "error[schema_error]: --init has an empty entry: ','\n",
        ),
        (
            ["filtration", "--model", C2_TORIC, "--v1=1,2,"],
            "error[schema_error]: --v1 has an empty entry: '1,2,'\n",
        ),
        # an entry whose text exceeds Python's digit limit, refused before
        # the report echoes it
        (
            ["minimize", "--model", C2_BARE, "--init=1e5000,1"],
            "error[schema_error]: --init has an entry with too many digits: '1e5000,1'\n",
        ),
        # usage errors are schema errors (exit 3), not argparse's exit 2
        (
            ["minimize"],
            "error[schema_error]: hvol minimize: the following arguments are required: --model\n",
        ),
        (
            ["minimize", "--model", C2_BARE, "--max-iter", "abc"],
            "error[schema_error]: hvol minimize: argument --max-iter: invalid int value: 'abc'\n",
        ),
        (
            ["bogus"],
            "error[schema_error]: hvol: argument command: invalid choice: 'bogus' (choose from"
            " 'compute', 'minimize', 'quotient', 'filtration', 'selftest')\n",
        ),
        ([], "error[schema_error]: hvol: the following arguments are required: command\n"),
        (
            ["minimize", "--model", C2_BARE, "--bogus"],
            "error[schema_error]: hvol: unrecognized arguments: --bogus\n",
        ),
    ],
)
def test_refusals_are_pinned(capsys, argv, line):
    assert main(argv) == 3
    assert capsys.readouterr() == ("", line)


@pytest.mark.parametrize("init", ["1e300,1", "1,1e-300", "1e-300,1", "1e30,1", "1e16,1"])
def test_minimize_from_a_start_near_the_reeb_cone_boundary(capsys, init):
    # a start this close to the boundary breaks or strands the float Newton
    # run, which then runs again from the default start
    code, out = run_cli(capsys, ["minimize", "--model", C2_BARE, f"--init={init}"])
    assert code == 0
    _, plain = run_cli(capsys, ["minimize", "--model", C2_BARE])
    assert json.loads(out)["results"] == json.loads(plain)["results"]


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


def _toric(rays) -> str:
    return json.dumps({"type": "toric_cone", "rays": rays})


@pytest.mark.parametrize(
    "argv, line",
    [
        # exact vectors print as (a, b/c, ...), not as Fraction reprs
        (
            ["compute", "--model", C2_BARE, "--valuation", "1,-1"],
            "error[not_in_reeb_cone]: (1, -1) pairs nonpositively with weight generator (0, 1)",
        ),
        (
            ["filtration", "--model", C2_BARE, "--v0", "1,1", "--v1", "1,-1"],
            "error[not_in_reeb_cone]: (1, -1) is not in the Reeb cone",
        ),
        # a cone that is not pointed, and a zero ray, are refused as such
        (
            ["compute", "--model", _toric([[1, 0], [-1, 0], [0, 1]]), "--valuation", "1,1"],
            "error[not_full_dimensional]: dual cone is not full-dimensional (input not pointed)",
        ),
        (
            ["compute", "--model", _toric([[1, 0], [0, 0], [0, 1]]), "--valuation", "1,1"],
            "error[model_error]: ray (0, 0) is zero",
        ),
    ],
)
def test_toric_cone_refusals_are_pinned(capsys, argv, line):
    assert main(argv) == 3
    assert capsys.readouterr() == ("", line + "\n")


def test_selftest_prints_exact_vectors_without_fraction_reprs(capsys):
    code, out = run_cli(capsys, ["selftest", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) > 400
    assert not [row for row in rows if "Fraction(" in row["lhs"] + row["rhs"]]


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


def test_import_does_not_load_dataclasses():
    # start-up cost: `dataclasses` brings `inspect` with it, and each
    # decorated class compiles its methods through exec
    code = (
        "import sys, hvol, hvol.cli, hvol.selftest; "
        "loaded = {'dataclasses', 'inspect'} & set(sys.modules); assert not loaded, loaded"
    )
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr


def test_import_does_not_load_the_selftest():
    # start-up cost: only `hvol selftest` needs the self-test suites
    done = _run_python("-c", "import sys, hvol.cli; assert 'hvol.selftest' not in sys.modules")
    assert done.returncode == 0, done.stderr


def test_a_command_loads_only_its_own_module():
    # start-up cost: each command's code is compiled only when it runs
    code = (
        "import sys, hvol.cli; "
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('hvol.commands.')); "
        "assert loaded() == [], loaded(); "
        f"assert hvol.cli.main(['minimize', '--model', {C2_TORIC!r}]) == 0; "
        "assert loaded() == ['hvol.commands.minimize'], loaded()"
    )
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr


_FLAGS = {
    "compute": ("--model", "--valuation"),
    "minimize": ("--model", "--init", "--tol", "--max-iter", "--seed"),
    "quotient": ("--group", "--samples"),
    "filtration": ("--model", "--v1", "--v0", "--lam", "--samples"),
    "selftest": ("--filter",),
}


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert list(COMMANDS) == list(_FLAGS)
    for name, text in COMMANDS.items():
        assert re.search(rf"^ +{name} +{re.escape(text)}$", out, re.MULTILINE), name


@pytest.mark.parametrize("command", list(_FLAGS))
def test_command_help_names_its_own_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: hvol {command} ")
    own = set(_FLAGS[command]) | {"--output", "--format", "--timing"}
    others = {flag for flags in _FLAGS.values() for flag in flags} - own
    assert all(flag in out for flag in own)
    assert not [flag for flag in others if flag in out]


def test_import_leaves_the_polytope_layer_to_the_selftest():
    # start-up cost: the Fraction polytope layer is the self-test's witness
    code = (
        "import sys, hvol.cli, hvol.exactgeom as e; "
        "names = {'Halfspace', 'Polytope', 'vertex_enumerate', 'polytope_volume', "
        "'centroid', 'cut_cone'} & set(vars(e)); "
        "assert not names, names; assert 'hvol.selftest' not in sys.modules"
    )
    done = _run_python("-c", code)
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
    assert hyp.monomials == ((2, 0, 0), (0, 2, 0), (0, 0, 2))
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


def test_output_to_an_unwritable_path_is_a_schema_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = main(["compute", "--model", C2_TORIC, "--valuation", "1,1", "--output", str(target)])
    assert code == 3
    assert capsys.readouterr() == (
        "",
        f"error[schema_error]: cannot write report: [Errno 2] No such file or directory: '{target}'\n",
    )


def _jsonable_reference(obj):
    """The report payload as the json module's encoder is given it: every
    Fraction its "p/q" string, every float its 17-digit string."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return f"{obj:.17g}"
    if isinstance(obj, dict):
        return {k: _jsonable_reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable_reference(v) for v in obj]
    return obj


_TEXT = "az_09 \"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u03bd\u2028\U0001f600"


def _random_payload(rng: random.Random, depth: int):
    kind = rng.randrange(12 if depth else 9)
    if kind == 0:
        return "".join(rng.choice(_TEXT) for _ in range(rng.randint(0, 8)))
    if kind == 1:
        return rng.choice([True, False, None, 1, 0])
    if kind == 2:
        return rng.randint(-(10**30), 10**30)
    if kind == 3:
        return Fraction(rng.randint(-(10**20), 10**20), rng.randint(1, 10**9))
    if kind == 4:
        return rng.choice([0.0, -0.0, 0.1, 1e300, -2.5e-310, float("inf"), float("nan")])
    if kind == 5:
        return rng.choice([{}, [], ()])
    if kind in (6, 7, 8):
        return rng.random() * 10 ** rng.randint(-5, 5)
    items = [_random_payload(rng, depth - 1) for _ in range(rng.randint(1, 5))]
    if kind == 9:
        return tuple(items)
    if kind == 10:
        return items
    keys = ["".join(rng.choice(_TEXT) for _ in range(rng.randint(0, 4))) for _ in items]
    return dict(zip(keys, items))


def test_report_text_matches_the_json_module():
    # one recursive pass writes what json.dumps(sort_keys=True, indent=2)
    # writes for the payload with Fractions and floats made strings
    rng = random.Random(1602)
    for _ in range(300):
        parts = [_random_payload(rng, 4) for _ in range(3)]
        report = Report("compute", *parts)
        report.timing = rng.random()
        payload = {"schema": 1, "command": "compute", "inputs": parts[0], "results": parts[1]}
        payload["checks"] = parts[2]
        expected = json.dumps(_jsonable_reference(payload), sort_keys=True, indent=2)
        assert report.to_json() == expected
        payload["timing"] = {"seconds_approx": report.timing}
        expected = json.dumps(_jsonable_reference(payload), sort_keys=True, indent=2)
        assert report.to_json(include_timing=True) == expected


def test_report_text_of_subclasses_matches_the_json_module():
    # subclasses of the JSON types are written as their base types
    point = collections.namedtuple("Point", "x y")
    label = type("Label", (str,), {})
    parts = (
        {"p": point(Fraction(1, 2), label("a")), "d": collections.OrderedDict(b=True, a=[point(1, 2)])},
        {"k": label("\u00e9")},
        [point([], {})],
    )
    payload = {"schema": 1, "command": "compute", "inputs": parts[0], "results": parts[1]}
    payload["checks"] = parts[2]
    expected = json.dumps(_jsonable_reference(payload), sort_keys=True, indent=2)
    assert Report("compute", *parts).to_json() == expected
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        Report("compute", {"x": {1}}, {}, []).to_json()
