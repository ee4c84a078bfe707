"""Acceptance suite: every shipped verification criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line per individual check (run pytest
with -s to watch them stream) and the stated runtime budgets are enforced.
"""

import functools
import time

import pytest

from hvol import selftest


BUDGETS = {
    # generous wall-clock ceilings where the criteria state one
    "quotient": 1.0,
    "pair_identity": 5.0,
    "akm": 30.0,
    "conjectured": 10.0,
    "oracle": 60.0,
}


@functools.cache
def _timed(suite_name):
    """Run one suite once per session: (results, seconds)."""
    runner = dict(selftest.SUITES)[suite_name]
    start = time.perf_counter()
    results = runner()
    return results, time.perf_counter() - start


def _run(suite_name):
    results, elapsed = _timed(suite_name)
    for r in results:
        status = "PASS" if r["pass"] else "FAIL"
        print(f"[{status}] {r['name']}: lhs={r['lhs']} rhs={r['rhs']} tol={r['tolerance']}")
    failed = [r for r in results if not r["pass"]]
    assert not failed, f"{len(failed)} checks failed in {suite_name}"
    budget = BUDGETS.get(suite_name)
    if budget is not None:
        assert elapsed < budget, f"{suite_name} took {elapsed:.1f}s (budget {budget}s)"
    return results


def test_criterion_01_quotient_min_nvol():
    _run("quotient")


def test_criterion_02_pair_identity():
    _run("pair_identity")


def test_criterion_03_molien_limit():
    _run("molien")


def test_criterion_04_akm_global_minimizers():
    _run("akm")


def test_criterion_05_conjectured_minimizers():
    _run("conjectured")


def test_criterion_07_lattice_oracle():
    _run("oracle")


def test_criterion_08_interpolation_calculus():
    _run("interpolation")


def test_criterion_09_stability_gap():
    _run("gap")


def test_criterion_10_reeb_cone_laws():
    _run("reeb")


def test_criterion_11_toric_log_fano_centroids():
    _run("toric_log_fano")


def test_criterion_12_cone_rays_match_the_minors():
    _run("cone_rays")


def test_full_suite_is_green():
    # reuses the suites the criterion tests above already ran
    results = [r for name, _ in selftest.SUITES for r in _timed(name)[0]]
    assert all(r["pass"] for r in results)
    assert len(results) > 300
