"""Checks of each job's output against references the program did not make.

Closed forms, from the literature:

* `minimize`: `min_nvol_approx` within 1e-9 relative of n^n for C^n, 4/r for
  C^2/Z_r, 27/|G| for C^3/G, 16 for the conifold, the Gauntlett-Martelli-
  Sparks-Waldram volume of Y^{p,q}, ((n-2)k+2)^n / k^(n-1) for the certified
  A_{k-1} cases and 27/2 for akm(3,5);
* `quotient`: `min_nvol` equal to 4/r;
* `lattice_count_oracle`: n! count / p^n within 5% of the closed-form volume.

`min_nvol_exact` is never a reference: it holds the objective at a snapped
rational point, not the minimum.

Jobs with no closed form (`compute`, the exact fields of `filtration`, and
`minimize` on x^2+y^3+z^4+w^12) are compared against `reference.json`,
recorded from the program by `record.py`: exact fields Fraction-equal,
`min_nvol_approx` within 1e-9 relative.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from geometry import simplicial_toric_volume

REFERENCE_FILE = Path(__file__).with_name("reference.json")
MINIMIZE_REL_TOL = 1e-9
ORACLE_REL_TOL = 0.05


def ypq_nvol(p: int, q: int) -> float:
    """27 Vol(Y^{p,q}) / Vol(S^5), from hep-th/0403002."""
    s = math.sqrt(4 * p * p - 3 * q * q)
    return 27 * q * q * (2 * p + s) / (3 * p * p * (3 * q * q - 2 * p * p + p * s))


def minimize_reference(ref: dict) -> float:
    kind = ref["closed"]
    if kind == "affine":
        return float(ref["n"] ** ref["n"])
    if kind == "cyclic":
        return 4 / ref["r"]
    if kind == "c3_quotient":
        return 27 / ref["order"]
    if kind == "conifold":
        return 16.0
    if kind == "ypq":
        return ypq_nvol(ref["p"], ref["q"])
    if kind == "akm":
        n, k = ref["n"], ref["k"]
        return float(Fraction(((n - 2) * k + 2) ** n, k ** (n - 1)))
    if kind == "akm_conjectured":
        return 13.5
    raise ValueError(f"unknown closed form {kind!r}")


def exact_fields(report: dict) -> dict:
    """Every exact leaf of a report's results, keyed by its path.

    Leaves under a key ending in `_approx`, or named `approx`, are floats and
    are left out.
    """
    out: dict[str, str] = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "approx" or key.endswith("_approx"):
                    continue
                walk(value, f"{path}.{key}")
        else:
            out[path] = json.dumps(node, separators=(",", ":"))

    walk(report["results"], "results")
    return out


def recorded_fields(argv, report: dict) -> dict:
    """What `reference.json` holds for one job."""
    if argv[0] == "minimize":
        return {"results.min_nvol_approx": report["results"]["min_nvol_approx"]}
    return exact_fields(report)


def load_references() -> dict:
    with REFERENCE_FILE.open(encoding="utf-8") as fh:
        return json.load(fh)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def check_output(job, stdout: str, references: dict) -> list[str]:
    """Disagreements between one job's output and its reference; empty if none."""
    if job.kind == "oracle":
        family, model, weights, depth = json.loads(job.call)
        weights = [Fraction(w) for w in weights]
        if family == "toric":
            n, volume = len(model[0]), simplicial_toric_volume(model, weights)
        else:
            n, k = model
            degrees = (2,) * n + (k,)
            volume = min(d * w for d, w in zip(degrees, weights)) / math.prod(weights)
        estimate = math.factorial(n) * int(stdout) / depth**n
        if _rel(estimate, float(volume)) > ORACLE_REL_TOL:
            return [f"oracle estimate {estimate:.6g} vs volume {float(volume):.6g}"]
        return []
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return ["no JSON report"]
    results = report["results"]
    if job.kind == "minimize":
        got = float(results["min_nvol_approx"])
        want = minimize_reference(job.ref)
        if _rel(got, want) > MINIMIZE_REL_TOL:
            return [f"min_nvol_approx {got!r} vs closed form {want!r}"]
        return []
    if job.kind == "quotient":
        want = str(Fraction(4, job.ref["r"]))
        if results.get("min_nvol", {}).get("exact") != want:
            return [f"min_nvol {results.get('min_nvol')} vs 4/r = {want}"]
        return []
    expected = references.get(job.key)
    if expected is None:
        return ["no recorded reference"]
    got = recorded_fields(job.argv, report)
    problems = []
    for path in sorted(set(expected) | set(got)):
        want, have = expected.get(path), got.get(path)
        if path == "results.min_nvol_approx" and want and have:
            if _rel(float(have), float(want)) <= MINIMIZE_REL_TOL:
                continue
        elif want == have:
            continue
        problems.append(f"{path}: {have} vs recorded {want}")
    return problems
