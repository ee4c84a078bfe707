"""The package as the benchmark tracer (hvolbench/tracing.py) sees it: every
function that a per-layer `.calls` metric of BENCHMARK.json names, resolved
as the tracer resolves it, and the fields it reads off a minimize result."""

import importlib
import json
from pathlib import Path

import pytest

from hvol.reeb import minimize_nvol
from hvol.singularities import affine_space

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _call_targets() -> list[str]:
    names = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    return [name[: -len(".calls")] for name in names if name.endswith(".calls")]


@pytest.mark.parametrize("target", _call_targets())
def test_traced_target_is_a_callable_of_the_package(target):
    module_name, *attrs = target.split(".")
    module = importlib.import_module(f"hvol.{module_name}")
    if len(attrs) == 2:  # a method, wrapped where its class defines it
        owner = getattr(module, attrs[0])
        member = owner.__dict__.get(attrs[1])
        assert isinstance(member, classmethod) or callable(member), target
    else:
        assert callable(getattr(module, attrs[0], None)), target


def test_minimize_result_has_the_fields_the_tracer_reads():
    result = minimize_nvol(affine_space(2))
    assert type(result.iterations) is int
    assert type(result.stalled_at_kink) is bool
