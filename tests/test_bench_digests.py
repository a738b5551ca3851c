"""Every ``complete``, ``mutate`` and ``theta`` entry the benchmark can draw,
including the mutated starting seeds, must reproduce its digest in
``perfbench/reference.json`` byte for byte (the benchmark reads the same
file), and the outputs of each workload's unmutated plan must pass the
benchmark's own independent routes (its ``check``)."""

import importlib.util
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def _all_outputs(name: str) -> dict:
    """The output of every entry of a workload, by key."""
    return {op.key: op.call() for op in _load("workloads").WORKLOADS[name].all_ops()}


def _check_digests(name: str, prefix: str) -> None:
    reference = _load("reference")
    want = json.loads((PERFBENCH / "reference.json").read_text())
    ops, outputs = _load("workloads").WORKLOADS[name].all_ops(), _all_outputs(name)
    assert {op.key for op in ops} == {k for k in want if k.startswith(prefix)}
    for op in ops:
        assert reference.digest(op.canon(outputs[op.key])) == want[op.key], op.key


def test_complete_entries_match_reference_digests():
    assert {"complete/b2/o12/w21", "complete/kron/o8/w2"} <= _all_outputs("complete").keys()
    _check_digests("complete", "complete/")


def test_mutate_entries_match_reference_digests():
    _check_digests("mutate", "mutate/")


def test_theta_entries_match_reference_digests():
    _check_digests("theta", "theta/")


@pytest.mark.parametrize("name", ["complete", "theta", "mutate", "verify-all"])
def test_plan_outputs_pass_the_benchmark_routes(name):
    """What the benchmark checks a run's first pass against, on the plan of
    workload seed 0.  Its entries are among those the digests cover; a theta
    entry's endpoint seed changes where its lines end, not its sum."""
    workload = _load("workloads").WORKLOADS[name]
    plan, outputs = workload.plan(0), _all_outputs(name)
    assert {op.key for op in plan.ops} <= outputs.keys()
    assert workload.check(plan, outputs) == {}
