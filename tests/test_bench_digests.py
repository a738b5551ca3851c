"""Every ``complete``, ``mutate`` and ``theta`` entry the benchmark can draw,
including the mutated starting seeds, must reproduce its digest in
``perfbench/reference.json`` byte for byte (the benchmark reads the same
file)."""

import importlib.util
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _check_digests(prefix: str, ops) -> None:
    reference = _load("reference")
    want = json.loads((PERFBENCH / "reference.json").read_text())
    assert {op.key for op in ops} == {k for k in want if k.startswith(prefix)}
    for op in ops:
        assert reference.digest(op.canon(op.call())) == want[op.key], op.key


def test_complete_entries_match_reference_digests():
    ops = _load("workloads").complete_all_ops()
    assert {"complete/b2/o12/w21", "complete/kron/o8/w2"} <= {op.key for op in ops}
    _check_digests("complete/", ops)


def test_mutate_entries_match_reference_digests():
    _check_digests("mutate/", _load("workloads").mutate_all_ops())


def test_theta_entries_match_reference_digests():
    _check_digests("theta/", _load("workloads").theta_all_ops())
