"""Every ``complete`` entry the benchmark can draw, including the mutated
starting seeds, must reproduce its digest in ``perfbench/reference.json``
byte for byte (the benchmark reads the same file)."""

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


def test_complete_entries_match_reference_digests():
    workloads, reference = _load("workloads"), _load("reference")
    want = json.loads((PERFBENCH / "reference.json").read_text())
    ops = workloads.complete_all_ops()
    keys = {op.key for op in ops}
    assert {"complete/b2/o12/w21", "complete/kron/o8/w2"} <= keys
    assert keys == {k for k in want if k.startswith("complete/")}
    for op in ops:
        assert reference.digest(op.canon(op.call())) == want[op.key], op.key
