"""``perfbench/run.py --trace 1`` looks up every function named in
``perfbench/tracing.LAYERS`` by name; each of them must still exist."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers() -> dict:
    tree = ast.parse(TRACING.read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS"
    )


def test_every_traced_name_resolves():
    layers = _layers()
    assert set(layers) == {"monoid_ring", "scattering", "theta", "cluster_core"}
    for module, names in layers.items():
        mod = importlib.import_module(f"clusterscatter.{module}")
        missing = [n for n in names if not callable(getattr(mod, n, None))]
        assert not missing, f"clusterscatter.{module} lacks {missing}"
