"""``perfbench/run.py --trace 1`` looks up every function named in
``perfbench/tracing.LAYERS`` by name, and the workloads read the library
through module aliases; each name they read must still exist."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _library_module(node) -> str | None:
    """The ``clusterscatter`` module named by an ``importlib.import_module``
    call with a literal argument, or None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "import_module"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).split(".")[0] == "clusterscatter"
    ):
        return node.args[0].value
    return None


def test_every_name_the_benchmark_reads_resolves():
    """Each attribute read off a ``clusterscatter`` module in
    ``perfbench/*.py``, through an alias bound by
    ``importlib.import_module("clusterscatter...")`` or on the call itself,
    exists on that module."""
    read = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {
            node.targets[0].id: _library_module(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and _library_module(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                owner = node.value
                module = aliases.get(owner.id) if isinstance(owner, ast.Name) else _library_module(owner)
                if module:
                    read.add((path.name, module, node.attr))
    assert {"scattering", "theta", "cluster_core"} <= {m.split(".")[-1] for _, m, _ in read}
    missing = [r for r in sorted(read) if not hasattr(importlib.import_module(r[1]), r[2])]
    assert not missing, f"perfbench reads names the library lacks: {missing}"
