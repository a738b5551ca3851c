"""``perfbench/run.py --trace 1`` looks up every function named in
``perfbench/tracing.LAYERS`` by name, and the workloads read the library
through module aliases; each name they read must still exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

from clusterscatter import cluster_core, monoid_ring

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


def test_the_tracer_rebinds_the_pull_backs_product_and_restores_it():
    """``cluster_core`` holds its own binding of ``series_mul``, which the
    pull-back calls for every positive level: a traced run wraps it, gives
    the same chart variables, and ``restore`` puts the original back."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = monoid_ring.series_mul
    s0 = cluster_core.initial_seed(cluster_core.FixedData(((0, -2), (2, 0)), (1, 1), (2, 2)))
    want = cluster_core.chart_variables(s0, (1, 2, 1))
    tracer = tracing.Tracer().install()
    try:
        assert cluster_core.series_mul.__wrapped__ is original
        assert cluster_core.chart_variables(s0, (1, 2, 1)) == want
    finally:
        tracer.restore()
    assert cluster_core.series_mul is original
