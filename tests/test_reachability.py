"""Every public function and method of the package, and every private
module-level function, is reached by a command-line run or a demo, or is
listed in ``ALLOW`` with the reason it is kept.  Code that only tests call
fails here, and so does a helper that nothing calls any more: delete it, or
give it a route.

The runs are profiled in-process: the README commands of
``test_cli_transcript``, the seed commands on the Kronecker fixture, and the
four demos.  A function counts as reached when the profiler saw its code
object called.
"""

import contextlib
import cProfile
import importlib
import inspect
import io
import runpy
import shlex
import shutil
from pathlib import Path

from click.testing import CliRunner

import clusterscatter
from clusterscatter import scattering
from clusterscatter.cli import cli
from test_cli_transcript import COMMANDS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(clusterscatter.__file__).parent
DEMOS = ["mutation_hexagon", "diagram_completion", "diagram_mutation", "broken_lines"]
KRONECKER = [
    "mutate --seed kronecker.json 121",
    "scatter --seed kronecker.json --order 6",
    "scatter-check --seed kronecker.json",
    "scatter-mutate --seed kronecker.json --k 2",
    "theta --seed kronecker.json --m -1,0",
]

_ORACLE = "oracle of diagrams_equivalent in TestEquivalenceOracle, through tests/oracles.py"

ALLOW = {
    "scattering.path_ordered_product": _ORACLE + "; traced by perfbench/tracing.LAYERS",
    "scattering._turn": "serves path_ordered_product, the " + _ORACLE,
    "monoid_ring.wall_cross": "reference form of `_Factor`: the oracle of the crossing kernel and the two loops over it; traced by perfbench/tracing.LAYERS",
    "monoid_ring.series_log": (
        "oracle of the defect reader `scattering._defect_derivation` in tests/test_completion.py; "
        "looked up by name by perfbench/tracing.LAYERS (--trace 1) and tests/test_tracer_layers.py"
    ),
    "monoid_ring.LaurentSeries.is_one": (
        "serves the oracles wall_cross and series_log (their constant-term check); "
        "perfbench workloads.theta_check reads it on theta_via_transport's denominator"
    ),
    "monoid_ring._tight_bound": "the overflow guard: re-derives a slot bound only when the carried one exceeds the slot limit",
    "cli.main": "the console entry point",
}

# dunders that only implicit conversions call, so that code nothing converts shows up here
_CONVERSIONS = ("__str__", "__bool__")


def _public_functions() -> dict:
    """Qualified name -> code object of every module-level function that is
    public or has a single leading underscore, and of every public method,
    property getter and ``_CONVERSIONS`` dunder of a public class, defined in
    the package's top-level modules."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"clusterscatter.{path.stem}")
        for name, obj in vars(mod).items():
            if name.startswith("__") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{path.stem}.{name}"] = obj.__code__
            elif inspect.isclass(obj) and not name.startswith("_"):
                for attr, member in vars(obj).items():
                    fn = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
                    if (not attr.startswith("_") or attr in _CONVERSIONS) and inspect.isfunction(fn):
                        out[f"{path.stem}.{name}.{attr}"] = fn.__code__
    return out


def _reached() -> set:
    runner = CliRunner()
    prof = cProfile.Profile(subcalls=False, builtins=False)
    # start from an empty frame memo, as a fresh process does
    scattering._frame_of.cache_clear()
    with runner.isolated_filesystem():
        prof.enable()
        try:
            for args in [a for a, _ in COMMANDS] + KRONECKER:
                res = runner.invoke(cli, shlex.split(args))
                assert res.exception is None or isinstance(res.exception, SystemExit), args
            for demo in DEMOS:
                # a copy, so that the picture a demo writes lands in the temporary directory
                script = shutil.copy(ROOT / "demos" / f"{demo}.py", ".")
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(script, run_name="__main__")
        finally:
            prof.disable()
    return {entry.code for entry in prof.getstats()}


def test_every_public_function_is_reached_or_allowed():
    public = _public_functions()
    assert set(ALLOW) <= set(public), f"ALLOW names what does not exist: {sorted(set(ALLOW) - set(public))}"
    reached = _reached()
    unreached = {name for name, code in public.items() if code not in reached}
    assert unreached - set(ALLOW) == set(), "reached by no command or demo, and not in ALLOW"
    assert set(ALLOW) - unreached == set(), "reached after all: drop from ALLOW"
