"""Span tracer that rebinds the library's public functions from outside.

``Tracer.install`` replaces each function listed in ``LAYERS`` (and the
``verify`` suites and command) by a wrapper, in every ``clusterscatter``
module that holds a reference to it.  A wrapper records one span per call:
name, parent span, start and end.  Spans stay in memory; ``summary``
derives call counts, self time and inclusive time from them, and ``write``
stores them at the end of a run.  ``restore`` puts every original object
back where it was found.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = {
    "monoid_ring": (
        "series_mul",
        "series_pow",
        "wall_cross",
        "series_log",
        "series_unit_inverse",
        "series_exact_div",
    ),
    "scattering": (
        "build_initial",
        "complete_rank2",
        "check_consistency",
        "path_ordered_product",
        "tk_transform",
        "tk_invariance_check",
        "cluster_chamber_walls",
        "diagrams_equivalent",
    ),
    "theta": ("theta", "enumerate_broken_lines", "theta_via_transport"),
    "cluster_core": (
        "seed_mutate",
        "pattern_walk",
        "chart_variables",
        "explore_pattern",
        "rational",
    ),
}

# Modules imported before installing, so that every holder of a listed
# function is in sys.modules when the tracer looks for it.
_HOLDERS = (
    "clusterscatter",
    "clusterscatter._verify",
    "clusterscatter.cli",
    "clusterscatter.fixtures.generate",
)


def _library_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if name == "clusterscatter" or name.startswith("clusterscatter.")
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 when no enclosing span has the same name
        self.counts: Counter = Counter()
        self.drew: set[int] = set()  # theta spans that drew their own endpoint
        self._stack = [-1]
        # (holder, attribute or key, original object, is dict item)
        self._patches: list[tuple[object, object, object, bool]] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, qualname: str, fn, after=None):
        """A wrapper of ``fn`` recording spans named ``qualname``; ``after``
        is called as ``after(span, args, kwargs, result)`` on success."""
        nid = len(self.names)
        self.names.append(qualname)
        name, parent, start, end, outer = self.name, self.parent, self.start, self.end, self.outer
        stack = self._stack
        active = [0]

        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            outer.append(active[0] == 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            active[0] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                active[0] -= 1
                stack.pop()
            if after is not None:
                after(i, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, original, replacement) -> None:
        for mod in _library_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original, False))
                    setattr(mod, attr, replacement)

    def install(self) -> "Tracer":
        for name in _HOLDERS:
            importlib.import_module(name)
        hooks = self._hooks()
        for layer, functions in LAYERS.items():
            home = sys.modules[f"clusterscatter.{layer}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                qualname = f"{layer}.{fn_name}"
                self._rebind(original, self.wrap(qualname, original, hooks.get(qualname)))
        verify = sys.modules["clusterscatter._verify"]
        for key, original in list(verify.SUITES.items()):
            wrapped = self.wrap(f"verify.suite.{key}", original)
            self._rebind(original, wrapped)
            self._patches.append((verify.SUITES, key, original, True))
            verify.SUITES[key] = wrapped
        command = sys.modules["clusterscatter.cli"].verify
        self._patches.append((command, "callback", command.callback, False))
        command.callback = self.wrap("cli.verify", command.callback)
        return self

    def restore(self) -> None:
        for holder, key, original, is_item in reversed(self._patches):
            if is_item:
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    def _hooks(self) -> dict:
        counts = self.counts

        def term_pairs(i, args, kwargs, out):
            counts["monoid_ring.series_mul.term_pairs"] += len(args[0]) * len(args[1])

        def exact(i, args, kwargs, out):
            counts["exact_found"] += out is not None

        def atoms(i, args, kwargs, out):
            counts["scattering.complete_rank2.atoms_out"] += sum(len(w.factors) for w in out.walls)

        def lines(i, args, kwargs, out):
            counts["theta.lines_found"] += len(out)

        def drew(i, args, kwargs, out):
            q = kwargs["Q"] if "Q" in kwargs else (args[3] if len(args) > 3 else None)
            p0 = args[1] if len(args) > 1 else kwargs["p0"]
            if q is None and any(p0):
                self.drew.add(i)

        return {
            "monoid_ring.series_mul": term_pairs,
            "monoid_ring.series_exact_div": exact,
            "scattering.complete_rank2": atoms,
            "theta.enumerate_broken_lines": lines,
            "theta.theta": drew,
        }

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per wrapped name: ``.calls``, ``.self_s`` (span minus its child
        spans) and ``.s`` (outermost spans only, so recursion counts once),
        plus the counters the hooks kept and the theta endpoint ratio."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: dict[str, float] = {}
        for qualname in self.names:
            out[f"{qualname}.calls"] = 0
            out[f"{qualname}.self_s"] = 0.0
            out[f"{qualname}.s"] = 0.0
        names = self.names
        enum_for_drawn = 0
        for i in range(n):
            q = names[self.name[i]]
            dur = end[i] - start[i]
            out[f"{q}.calls"] += 1
            out[f"{q}.self_s"] += dur - child[i]
            if self.outer[i]:
                out[f"{q}.s"] += dur
            if q == "theta.enumerate_broken_lines" and parent[i] in self.drew:
                enum_for_drawn += 1
        out.update(self.counts)
        calls = out["monoid_ring.series_exact_div.calls"]
        out["monoid_ring.series_exact_div.exact_ratio"] = (
            out.pop("exact_found", 0) / calls if calls else 0.0
        )
        out["theta.endpoint_ratio"] = len(self.drew) / enum_for_drawn if enum_for_drawn else 0.0
        return out

    def write(self, path) -> None:
        """Spans as gzip'd TSV: name, parent index, start, end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tparent\tstart\tend\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{names[self.name[i]]}\t{self.parent[i]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )
