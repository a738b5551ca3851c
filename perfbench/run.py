"""Benchmark of the clusterscatter exact engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout, against the library under ``src/``.  The
workload's inputs are drawn from ``--seed``.  Set-up (interpreter start,
importing the library, loading fixtures, drawing the inputs and any
precomputation) is timed in this process and in ``SETUP_SAMPLES - 1`` fresh
child processes; then the operations run in passes until ``--seconds`` have
gone by (at least one pass).  Every timing is scaled to a reference machine
speed by calibration blocks run around it and inside it (``calibrate.py``).
Every output is checked, outside the timed calls, against the digests in
``reference.json``; the first pass's outputs are also checked against the
workload's independent routes.

Standard output ends with two JSON lines: the run's details (seed, pass and
operation counts, raw wall times, the tail percentile, failures,
environment), then the result ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run measures once untraced and once traced, and the
metrics are the per-layer ones.  The exit code is 0 when every output
matched, 1 when some did not, and 2 when the library is missing.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "out"

WORKLOAD_NAMES = ("complete", "theta", "mutate", "verify-all")
# Set-ups per run, each in a fresh interpreter; setup_s is their median.
SETUP_SAMPLES = 5
# Calibration blocks after each set-up.
SETUP_BLOCKS = 3
# Wall seconds between two calibration blocks.
CAL_EVERY_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}

# Functions whose inclusive time differs from their self time, because they
# call other traced functions.
_LEAVES = {"series_mul", "series_exact_div", "build_initial"}


def per_layer_units(layers: dict, suites) -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    out = {}
    for layer, functions in layers.items():
        for fn in functions:
            out[f"{layer}.{fn}.calls"] = "count"
            out[f"{layer}.{fn}.self_s"] = "s"
            if fn not in _LEAVES:
                out[f"{layer}.{fn}.s"] = "s"
    out["monoid_ring.series_mul.term_pairs"] = "count"
    out["monoid_ring.series_exact_div.exact_ratio"] = "ratio"
    out["scattering.complete_rank2.atoms_out"] = "count"
    out["theta.lines_found"] = "count"
    out["theta.endpoint_ratio"] = "ratio"
    for suite in suites:
        out[f"verify.suite.{suite}.s"] = "s"
    out["cli.verify.s"] = "s"
    for layer in layers:
        out[f"layer.{layer}.self_share"] = "ratio"
    out["trace.overhead_ratio"] = "ratio"
    return out


@dataclass
class Measured:
    pass_s: list = field(default_factory=list)  # wall seconds of each pass's calls
    pass_cal_s: list = field(default_factory=list)  # the same, calibrated
    op_s: list = field(default_factory=list)
    op_cal_s: list = field(default_factory=list)
    keys: list = field(default_factory=list)  # per execution
    failures: dict = field(default_factory=dict)  # execution index -> reason
    first: dict = field(default_factory=dict)  # key -> output, first pass only


def measure(ops, seconds: float, ref: dict, calibrate_inside: bool = True) -> Measured:
    """Passes over ``ops`` until ``seconds`` have gone by.  Only the calls
    are timed, less the calibration blocks that ran inside them; digests
    are taken between them.  Each call is scaled by the blocks around it;
    without ``calibrate_inside`` (the traced run, whose spans must not hold
    blocks) blocks run only at the start and end of a pass."""
    m = Measured()
    began = time.perf_counter()
    every = CAL_EVERY_S if calibrate_inside else None
    while True:
        gc.collect()
        keep = not m.first
        spans = []
        with calibrate.Calibrator(every) as cal:
            for op in ops:
                idx = len(m.keys)
                m.keys.append(op.key)
                paused, t = cal.paused_s, time.perf_counter()
                try:
                    out = op.call()
                except Exception as exc:  # every failure is counted, none stops the run
                    m.failures[idx] = f"raised {exc!r}"
                    out = None
                end = time.perf_counter()
                spans.append((t, end))
                m.op_s.append(end - t - (cal.paused_s - paused))
                if idx in m.failures:
                    continue
                if keep:
                    m.first[op.key] = out
                try:
                    got = reference.digest(op.canon(out))
                except Exception as exc:
                    m.failures[idx] = f"canonical JSON raised {exc!r}"
                    continue
                want = ref.get(op.key)
                if got != want:
                    m.failures[idx] = "no reference digest" if want is None else "digest differs from the reference"
                del out
        m.op_cal_s.extend(dt * cal.scale(t, end) for dt, (t, end) in zip(m.op_s[-len(ops):], spans))
        m.pass_s.append(sum(m.op_s[-len(ops):]))
        m.pass_cal_s.append(sum(m.op_cal_s[-len(ops):]))
        if time.perf_counter() - began >= seconds:
            return m


def op_p50(m: Measured) -> float:
    """Median over a pass's operations of each operation's median over the
    passes.  Taking each operation's median first keeps one slow copy of an
    operation from deciding the figure when it sits in the middle."""
    per_op: dict = {}
    for key, s in zip(m.keys, m.op_cal_s):
        per_op.setdefault(key, []).append(s)
    return statistics.median(statistics.median(v) for v in per_op.values())


def op_tail(samples: list) -> dict | None:
    """Highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return {"value": sorted(samples)[rank - 1], "percentile": 100 * rank / n, "samples": n}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def set_up(name: str, seed: int):
    """Import the library and build the workload's inputs.  Returns the
    workload, its plan and the CPU seconds of this process from its start
    to here, calibrated by the median of ``SETUP_BLOCKS`` blocks run just
    after it, so that the CPU time holds no block."""
    sys.path.insert(0, str(SRC))
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name]
    plan = workload.plan(seed)
    setup_cpu = time.process_time()
    blocks = [calibrate.block() for _ in range(SETUP_BLOCKS)]
    return workload, plan, setup_cpu * calibrate.REF_S / statistics.median(blocks)


def child_setups(args, count: int) -> list[float]:
    """Set-up figures of ``count`` fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(count):
        proc = subprocess.run([*cmd, "--setup-only"], capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="print this process's set-up figure and stop")
    args = ap.parse_args(argv)

    if not (SRC / "clusterscatter" / "__init__.py").is_file():
        print(f"run.py: the library is missing: no {SRC / 'clusterscatter'}", file=sys.stderr)
        return 2
    workload, plan, setup_s = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s, *child_setups(args, SETUP_SAMPLES - 1)]
    ref = reference.load()

    runs = [measure(plan.ops, args.seconds, ref)]
    if args.trace:
        tracer = tracing.Tracer().install()
        try:
            runs.append(measure(plan.ops, args.seconds, ref, calibrate_inside=False))
        finally:
            tracer.restore()
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"{workload.name}-seed{args.seed}.spans.tsv.gz")

    try:
        route_failures = workload.check(plan, runs[0].first)
    except Exception as exc:
        route_failures = {op.key: f"reference route raised {exc!r}" for op in plan.ops}
    failures = []
    for m in runs:
        for idx, key in enumerate(m.keys):
            reason = m.failures.get(idx) or route_failures.get(key)
            if reason:
                failures.append({"op": key, "reason": reason})
    attempted = sum(len(m.keys) for m in runs)
    untraced = runs[0]

    if args.trace:
        units = per_layer_units(tracing.LAYERS, importlib.import_module("clusterscatter._verify").SUITES)
        traced = runs[1]
        passes = len(traced.pass_s)
        summary = tracer.summary()
        values = {name: summary.get(name, 0) / (1 if name.endswith("_ratio") else passes) for name in units}
        for layer, functions in tracing.LAYERS.items():
            self_s = sum(summary.get(f"{layer}.{fn}.self_s", 0.0) for fn in functions)
            values[f"layer.{layer}.self_share"] = self_s / sum(traced.pass_s)
        values["trace.overhead_ratio"] = statistics.median(traced.pass_cal_s) / statistics.median(untraced.pass_cal_s)
    else:
        units = END_TO_END
        values = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(untraced.pass_cal_s),
            "op_p50_s": op_p50(untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    details = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_used": workload.seed_used,
        "trace": args.trace,
        "passes": [len(m.pass_s) for m in runs],
        "pass_cal_s": [m.pass_cal_s for m in runs],
        "pass_wall_s": [m.pass_s for m in runs],
        "ops": attempted,
        "op_tail_s": op_tail(untraced.op_cal_s),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "setup_samples_s": setups,
        "src_py_lines": src_lines(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print(json.dumps(details))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
