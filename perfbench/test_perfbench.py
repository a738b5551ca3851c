"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibrate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import Op  # noqa: E402


def _result(args: list[str], root: Path = ROOT) -> tuple[int, dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    details, result = proc.stdout.strip().splitlines()[-2:]
    return proc.returncode, json.loads(details), json.loads(result)


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, details, result = _result(
            ["--workload", "verify-all", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
        )
        assert code == 0 and result["correct"] and result["failed"] == 0
        assert details["seed"] == 3 and details["seed_used"] is False
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[section]}
    assert result["metrics"]["cli.verify.s"]["value"] > 0
    assert result["metrics"]["scattering.tk_invariance_check.calls"]["value"] > 0


def _bindings() -> dict:
    """Every attribute of every library module, the verify suites and the
    verify command's callback."""
    out = {}
    for mod in tracing._library_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
    verify = sys.modules["clusterscatter._verify"]
    for key, fn in verify.SUITES.items():
        out[("SUITES", key)] = fn
    out[("cli.verify", "callback")] = sys.modules["clusterscatter.cli"].verify.callback
    return out


def _small_ops() -> list[Op]:
    seeds = wl.group_seeds()
    D = wl.sc.complete_rank2(wl.sc.build_initial(seeds["b2"], 5))
    kron, _, explore = wl._mutate_inputs()
    ops = [wl._complete_op(wl.cc.pattern_walk(seeds["b2"], (2, 1)), "b2", 5, (2, 1))]
    ops += [wl._theta_op(D, "b2", 5, g, q) for g, q in (((-1, 0), 0), ((2, -3), 7), ((1, 1), 3))]
    ops += wl._mutate_ops(kron, [(1, 2, 1)], {"b2": explore["b2"]})
    return ops


def _digests(ops) -> list[str]:
    return [reference.digest(op.canon(op.call())) for op in ops]


def _bound(holder, key, is_item):
    return holder[key] if is_item else getattr(holder, key)


def test_traced_run_leaves_every_binding_as_found():
    for name in tracing._HOLDERS:
        importlib.import_module(name)
    before = _bindings()
    tracer = tracing.Tracer().install()
    replaced = list(tracer._patches)
    holders = {(getattr(h, "__name__", None), k) for h, k, _, _ in replaced}
    assert ("clusterscatter.monoid_ring", "series_mul") in holders
    assert ("clusterscatter.scattering", "series_mul") in holders
    assert ("clusterscatter._verify", "complete_rank2") in holders
    assert all(_bound(h, k, item) is not original for h, k, original, item in replaced)
    _digests(_small_ops())
    tracer.restore()
    assert all(_bound(h, k, item) is original for h, k, original, item in replaced)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_and_untraced_digests_agree():
    ops = _small_ops()
    plain = _digests(ops)
    tracer = tracing.Tracer().install()
    try:
        traced = _digests(ops)
    finally:
        tracer.restore()
    assert traced == plain
    summary = tracer.summary()
    assert summary["scattering.complete_rank2.calls"] == 1
    assert summary["theta.theta.calls"] == 3
    assert summary["theta.endpoint_ratio"] > 0
    assert summary["monoid_ring.series_mul.term_pairs"] > 0
    assert summary["cluster_core.pattern_walk.calls"] == 1
    total = summary["scattering.complete_rank2.s"]
    assert 0 < summary["scattering.complete_rank2.self_s"] < total


def test_corrupted_reference_fails_the_run(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench / path.name)
    corrupted = reference.load()
    corrupted["verify-all"] = "0" * 64
    (bench / "reference.json").write_text(json.dumps(corrupted))
    (tmp_path / "src").symlink_to(ROOT / "src")
    code, details, result = _result(
        ["--workload", "verify-all", "--seed", "0", "--seconds", "0", "--trace", "0"], tmp_path
    )
    assert code != 0
    assert details["fail_ratio"] > 0
    assert result["correct"] is False and result["failed"] == result["attempted"] == 1


def test_reference_covers_default_and_held_out_seeds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.WORKLOAD_NAMES == tuple(wl.WORKLOADS) == tuple(w["name"] for w in spec["workloads"])
    ref = reference.load()
    for name in ("complete", "mutate"):
        for seed in (0, 987654):
            keys = [op.key for op in wl.WORKLOADS[name].plan(seed).ops]
            assert keys and all(k in ref for k in keys), (name, seed)
    assert len(wl.complete_plan(0).ops) == len(wl.LADDER)
    assert all(k.endswith("/w") for k in (op.key for op in wl.complete_plan(0).ops))
    all_keys = {op.key for w in wl.WORKLOADS.values() if w.name != "theta" for op in w.all_ops()}
    theta_keys = {f"theta/{n}/o{o}/g{a},{b}" for n, o in wl.THETA_DIAGRAMS for a, b in wl.BOX}
    assert set(ref) == all_keys | theta_keys


def test_op_tail_needs_eleven_samples():
    assert run.op_tail([1.0] * 10) is None
    tail = run.op_tail([float(i) for i in range(1, 21)])
    assert tail == {"value": 10.0, "percentile": 50.0, "samples": 20}


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_calibration_blocks_inside_a_call_are_not_timed(monkeypatch):
    def work():
        total = 0
        for i in range(5_000_000):
            total += i * i % 7
        return total

    t = time.perf_counter()
    work()
    alone = time.perf_counter() - t
    # Blocks of 0.1 s every 0.25 s would add about 40% to the call.
    monkeypatch.setattr(calibrate, "block", lambda: _spin(0.1) or 0.1)
    op = Op("work", work, lambda out: None)
    t = time.perf_counter()
    m = run.measure([op], 0, {"work": reference.digest(None)})
    wall = time.perf_counter() - t
    assert wall > 0.8 * alone + 0.3  # a block ran inside the call, besides the two around it
    assert not m.failures and len(m.op_s) == len(m.op_cal_s) == 1
    assert 0.8 * alone < m.op_s[0] < 1.2 * alone
    assert m.op_cal_s[0] == pytest.approx(m.op_s[0] * calibrate.REF_S / 0.1)


def test_scale_uses_the_blocks_around_and_inside_a_call():
    cal = calibrate.Calibrator()
    cal.blocks = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 5.0)]
    assert cal.scale(1.5, 2.5) == calibrate.REF_S / 3.0  # blocks at 1, 2 and 3
    assert cal.scale(-1.0, 0.5) == calibrate.REF_S / 1.5  # blocks at 0 and 1
    assert cal.scale(3.5, 9.0) == calibrate.REF_S / 4.5  # blocks at 3 and 4


def test_op_p50_takes_each_operations_median_first():
    m = run.Measured(keys=["a", "b", "c"] * 3, op_cal_s=[1, 5, 9, 1, 50, 9, 1, 6, 900])
    assert run.op_p50(m) == 6
