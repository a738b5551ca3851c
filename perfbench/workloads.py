"""The benchmark's workloads: inputs drawn from the workload seed, the timed
operations, and the independent routes their outputs are checked against.

Every library call goes through a module attribute (``sc.complete_rank2``,
not a name imported into this file), so that the tracer's rebinding of the
library modules also reaches the calls made here.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass, field, replace
from typing import Callable

mr = importlib.import_module("clusterscatter.monoid_ring")
cc = importlib.import_module("clusterscatter.cluster_core")
sc = importlib.import_module("clusterscatter.scattering")
th = importlib.import_module("clusterscatter.theta")
fixtures = importlib.import_module("clusterscatter.fixtures")
generate = importlib.import_module("clusterscatter.fixtures.generate")
cli = importlib.import_module("clusterscatter.cli")

G2 = cc.FixedData(((0, -3), (1, 0)), (1, 3), (1, 3))
WILD33 = cc.FixedData(((0, -3), (3, 0)), (1, 1), (1, 1))


@dataclass
class Op:
    """One timed public call.  ``key`` names its input in the reference
    digests; ``canon`` turns its output into the canonical JSON."""

    key: str
    call: Callable[[], object]
    canon: Callable[[object], object]


@dataclass
class Plan:
    """What one set-up produces: the operations of a pass, in order, and
    whatever the reference routes need besides the outputs."""

    ops: list[Op]
    context: dict = field(default_factory=dict)


def group_seeds() -> dict:
    """Coefficient-only seeds in group mode, the input of ``build_initial``.
    The Kronecker and B2 seeds come from the shipped fixtures."""
    out = {}
    for name, fixture in (("kron", "kronecker.json"), ("b2", "b2.json")):
        s = cc.seed_from_json(fixtures.load_fixture(fixture), semifield=False)
        out[name] = replace(s, cluster=None)
    out["g2"] = cc.initial_seed(G2, with_cluster=False, semifield=False)
    out["w33"] = cc.initial_seed(WILD33, with_cluster=False, semifield=False)
    return out


def _word(w) -> str:
    return "".join(str(k) for k in w)


# -- complete -----------------------------------------------------------------

# (seed, order, mutation prefixes the workload seed may start the entry from).
# A pass is kept near 3 s at full machine speed, so that a 10 s run holds
# several.  The prefixes on offer keep each entry's cost within 20% of its
# unmutated seed, so run_s measures the code and not the draw: starting the
# Kronecker seed at order 9 from (1,) costs 2x, and B2 from (1,) 1.4x, so
# those are left out.  G2 is the middle of the seven operations and so sets
# op_p50_s; from (1,) it costs 9% more, so it is never mutated.
LADDER = (
    ("kron", 8, ((), (2,))),
    ("kron", 9, ((), (2,))),
    ("kron", 10, ((),)),
    ("kron", 11, ((), (2,))),
    ("b2", 12, ((), (2, 1))),
    ("g2", 9, ((),)),
    ("w33", 10, ((), (2,))),
)

# Depth at which the cluster chamber walls of a finite-type seed close up.
CHAMBER_DEPTH = {"b2": 6, "g2": 8}


def _complete_op(s, name: str, order: int, prefix) -> Op:
    return Op(
        f"complete/{name}/o{order}/w{_word(prefix)}",
        lambda: sc.complete_rank2(sc.build_initial(s, order)),
        sc.diagram_to_json,
    )


def complete_plan(seed: int) -> Plan:
    """The ladder; seed 0 is unmutated, other seeds draw each prefix."""
    rng = random.Random(seed)
    seeds = group_seeds()
    ops, entries = [], {}
    for name, order, prefixes in LADDER:
        prefix = rng.choice(prefixes) if seed else ()
        s = cc.pattern_walk(seeds[name], prefix)
        op = _complete_op(s, name, order, prefix)
        ops.append(op)
        entries[op.key] = (name, order, prefix, s)
    return Plan(ops, {"entries": entries})


def complete_all_ops() -> list[Op]:
    seeds = group_seeds()
    return [
        _complete_op(cc.pattern_walk(seeds[name], prefix), name, order, prefix)
        for name, order, prefixes in LADDER
        for prefix in prefixes
    ]


def complete_check(plan: Plan, outputs: dict) -> dict[str, str]:
    """Kronecker central wall against the closed form; B2 and G2 against
    their cluster chamber walls.  Only unmutated entries have these routes."""
    bad = {}
    for key, (name, order, prefix, s) in plan.context["entries"].items():
        D = outputs.get(key)
        if D is None or prefix:
            continue
        if name == "kron":
            wall = next(w for w in D.walls if w.ray == (1, -1) and not w.incoming)
            if wall.function(order + 1) != generate.kron_rw_series(order + 1):
                bad[key] = "central wall differs from the closed form"
        elif name in CHAMBER_DEPTH:
            chamber = sc.ScatteringDiagram(
                sc.cluster_chamber_walls(s, CHAMBER_DEPTH[name]), order, seed=s
            )
            if not sc.diagrams_equivalent(D, chamber):
                bad[key] = "walls differ from the cluster chamber walls"
    return bad


# -- theta ----------------------------------------------------------------------

THETA_DIAGRAMS = (("kron", 8), ("b2", 8), ("g2", 6))
BOX = tuple((a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0))


def _theta_op(D, name: str, order: int, g, q_seed: int) -> Op:
    return Op(
        f"theta/{name}/o{order}/g{g[0]},{g[1]}",
        lambda: th.theta(D, g, order, q_seed=q_seed),
        mr.series_to_json,
    )


def theta_diagrams() -> dict:
    seeds = group_seeds()
    return {
        (name, order): sc.complete_rank2(sc.build_initial(seeds[name], order))
        for name, order in THETA_DIAGRAMS
    }


# Endpoint seeds whose first endpoint draw lies on or above the diagonal of
# the positive quadrant (picked with theta._endpoint_draw as it stands when
# the benchmark was added).  The broken-line search costs up to 1.5x as
# much when the endpoint lies near the horizontal axis, so drawing from all
# seeds would make run_s measure the draw; above the diagonal, a pass's
# cost differs by about 5% between endpoints.
Q_SEEDS = (
    847680, 518693, 72690, 930042, 993611, 133674, 996223, 161166,
    338265, 345362, 111345, 616953, 979946, 418478, 829438, 236190,
    973120, 986697, 242803, 464460, 972232, 991806, 286152, 42924,
    480081, 408586, 517941, 112598, 575634, 160607, 179371, 366898,
)


def theta_plan(seed: int) -> Plan:
    """Every exponent of the box on every diagram, in an order and with
    endpoint seeds drawn from the workload seed.  Drawing the exponents
    without replacement until the box is used up keeps a pass's work the
    same for every seed: single exponents differ in cost by 25x."""
    rng = random.Random(seed)
    diagrams = theta_diagrams()
    ops = [
        _theta_op(D, name, order, g, rng.choice(Q_SEEDS))
        for (name, order), D in diagrams.items()
        for g in BOX
    ]
    rng.shuffle(ops)
    return Plan(ops, {"diagrams": diagrams})


def theta_all_ops() -> list[Op]:
    return [
        _theta_op(D, name, order, g, 0)
        for (name, order), D in theta_diagrams().items()
        for g in BOX
    ]


def theta_check(plan: Plan, outputs: dict) -> dict[str, str]:
    """Exponents in a cluster chamber against ``theta_via_transport``."""
    bad = {}
    for (name, order), D in plan.context["diagrams"].items():
        for g in BOX:
            key = f"theta/{name}/o{order}/g{g[0]},{g[1]}"
            got = outputs.get(key)
            if got is None:
                continue
            try:
                tv = th.theta_via_transport(D, g)
            except ValueError:
                continue  # g lies in no cluster chamber
            if not tv.den.is_one() or tv.num.truncate(order) != got:
                bad[key] = "theta differs from the chamber transport"
    return bad


# -- mutate -----------------------------------------------------------------------

MAX_WORD = 6
# Exchange graphs explored, to these depths.  The Kronecker one is infinite.
# With the 24 word operations this makes 27 a pass, and the middle one, which
# sets op_p50_s, is the cheaper walk of length 4, well apart from the
# operations below it.
EXPLORE_DEPTH = {"b2": 10, "g2": 10, "kron": 4}


def _alternating(start: int, length: int) -> tuple[int, ...]:
    return tuple(start if i % 2 == 0 else 3 - start for i in range(length))


def _seeds_json(seeds: dict) -> dict:
    return {_word(w): cc.seed_to_json(s) for w, s in seeds.items()}


def _clusters_json(xs) -> list:
    return [cc.rational_to_json(x) for x in xs]


def _mutate_ops(kron, words, explore: dict) -> list[Op]:
    ops = []
    for w in words:
        ops.append(Op(f"mutate/walk/w{_word(w)}", lambda w=w: cc.pattern_walk(kron, w, {}), cc.seed_to_json))
        ops.append(Op(f"mutate/chart/w{_word(w)}", lambda w=w: cc.chart_variables(kron, w), _clusters_json))
    for name, s in explore.items():
        depth = EXPLORE_DEPTH[name]
        ops.append(
            Op(f"mutate/explore/{name}/d{depth}", lambda s=s, d=depth: cc.explore_pattern(s, d), _seeds_json)
        )
    return ops


def _mutate_inputs():
    kron = cc.seed_from_json(fixtures.load_fixture("kronecker.json"), semifield=True)
    chart = fixtures.load_fixture("b2_chart.json")
    b2 = cc.seed_from_json(chart["seed"], semifield=True)
    return kron, chart, {"b2": b2, "g2": cc.initial_seed(G2), "kron": kron}


def _words() -> list[tuple[int, ...]]:
    """Both reduced words of each length 1..6 (rank 2 has two per length)."""
    return [_alternating(s, n) for n in range(1, MAX_WORD + 1) for s in (1, 2)]


def mutate_plan(seed: int) -> Plan:
    """Every word of ``_words`` walked with a fresh memo and charted, plus
    the B2, G2 and Kronecker exchange graphs, in an order drawn from the
    workload seed.  Drawing one of the two words of each length would make
    the pass's cost depend on the draw: the two differ by up to 20%."""
    rng = random.Random(seed)
    kron, chart, explore = _mutate_inputs()
    words = _words()
    ops = _mutate_ops(kron, words, explore)
    rng.shuffle(ops)
    return Plan(ops, {"words": words, "chart": chart})


def mutate_all_ops() -> list[Op]:
    kron, _, explore = _mutate_inputs()
    return _mutate_ops(kron, _words(), explore)


def mutate_check(plan: Plan, outputs: dict) -> dict[str, str]:
    """Clusters of the walk against the chart variables; the B2 exchange
    graph against the rows of ``b2_chart.json``."""
    bad = {}
    for w in plan.context["words"]:
        walk_key, chart_key = f"mutate/walk/w{_word(w)}", f"mutate/chart/w{_word(w)}"
        walk, chart = outputs.get(walk_key), outputs.get(chart_key)
        if walk is None or chart is None:
            continue
        if _clusters_json(walk.cluster) != _clusters_json(chart):
            bad[walk_key] = bad[chart_key] = "walked cluster differs from the chart variables"
    key = f"mutate/explore/b2/d{EXPLORE_DEPTH['b2']}"
    seeds = outputs.get(key)
    if seeds is not None:
        for row in plan.context["chart"]["rows"]:
            s = seeds.get(tuple(row["word"]))
            if s is None or _clusters_json(s.cluster) != row["vars"] or cc.seed_to_json(s)["coeffs"] != row["coeffs"]:
                bad[key] = f"seed at word {row['word']} differs from b2_chart.json"
                break
    return bad


# -- verify-all -------------------------------------------------------------------


def verify_call():
    """``clusterscatter verify --suite all`` through the click entry point;
    returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.cli.main(["verify", "--suite", "all"], prog_name="clusterscatter", standalone_mode=False)
    return code or 0, out.getvalue()


def _verify_canon(out) -> dict:
    code, stdout = out
    return {"exit": code, "stdout": stdout}


def verify_ops() -> list[Op]:
    return [Op("verify-all", verify_call, _verify_canon)]


def verify_plan(seed: int) -> Plan:
    """The shipped fixtures are the input; the workload seed is unused."""
    return Plan(verify_ops())


def verify_check(plan: Plan, outputs: dict) -> dict[str, str]:
    out = outputs.get("verify-all")
    if out is None:
        return {}
    code, stdout = out
    if code != 0 or not json.loads(stdout)["pass"]:
        return {"verify-all": "verify reported a failing check"}
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    plan: Callable[[int], Plan]
    all_ops: Callable[[], list[Op]]
    check: Callable[[Plan, dict], dict[str, str]]
    seed_used: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("complete", complete_plan, complete_all_ops, complete_check),
        Workload("theta", theta_plan, theta_all_ops, theta_check),
        Workload("mutate", mutate_plan, mutate_all_ops, mutate_check),
        Workload("verify-all", verify_plan, verify_ops, verify_check, seed_used=False),
    )
}
