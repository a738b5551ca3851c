"""Reference verification suites behind the ``verify`` command.

Each suite recomputes results from the shipped fixture seeds and compares
them against the fixture files or against an independent second route.  The
suites are fixed: orders and depths are constants of each suite, so the JSON
report of ``verify`` is itself the reference.  Checks are (name, passed,
first counterexample or None).

The suites of one ``run_suite`` call share completions through that call's
memo, which maps each seed to its deepest completion so far
(``scattering._completed``): a seed is completed once, at the deepest order
asked so far, and lower orders are served by truncation.  The memo is
dropped when the call returns, so nothing is kept between runs.
"""

from .cluster_core import _chamber_walk, chart_variables, seed_from_json
from .fixtures import load_fixture
from .fixtures.generate import chart_rows, kron_rw_series
from .monoid_ring import series_from_json
from .scattering import (
    ScatteringDiagram,
    _completed,
    check_consistency,
    cluster_chamber_walls,
    complete_rank2,  # not called here: perfbench/test_perfbench.py checks that its tracer rebinds this name
    diagram_to_json,
    diagrams_equivalent,
    tk_invariance_check,
    tk_transform,
)
from .theta import theta, theta_via_transport

Check = tuple[str, bool, object]


def _fixture_seed(name: str, group: bool):
    return seed_from_json(load_fixture(name), semifield=not group)


def suite_b2_chart(memo: dict) -> list[Check]:
    fix = load_fixture("b2_chart.json")
    got = chart_rows(seed_from_json(fix["seed"], semifield=True))
    checks: list[Check] = []
    for k, row in enumerate(fix["rows"]):
        want = got[k] if k < len(got) else {}  # a row beyond the word fails on its word
        field = next((f for f in ("word", "vars", "coeffs") if row[f] != want.get(f)), None)
        ce = None if field is None else {"row": k, "field": field}
        checks.append((f"row-t{k}", ce is None, ce))
    return checks


def suite_b2_scatter(memo: dict) -> list[Check]:
    s = _fixture_seed("b2.json", group=True)
    D = _completed(s, 6, memo)
    checks: list[Check] = []
    rep = check_consistency(D)
    checks.append(
        ("completed-consistent", rep.consistent, rep.first_failure_degree)
    )
    same = diagram_to_json(D) == load_fixture("b2_walls_order6.json")
    checks.append(("walls-vs-fixture", same, None if same else {"order": 6}))
    chamber = ScatteringDiagram(cluster_chamber_walls(s, 6), D.order, seed=s)
    eq = diagrams_equivalent(D, chamber)
    checks.append(("chamber-closure", eq, None if eq else {"depth": 6}))
    return checks


def suite_b2_mutation(memo: dict) -> list[Check]:
    s = _fixture_seed("b2.json", group=True)
    checks: list[Check] = []
    moved = tk_transform(_completed(s, 6, memo), 2)
    same = diagram_to_json(moved) == load_fixture("b2_mutated_walls_order6.json")
    checks.append(("transform-vs-fixture", same, None))
    _, _, ok = tk_invariance_check(s, 2, 4, memo)
    checks.append(("invariance-k2", ok, None))
    return checks


def suite_kron_series(memo: dict) -> list[Check]:
    fix = series_from_json(load_fixture("kron_rw_order10.json"))
    checks: list[Check] = []
    checks.append(("closed-form-vs-fixture", kron_rw_series() == fix, None))
    s = _fixture_seed("kronecker.json", group=True)
    D = _completed(s, 10, memo)
    wall = next(w for w in D.walls if w.ray == (1, -1) and not w.incoming)
    same = wall.function(11) == fix
    checks.append(("completion-vs-closed-form", same, None))
    return checks


def suite_tk_invariance(memo: dict) -> list[Check]:
    checks: list[Check] = []
    for name in ("b2.json", "kronecker.json"):
        s = _fixture_seed(name, group=True)
        for k in (1, 2):
            # the deeper order first, so that the lower one is a truncation
            ok = {o: tk_invariance_check(s, k, o, memo)[2] for o in (6, 4)}
            checks += [(f"{name.removesuffix('.json')}-k{k}-o{o}", ok[o], None) for o in (4, 6)]
    return checks


def _chamber_vectors(data, depth):
    """Each g-vector within ``depth`` mutations, with the first (word, index)
    that reaches it."""
    out = {}
    for word, _, G in _chamber_walk(data, depth):
        for i in range(data.n):
            out.setdefault(G.g[i], (word, i))
    return out


def suite_theta_chart(memo: dict) -> list[Check]:
    s = _fixture_seed("b2.json", group=True)
    s_cl = _fixture_seed("b2.json", group=False)
    D = _completed(s, 8, memo)
    checks: list[Check] = []
    for g, (word, i) in sorted(_chamber_vectors(s.data, 6).items()):
        var = chart_variables(s_cl, word)[i]
        tag = f"({g[0]},{g[1]})"
        ok = theta(D, g, 8) == var.num.truncate(8)
        checks.append((f"theta-{tag}", ok, None if ok else {"g": list(g)}))
        tv = theta_via_transport(D, g)
        ok2 = tv.num == var.num
        checks.append((f"transport-{tag}", ok2, None if ok2 else {"g": list(g)}))
    return checks


SUITES = {
    "b2-chart": suite_b2_chart,
    "b2-scatter": suite_b2_scatter,
    "b2-mutation": suite_b2_mutation,
    "kron-series": suite_kron_series,
    "tk-invariance": suite_tk_invariance,
    "theta-chart": suite_theta_chart,
}


def run_suite(name: str) -> list[Check]:
    memo: dict = {}
    if name == "all":
        out: list[Check] = []
        for key in SUITES:
            out.extend((f"{key}/{n}", ok, ce) for n, ok, ce in SUITES[key](memo))
        return out
    fn = SUITES.get(name)
    if fn is None:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join([*SUITES, 'all'])}")
    return fn(memo)
