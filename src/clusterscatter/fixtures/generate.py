"""Regenerate every shipped fixture file from the library and the
infinite-type closed form."""

import json
from dataclasses import replace
from pathlib import Path

from ..cluster_core import (
    FixedData,
    chart_variables,
    initial_seed,
    rational_to_json,
    seed_mutate,
    seed_to_json,
)
from ..monoid_ring import LaurentSeries, series_pow, series_to_json
from ..scattering import build_initial, complete_rank2, diagram_to_json, tk_transform
from . import FILES

B2 = FixedData(((0, -2), (1, 0)), (1, 2), (1, 2))
KRON = FixedData(((0, -2), (2, 0)), (1, 1), (2, 2))

CHART_WORD = (1, 2, 1, 2, 1, 2)


def _dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def chart_rows(s0) -> list[dict]:
    """The rows of ``b2_chart.json`` on ``s0``: each prefix of ``CHART_WORD``,
    the coefficients of one walk of ``s0`` without its cluster, and the
    cluster variables of the prefix's chart."""
    s = replace(s0, cluster=None)
    rows = []
    for k in range(len(CHART_WORD) + 1):
        if k:
            s = seed_mutate(s, CHART_WORD[k - 1])
        variables = chart_variables(s0, CHART_WORD[:k])
        rows.append(
            {
                "word": list(CHART_WORD[:k]),
                "coeffs": seed_to_json(s)["coeffs"],
                "vars": [rational_to_json(x) for x in variables],
            }
        )
    return rows


def b2_chart() -> dict:
    s0 = initial_seed(B2)
    return {"seed": seed_to_json(s0), "word": list(CHART_WORD), "rows": chart_rows(s0)}


def kron_rw_series(order: int = 11) -> LaurentSeries:
    """Wall function of the central ray of the infinite-type diagram, from
    the closed form prod_{a,b} (1 + s_a t_b z^(-1,1)) * (1 - s1 s2 t1 t2
    z^(-2,2))^(-4)."""
    one = LaurentSeries.one(2, 4, order)
    f = one
    for a in range(2):
        for b in range(2):
            t = [0, 0, 0, 0]
            t[a] = 1
            t[2 + b] = 1
            f = f * (one + LaurentSeries.monomial((-1, 1), tuple(t), 1, order))
    q = LaurentSeries.monomial((-2, 2), (1, 1, 1, 1), 1, order)
    return f * series_pow(one - q, -4)


def generate(out_dir: str | Path | None = None) -> list[Path]:
    out = Path(out_dir) if out_dir is not None else Path(__file__).parent
    group_b2 = initial_seed(B2, with_cluster=False, semifield=False)
    b2_d6 = complete_rank2(build_initial(group_b2, 6))
    payload = {
        "b2.json": seed_to_json(initial_seed(B2)),
        "kronecker.json": seed_to_json(initial_seed(KRON)),
        "b2_chart.json": b2_chart(),
        "b2_walls_order6.json": diagram_to_json(b2_d6),
        "b2_mutated_walls_order6.json": diagram_to_json(tk_transform(b2_d6, 2)),
        "kron_rw_order10.json": series_to_json(kron_rw_series()),
    }
    assert set(payload) == set(FILES)
    written = []
    for name, obj in payload.items():
        path = out / name
        path.write_text(_dumps(obj))
        written.append(path)
    return written
