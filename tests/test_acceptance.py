"""Acceptance: each top-level claim of the README, checked end to end and
timed.  One line per claim goes to the terminal with its runtime and its
ceiling.  A ceiling is twice the claim's baseline wall time in ROADMAP.md
(Python 3.11.7 on a 2-vCPU VM, taken before wall crossing used the binomial
expansion, which made completion about 2.4x faster): Kronecker order 12
1.83 s, B2 order 14 0.61 s, the theta-chart suite 0.24 s, and the sum of
the verify suites 2.9 s.  The Kronecker claim also runs orders 14 and 16,
under the same ceiling: all three orders take about 0.1 s.  The wild
r=(3,3) claim at order 9 took about 0.6 s when it was added; its ceiling of
2.0 s leaves room for a slower machine."""

import hashlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from math import comb

import pytest
from click.testing import CliRunner

from clusterscatter.cli import cli
from clusterscatter.cluster_core import FixedData, chart_variables, initial_seed, seed_from_json
from clusterscatter.fixtures import load_fixture
from clusterscatter.fixtures.generate import kron_rw_series
from clusterscatter.scattering import (
    ScatteringDiagram,
    build_initial,
    cluster_chamber_walls,
    complete_rank2,
    diagram_to_json,
    diagrams_equivalent,
)
from clusterscatter.theta import theta, theta_via_transport


def group_seed(name):
    return replace(seed_from_json(load_fixture(name), semifield=False), cluster=None)


@pytest.fixture()
def claim(capsys):
    @contextmanager
    def timed(text: str, ceiling_s: float):
        t0 = time.perf_counter()
        yield
        took = time.perf_counter() - t0
        with capsys.disabled():
            print(f"\nclaim: {text}: {took:.2f} s (ceiling {ceiling_s:.1f} s)")
        assert took <= ceiling_s, f"{text}: {took:.2f} s over the {ceiling_s} s ceiling"

    return timed


# SHA-256 of the canonical JSON (as in perfbench/reference.py) of each whole
# Kronecker completion, taken before every crossing went through one kernel
KRONECKER_DIGESTS = {
    12: "730b13a4208c2cb706568ede14a069d47a1a1c07a625f7f17b14b12f8a268b43",
    14: "23438bf24645f3365142815e39e3e816b0608608d9fd1082b618b6f2e7581861",
    16: "d7b4a64ddb3e51a9679c0c93c56ea70835e6bb50b71505ce496be652fb437e76",
}


def test_kronecker_completion_matches_closed_form(claim):
    with claim("Kronecker completion at orders 12, 14 and 16 closes; its (1,-1) wall is the closed form", 4.0):
        for order, want in KRONECKER_DIGESTS.items():
            D = complete_rank2(build_initial(group_seed("kronecker.json"), order))
            wall = next(w for w in D.walls if w.ray == (1, -1) and not w.incoming)
            assert wall.function(order + 1) == kron_rw_series(order + 1), order
            text = json.dumps(diagram_to_json(D), sort_keys=True, separators=(",", ":"))
            assert hashlib.sha256(text.encode()).hexdigest() == want, order


def fuss_catalan_ninth_power(terms: int) -> list[int]:
    """The first coefficients of (sum_k C(4k, k)/(3k + 1) q^k)^9."""
    base = [comb(4 * k, k) // (3 * k + 1) for k in range(terms)]
    out = [1] + [0] * (terms - 1)
    for _ in range(9):
        out = [sum(out[i] * base[k - i] for i in range(k + 1)) for k in range(terms)]
    return out


def test_wild_completion_matches_reineke_closed_form(claim):
    """B=((0,-3),(3,0)), d=(1,1), r=(3,3) has incoming functions
    prod_j (1 + t_j z^w) over three t_j per side.  With every t_j set to one
    t they are the (1 + t x)^3 and (1 + t y)^3 of Gross-Pandharipande-
    Siebert, whose (1,-1) wall is Reineke's function (sum_k C(4k, k)/(3k + 1)
    q^k)^9 with q = t^2 z^(-1,1) (*The tropical vertex*, Example 1.6).  The
    specialization t_j -> t checks only the symmetric sums: each coefficient
    of t^(2k) z^(-k,k) is the sum over every t-monomial of that degree.  The
    wall's terms have even degree, so order 9 sees what order 10 sees."""
    order = 9
    with claim(f"wild r=(3,3) completion at order {order}: its (1,-1) wall is Reineke's function", 2.0):
        seed = initial_seed(FixedData(((0, -3), (3, 0)), (1, 1), (3, 3)), with_cluster=False, semifield=False)
        D = complete_rank2(build_initial(seed, order))
        wall = next(w for w in D.walls if w.ray == (1, -1) and not w.incoming)
        summed = Counter()
        for e, c in wall.function(order).terms.items():
            summed[e.m, sum(e.t)] += c
        reineke = fuss_catalan_ninth_power((order + 1) // 2)
        assert reineke == [1, 9, 72, 570, 4554]
        assert {key: c for key, c in summed.items() if c} == {((-k, k), 2 * k): c for k, c in enumerate(reineke)}


def test_b2_completion_is_the_chamber_walls(claim):
    with claim("B2 completion at order 14 equals the cluster chamber walls", 1.2):
        s = group_seed("b2.json")
        D = complete_rank2(build_initial(s, 14))
        chambers = ScatteringDiagram(cluster_chamber_walls(s, 6), 14, seed=s)
        assert diagrams_equivalent(D, chambers)


def test_theta_equals_transport_on_a_chamber_exponent(claim):
    with claim("theta of the B2 chamber exponent (0,-1) equals its transport", 0.5):
        s = group_seed("b2.json")
        D = complete_rank2(build_initial(s, 8))
        tv = theta_via_transport(D, (0, -1))
        assert tv.den.is_one() and len(tv.num) == 8
        assert theta(D, (0, -1), 8) == tv.num.truncate(8)
        cluster_seed = seed_from_json(load_fixture("b2.json"), semifield=True)
        assert chart_variables(cluster_seed, (1, 2))[1].num == tv.num


def test_verify_all_passes(claim):
    with claim("clusterscatter verify --suite all passes", 6.0):
        res = CliRunner().invoke(cli, ["verify", "--suite", "all"])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["pass"] is True
