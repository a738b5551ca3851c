"""Acceptance: each top-level claim of the README, checked end to end and
timed.  One line per claim goes to the terminal with its runtime and its
ceiling.  A ceiling is twice the claim's baseline wall time in ROADMAP.md
(Python 3.11.7 on a 2-vCPU VM, taken before wall crossing used the binomial
expansion, which made completion about 2.4x faster): Kronecker order 12
1.83 s, B2 order 14 0.61 s, the theta-chart suite 0.24 s, and the sum of
the verify suites 2.9 s."""

import json
import time
from contextlib import contextmanager
from dataclasses import replace

import pytest
from click.testing import CliRunner

from clusterscatter.cli import cli
from clusterscatter.cluster_core import chart_variables, seed_from_json
from clusterscatter.fixtures import load_fixture
from clusterscatter.fixtures.generate import kron_rw_series
from clusterscatter.scattering import (
    ScatteringDiagram,
    build_initial,
    cluster_chamber_walls,
    complete_rank2,
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


def test_kronecker_completion_matches_closed_form(claim):
    with claim("Kronecker completion at order 12 closes; its (1,-1) wall is the closed form", 4.0):
        D = complete_rank2(build_initial(group_seed("kronecker.json"), 12))
        wall = next(w for w in D.walls if w.ray == (1, -1) and not w.incoming)
        assert wall.function(13) == kron_rw_series(13)


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
