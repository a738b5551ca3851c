"""End-to-end coverage of every command-line path against the shipped
fixture files.  Output determinism is part of the contract, so several
tests compare bytes, not parsed structures."""

import json
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

from clusterscatter.cli import cli
from clusterscatter.cluster_core import FixedData, initial_seed, seed_to_json
from clusterscatter.fixtures import fixture_text
from clusterscatter.scattering import PositivityError, diagram_from_json


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def b2_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("seeds") / "b2.json"
    p.write_text(fixture_text("b2.json"))
    return str(p)


@pytest.fixture(scope="module")
def kron_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("seeds") / "kronecker.json"
    p.write_text(fixture_text("kronecker.json"))
    return str(p)


class TestMutate:
    def test_empty_word_reserializes_byte_identical(self, runner, b2_path):
        res = runner.invoke(cli, ["mutate", "--seed", b2_path])
        assert res.exit_code == 0
        assert res.stdout == fixture_text("b2.json")

    def test_repeated_direction_cancels(self, runner, b2_path):
        res = runner.invoke(cli, ["mutate", "--seed", b2_path, "11"])
        assert res.exit_code == 0
        assert res.stdout == fixture_text("b2.json")

    def test_comma_word_equals_digit_word(self, runner, b2_path):
        a = runner.invoke(cli, ["mutate", "--seed", b2_path, "121"])
        b = runner.invoke(cli, ["mutate", "--seed", b2_path, "1,2,1"])
        assert a.exit_code == b.exit_code == 0
        assert a.stdout == b.stdout != fixture_text("b2.json")

    def test_output_feeds_back_as_input(self, runner, b2_path, tmp_path):
        once = runner.invoke(cli, ["mutate", "--seed", b2_path, "1"])
        mid = tmp_path / "mid.json"
        mid.write_text(once.stdout)
        back = runner.invoke(cli, ["mutate", "--seed", str(mid), "1"])
        assert back.stdout == fixture_text("b2.json")

    def test_word_out_of_range(self, runner, b2_path):
        res = runner.invoke(cli, ["mutate", "--seed", b2_path, "3"])
        assert res.exit_code == 2

    def test_word_not_digits(self, runner, b2_path):
        res = runner.invoke(cli, ["mutate", "--seed", b2_path, "x1"])
        assert res.exit_code == 2

    def test_missing_seed_file(self, runner, tmp_path):
        res = runner.invoke(cli, ["mutate", "--seed", str(tmp_path / "no.json")])
        assert res.exit_code == 2

    def test_bare_name_is_a_shipped_fixture(self, runner, b2_path):
        with runner.isolated_filesystem():
            res = runner.invoke(cli, ["mutate", "--seed", "b2.json", "121"])
            missing = runner.invoke(cli, ["mutate", "--seed", "nope.json", "121"])
        assert res.exit_code == 0
        assert res.stdout == runner.invoke(cli, ["mutate", "--seed", b2_path, "121"]).stdout
        assert missing.exit_code == 2
        assert "'nope.json' does not exist" in missing.output

    def test_malformed_seed_file(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        res = runner.invoke(cli, ["mutate", "--seed", str(bad)])
        assert res.exit_code == 2


class TestScatter:
    def test_wall_listing_and_files(self, runner, b2_path, tmp_path):
        jp, sp = tmp_path / "d.json", tmp_path / "d.svg"
        args = ["scatter", "--seed", b2_path, "--order", "6",
                "--json", str(jp), "--svg", str(sp)]
        res = runner.invoke(cli, args)
        assert res.exit_code == 0
        rows = res.stdout.splitlines()
        assert len(rows) == 6
        assert rows[0] == "ray (1,0) incoming: (1+t22*z^(-1,0))(1+t21*z^(-1,0))"
        assert rows[4].startswith("ray (1,-1) outgoing:")
        assert jp.read_text() == fixture_text("b2_walls_order6.json")
        svg = sp.read_text()
        assert svg.count("<text") == 6 and "(2,-1)" in svg
        again = runner.invoke(cli, args)
        assert again.stdout == res.stdout
        assert sp.read_text() == svg

    def test_order_env_mirror(self, runner, b2_path):
        res = runner.invoke(
            cli, ["scatter", "--seed", b2_path], env={"CLUSTERSCATTER_ORDER": "2"}
        )
        assert res.exit_code == 0
        # the degree-3 wall on (2,-1) is below the horizon at order 2
        assert len(res.stdout.splitlines()) == 5
        assert "(2,-1)" not in res.stdout

    def test_seed_env_mirror(self, runner, b2_path):
        res = runner.invoke(
            cli, ["scatter"], env={"CLUSTERSCATTER_SEED": b2_path}
        )
        assert res.exit_code == 0
        assert len(res.stdout.splitlines()) == 6

    def test_violated_invariant_exits_1(self, runner, b2_path, monkeypatch):
        def fail(D):
            raise PositivityError("wall exponent -1 at degree 2")

        monkeypatch.setattr(sys.modules["clusterscatter.cli"], "complete_rank2", fail)
        res = runner.invoke(cli, ["scatter", "--seed", b2_path])
        assert res.exit_code == 1
        assert "invariant violated: wall exponent -1 at degree 2" in res.output
        assert isinstance(res.exception, SystemExit)  # handled, no traceback


class TestScatterCheck:
    def test_initial_diagram_inconsistent(self, runner, b2_path):
        res = runner.invoke(cli, ["scatter-check", "--seed", b2_path])
        assert res.exit_code == 1
        rep = json.loads(res.stdout)
        assert rep == {"consistent": False, "first_failure_degree": 2, "order": 6}

    def test_completed_diagram_consistent(self, runner, b2_path):
        res = runner.invoke(cli, ["scatter-check", "--seed", b2_path, "--completed"])
        assert res.exit_code == 0
        rep = json.loads(res.stdout)
        assert rep == {"consistent": True, "first_failure_degree": None, "order": 6}

    def test_rank3_seed_is_bad_input(self, runner, tmp_path):
        a3 = FixedData(B=((0, 1, 0), (-1, 0, 1), (0, -1, 0)), d=(1, 1, 1), r=(1, 1, 1))
        p = tmp_path / "a3.json"
        p.write_text(json.dumps(seed_to_json(initial_seed(a3, with_cluster=False))))
        res = runner.invoke(cli, ["scatter-check", "--seed", str(p)])
        assert res.exit_code == 2
        assert "build_initial is defined for rank-2 seeds only" in res.output


class TestScatterMutate:
    def test_invariance_holds_and_diagram_written(self, runner, b2_path, tmp_path):
        jp = tmp_path / "moved.json"
        res = runner.invoke(
            cli,
            ["scatter-mutate", "--seed", b2_path, "--k", "2", "--order", "6",
             "--json", str(jp)],
        )
        assert res.exit_code == 0
        assert json.loads(res.stdout) == {"invariant": True, "k": 2, "order": 6}
        assert jp.read_text() == fixture_text("b2_mutated_walls_order6.json")
        moved = diagram_from_json(json.loads(jp.read_text()))
        assert len(moved.walls) == 6

    def test_direction_out_of_range(self, runner, b2_path):
        res = runner.invoke(cli, ["scatter-mutate", "--seed", b2_path, "--k", "5"])
        assert res.exit_code == 2


class TestTheta:
    def test_one_step_variable(self, runner, b2_path):
        res = runner.invoke(cli, ["theta", "--seed", b2_path, "--m", "-1,0"])
        assert res.exit_code == 0
        assert res.stdout.strip() == "A1^-1 + t11*A1^-1*A2"

    def test_positive_chamber_monomial(self, runner, b2_path):
        res = runner.invoke(cli, ["theta", "--seed", b2_path, "--m", "1,1"])
        assert res.stdout.strip() == "A1*A2"

    def test_zero_exponent(self, runner, b2_path):
        res = runner.invoke(cli, ["theta", "--seed", b2_path, "--m", "0,0"])
        assert res.stdout.strip() == "1"

    def test_q_seed_changes_endpoint_not_value(self, runner, b2_path, tmp_path):
        outs, ends = set(), set()
        for q in ("0", "3"):
            tp = tmp_path / f"trace{q}.json"
            res = runner.invoke(
                cli,
                ["theta", "--seed", b2_path, "--m", "0,-1", "--order", "8",
                 "--q-seed", q, "--trace", str(tp)],
            )
            assert res.exit_code == 0
            outs.add(res.stdout)
            ends.add(tuple(json.loads(tp.read_text())["endpoint"]))
        assert len(outs) == 1 and len(ends) == 2

    def test_trace_structure(self, runner, b2_path, tmp_path):
        tp = tmp_path / "trace.json"
        res = runner.invoke(
            cli,
            ["theta", "--seed", b2_path, "--m", "-1,0", "--order", "6",
             "--trace", str(tp)],
        )
        assert res.exit_code == 0
        doc = json.loads(tp.read_text())
        assert doc["p0"] == [-1, 0] and doc["order"] == 6
        assert len(doc["endpoint"]) == 2
        assert len(doc["lines"]) == 2
        straight = doc["lines"][0]
        assert straight["bends"] == []
        assert straight["segments"] == [{"c": 1, "t": [0, 0, 0], "m": [-1, 0]}]
        bent = doc["lines"][1]
        assert len(bent["bends"]) == 1 and len(bent["segments"]) == 2

    def test_redraws_run_out(self, runner, b2_path, monkeypatch):
        on_wall = (Fraction(3), Fraction(0))  # on the incoming ray (1,0)
        monkeypatch.setattr(sys.modules["clusterscatter.theta"], "_endpoint_draw", lambda q, a: on_wall)
        res = runner.invoke(cli, ["theta", "--seed", b2_path, "--m", "-1,0"])
        assert res.exit_code == 1
        assert "no generic endpoint in 40 draws" in res.output

    def test_bad_exponent_text(self, runner, b2_path):
        res = runner.invoke(cli, ["theta", "--seed", b2_path, "--m", "garbage"])
        assert res.exit_code == 2

    def test_wrong_exponent_length(self, runner, b2_path):
        res = runner.invoke(cli, ["theta", "--seed", b2_path, "--m", "1,2,3"])
        assert res.exit_code == 2


class TestVerify:
    @pytest.mark.parametrize(
        "suite",
        ["b2-chart", "b2-scatter", "b2-mutation", "kron-series",
         "tk-invariance", "theta-chart"],
    )
    def test_suite_passes(self, runner, suite):
        res = runner.invoke(cli, ["verify", "--suite", suite])
        assert res.exit_code == 0
        rep = json.loads(res.stdout)
        assert rep["suite"] == suite and rep["pass"] is True
        assert rep["checks"] and all(c["pass"] for c in rep["checks"])

    def test_all_concatenates_suites(self, runner):
        res = runner.invoke(cli, ["verify", "--suite", "all"])
        assert res.exit_code == 0
        rep = json.loads(res.stdout)
        names = {c["name"].split("/")[0] for c in rep["checks"]}
        assert names == {"b2-chart", "b2-scatter", "b2-mutation", "kron-series",
                         "tk-invariance", "theta-chart"}

    def test_unknown_suite(self, runner):
        res = runner.invoke(cli, ["verify", "--suite", "nope"])
        assert res.exit_code == 2

    def test_suite_env_mirror(self, runner):
        res = runner.invoke(
            cli, ["verify"], env={"CLUSTERSCATTER_SUITE": "b2-chart"}
        )
        assert json.loads(res.stdout)["suite"] == "b2-chart"

    def test_order_override_reaches_suite(self, runner):
        res = runner.invoke(cli, ["verify", "--suite", "tk-invariance", "--order", "4"])
        rep = json.loads(res.stdout)
        assert res.exit_code == 0
        assert {c["name"] for c in rep["checks"]} == {
            "b2-k1-o4", "b2-k2-o4", "kronecker-k1-o4", "kronecker-k2-o4"
        }

    @pytest.mark.parametrize("flag", ["--order", "--depth"])
    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_order_and_depth_below_one_are_bad_input(self, runner, flag, value):
        res = runner.invoke(cli, ["verify", "--suite", "b2-scatter", flag, value])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"{flag} must be at least 1" in res.stderr
        assert "Traceback" not in res.output
