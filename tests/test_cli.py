"""End-to-end coverage of every command-line path against the shipped
fixture files.  Output determinism is part of the contract, so several
tests compare bytes, not parsed structures."""

import ast
import copy
import json
import sys
import time
from fractions import Fraction
from functools import reduce
from operator import getitem

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from clusterscatter import _verify
from clusterscatter.cli import cli
from clusterscatter.cluster_core import FixedData, InvariantViolation, initial_seed, seed_from_json, seed_to_json
from clusterscatter.fixtures import fixture_text, load_fixture
from clusterscatter.monoid_ring import Exponent, LaurentSeries, series_to_str
from clusterscatter.scattering import PositivityError, build_initial, complete_rank2
from clusterscatter.theta import GenericityError, theta
from test_cli_transcript import TRANSCRIPT

CLI_MODULE = sys.modules["clusterscatter.cli"]

# the stdout of ``verify --suite all`` as the transcript stores it
VERIFY_ALL = TRANSCRIPT.read_text().split("$ clusterscatter verify --suite all\n[exit 0]\n")[1].split("$ ")[0]


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

    def test_string_coefficients_are_bad_input(self, runner, tmp_path):
        data = json.loads(fixture_text("b2.json"))
        data["coeffs"] = "p11"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        res = runner.invoke(cli, ["mutate", "--seed", str(bad)])
        assert res.exit_code == 2
        assert "cannot load seed from" in res.output
        assert "Expecting value" not in res.output

    @staticmethod
    def _a2_seed_file(tmp_path, edit):
        # A2 with principal coefficients, its cluster entry 1 changed by ``edit``
        a2 = FixedData(B=((0, -1), (1, 0)), d=(1, 1), r=(1, 1))
        data = seed_to_json(initial_seed(a2))
        edit(data["cluster"][0])
        p = tmp_path / "a2.json"
        p.write_text(json.dumps(data))
        return str(p)

    def test_cluster_outside_the_pattern_violates_the_laurent_property(self, runner, tmp_path):
        # cluster (z0 + z1, z1): the exchange in direction 1 divides by z0 + z1
        path = self._a2_seed_file(tmp_path, lambda x: x["num"].append({"m": [0, 1], "t": [0, 0], "c": 1}))
        assert runner.invoke(cli, ["mutate", "--seed", path, "2"]).exit_code == 0
        res = runner.invoke(cli, ["mutate", "--seed", path, "1"])
        assert res.exit_code == 1
        assert "invariant violated: " in res.output and "Laurent" in res.output
        assert isinstance(res.exception, SystemExit)  # handled, no traceback

    def test_non_laurent_cluster_entry_is_bad_input(self, runner, tmp_path):
        # cluster entry z0 / (1 + z1)
        path = self._a2_seed_file(
            tmp_path, lambda x: x.update(den=[{"m": [0, m], "t": [0, 0], "c": 1} for m in (0, 1)])
        )
        res = runner.invoke(cli, ["mutate", "--seed", path])
        assert res.exit_code == 2
        assert "cannot load seed from" in res.output and "Laurent" in res.output

    def test_negative_cluster_coefficient_is_bad_input(self, runner, tmp_path):
        # B2 with its first cluster entry -z0
        data = json.loads(fixture_text("b2.json"))
        data["cluster"][0]["num"][0]["c"] = -1
        path = tmp_path / "b2_negative.json"
        path.write_text(json.dumps(data))
        res = runner.invoke(cli, ["mutate", "--seed", str(path), "121"])
        assert res.exit_code == 2
        assert "cannot load seed from" in res.output and "positivity" in res.output

    @staticmethod
    def _b2_mutate(runner, tmp_path, edit, word="121"):
        # b2.json with one field changed by ``edit``; the error must be handled, with no traceback
        data = json.loads(fixture_text("b2.json"))
        edit(data)
        path = tmp_path / "b2_edited.json"
        path.write_text(json.dumps(data))
        res = runner.invoke(cli, ["mutate", "--seed", str(path), word])
        assert isinstance(res.exception, SystemExit) and "Traceback" not in res.output
        return res

    @pytest.mark.parametrize(
        "part, message", [("num", "cluster entry 1 is zero"), ("den", "cluster entry 1 has a zero denominator")]
    )
    def test_zero_cluster_entry_is_bad_input(self, runner, tmp_path, part, message):
        res = self._b2_mutate(runner, tmp_path, lambda d: d["cluster"][0][part][0].update(c=0))
        assert res.exit_code == 2
        assert "cannot load seed from" in res.output and message in res.output

    @pytest.mark.parametrize(
        "field, where",
        [(lambda d: d["coeffs"][0][0]["exponents"], "coefficients"), (lambda d: d["cluster"][0]["num"][0]["m"], "cluster entry 1")],
        ids=["coefficient", "cluster"],
    )
    def test_exponent_beyond_a_packed_slot_is_bad_input(self, runner, tmp_path, field, where):
        res = self._b2_mutate(runner, tmp_path, lambda d: field(d).__setitem__(0, 2**40))
        assert res.exit_code == 2
        assert f"{where}: the exponent magnitude {2**40} exceeds the packed-slot limit 2147483647" in res.output

    @pytest.mark.parametrize(
        "field",
        [lambda d: d["coeffs"][0][0]["exponents"], lambda d: d["cluster"][0]["num"][0]["m"]],
        ids=["coefficient", "cluster"],
    )
    def test_exponent_that_outgrows_a_slot_partway_is_bad_input(self, runner, tmp_path, field):
        # 2^31 - 1 loads, and the first exchange would need a slot beyond it
        res = self._b2_mutate(runner, tmp_path, lambda d: field(d).__setitem__(0, 2**31 - 1))
        assert res.exit_code == 2
        assert "Error: a packed exponent slot could reach 2147483648; slots hold at most 2147483647" in res.output

    def test_non_integer_cluster_entry_is_bad_input(self, runner, tmp_path):
        # first cluster entry z0 / 7
        res = self._b2_mutate(runner, tmp_path, lambda d: d["cluster"][0]["den"][0].update(c=7), word="")
        assert res.exit_code == 2
        assert "cluster entry 1 has a non-integer coefficient (integrality)" in res.output

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["cluster"][0]["num"][0].update(c=1.5), "cluster entry 1 c must hold integers, got 1.5"),
            (lambda d: d["cluster"][0]["num"][0].update(c=True), "cluster entry 1 c must hold integers, got True"),
            (lambda d: d["cluster"][0]["den"][0]["m"].__setitem__(0, "0"), "cluster entry 1 m must hold integers, got '0'"),
            (lambda d: d["cluster"][1]["num"][0]["t"].__setitem__(2, 0.0), "cluster entry 2 t must hold integers, got 0.0"),
            (lambda d: d.update(d=[1.5, 2]), "d must hold integers, got 1.5"),
            (lambda d: d["B"][0].__setitem__(1, -2.9), "B must hold integers, got -2.9"),
            (lambda d: d.update(r=[1, 2.0]), "r must hold integers, got 2.0"),
            (lambda d: d["coeffs"][0][0]["exponents"].__setitem__(0, 0.5), "exponents must hold integers, got 0.5"),
            (lambda d: d["coeffs"][1][0]["exponents"].__setitem__(1, "1"), "exponents must hold integers, got '1'"),
            (lambda d: [p.update(orders=[1, 2.0]) for tup in d["coeffs"] for p in tup], "orders must hold integers, got 2.0"),
        ],
        ids=["c-float", "c-bool", "m-string", "t-float", "d", "B", "r", "exponent-float", "exponent-string", "orders"],
    )
    def test_number_that_is_no_json_integer_is_bad_input(self, runner, tmp_path, edit, message):
        """int() used to truncate such numbers, and the seed loaded."""
        res = self._b2_mutate(runner, tmp_path, edit, word="")
        assert res.exit_code == 2
        assert f"cannot load seed from {tmp_path / 'b2_edited.json'}: {message}" in res.output

    def test_non_integral_exchange_violates_integrality(self, runner, tmp_path):
        # first cluster entry 7*z0: the exchange in direction 1 divides by 7
        res = self._b2_mutate(runner, tmp_path, lambda d: d["cluster"][0]["num"][0].update(c=7))
        assert res.exit_code == 1
        assert "invariant violated: exchange in direction 1 has a non-integer coefficient (integrality)" in res.output


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

    @pytest.mark.parametrize("command", [["scatter"], ["theta", "--m", "1,0"], ["scatter-check"]])
    def test_order_beyond_a_packed_slot_is_bad_input(self, runner, b2_path, command):
        # 2^31 + 1 does not fit a packed slot; nothing is allocated per degree
        res = runner.invoke(cli, [*command, "--seed", b2_path, "--order", "2147483648"])
        assert res.exit_code == 2
        assert "order + 1 must fit a packed slot" in res.output

    def test_seed_comes_from_its_flag_alone(self, runner, b2_path):
        res = runner.invoke(cli, ["scatter"], env={"CLUSTERSCATTER_SEED": b2_path})
        assert res.exit_code == 2
        assert "Missing option '--seed'" in res.stderr

    def test_violated_invariant_exits_1(self, runner, b2_path, monkeypatch):
        def fail(D):
            raise PositivityError("wall exponent -1 at degree 2")

        monkeypatch.setattr(sys.modules["clusterscatter.cli"], "complete_rank2", fail)
        res = runner.invoke(cli, ["scatter", "--seed", b2_path])
        assert res.exit_code == 1
        assert "invariant violated: wall exponent -1 at degree 2" in res.output
        assert isinstance(res.exception, SystemExit)  # handled, no traceback


@pytest.fixture(scope="module")
def a3_path(tmp_path_factory):
    a3 = FixedData(B=((0, 1, 0), (-1, 0, 1), (0, -1, 0)), d=(1, 1, 1), r=(1, 1, 1))
    p = tmp_path_factory.mktemp("seeds") / "a3.json"
    p.write_text(json.dumps(seed_to_json(initial_seed(a3, with_cluster=False))))
    return str(p)


@pytest.fixture(scope="module")
def sheared_b2_path(tmp_path_factory):
    """b2.json without its cluster, with coefficients p11 = t11,
    p21 = t11*t21, p22 = t22: a lattice basis that is not the standard one."""
    doc = json.loads(fixture_text("b2.json"))
    del doc["cluster"]
    for (i, j), exps in {(0, 0): [1, 0, 0], (1, 0): [1, 1, 0], (1, 1): [0, 0, 1]}.items():
        doc["coeffs"][i][j]["exponents"] = exps
    p = tmp_path_factory.mktemp("seeds") / "b2_sheared.json"
    p.write_text(json.dumps(doc))
    return str(p)


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

    def test_rank3_seed_is_bad_input(self, runner, a3_path):
        res = runner.invoke(cli, ["scatter-check", "--seed", a3_path])
        assert res.exit_code == 2
        assert "build_initial is defined for rank-2 seeds only" in res.output

    @pytest.mark.parametrize("command", [["scatter"], ["theta", "--m", "-1,0,0"]], ids=["scatter", "theta"])
    def test_rank3_seed_is_bad_input_everywhere(self, runner, a3_path, command):
        res = runner.invoke(cli, [*command, "--seed", a3_path])
        assert res.exit_code == 2
        assert "rank-2 seeds only" in res.output
        assert "Traceback" not in res.output


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
        assert len(json.loads(jp.read_text())["walls"]) == 6

    def test_direction_out_of_range(self, runner, b2_path):
        res = runner.invoke(cli, ["scatter-mutate", "--seed", b2_path, "--k", "5"])
        assert res.exit_code == 2

    def test_a_source_beyond_the_limit_is_refused_before_it_is_completed(self, runner, tmp_path):
        """The (8,4) datum with 5 coefficient generators needs its source
        completed to order 33 for k = 1 at the default order 4; completing it
        would take gigabytes.  The refusal comes from the cheap side alone."""
        path = tmp_path / "b84.json"
        path.write_text(json.dumps(seed_to_json(initial_seed(FixedData(((0, 8), (-4, 0)), (1, 2), (4, 1))))))
        t0 = time.perf_counter()
        res = runner.invoke(cli, ["scatter-mutate", "--seed", str(path), "--k", "1"])
        assert time.perf_counter() - t0 < 1.0
        assert res.exit_code == 2 and res.stdout == ""
        assert res.stderr.endswith(
            "Error: the mutation check at order 4 needs the source completed to order 33 "
            "(limit 10 with 5 coefficient generators)\n"
        )


SLOT_LIMIT_THETA = {  # (fixture, --m): (exit code, stdout) at --order 3
    ("b2", "2147483647,0"): (0, "A1^2147483647\n"),
    ("b2", "1,-2147483647"): (
        0,
        " + ".join([
            "A1*A2^-2147483647",
            "2147483647*t22*A2^-2147483647",
            "2305843005992468481*t22^2*A1^-1*A2^-2147483647",
            "2147483647*t21*A2^-2147483647",
            "4611686014132420609*t21*t22*A1^-1*A2^-2147483647",
            "2305843005992468481*t21^2*A1^-1*A2^-2147483647",
            "2147483646*t11*t22*A2^-2147483646",
            "2147483646*t11*t21*A2^-2147483646",
        ])
        + "\n",
    ),
    ("b2", "-2147483647,-2147483647"): (2, ""),
    ("b2", "-2147483647,0"): (
        0,
        " + ".join([
            "A1^-2147483647",
            "2147483647*t11*A1^-2147483647*A2",
            "2305843005992468481*t11^2*A1^-2147483647*A2^2",
        ])
        + "\n",
    ),
    ("b2", "0,2147483647"): (0, "A2^2147483647\n"),
    ("b2", "2147483645,1"): (0, "A1^2147483645*A2\n"),
    ("b2", "2147483647,2147483647"): (0, "A1^2147483647*A2^2147483647\n"),
    ("b2", "-2147483647,1"): (
        0,
        " + ".join([
            "A1^-2147483647*A2",
            "2147483647*t11*A1^-2147483647*A2^2",
            "2305843005992468481*t11^2*A1^-2147483647*A2^3",
        ])
        + "\n",
    ),
    ("kronecker", "2147483647,0"): (0, "A1^2147483647\n"),
    ("kronecker", "1,-2147483647"): (
        0,
        " + ".join([
            "A1*A2^-2147483647",
            "2147483647*t22*A2^-2147483647",
            "2305843005992468481*t22^2*A1^-1*A2^-2147483647",
            "2147483647*t21*A2^-2147483647",
            "4611686014132420609*t21*t22*A1^-1*A2^-2147483647",
            "2305843005992468481*t21^2*A1^-1*A2^-2147483647",
            "2147483646*t12*t22*A2^-2147483646",
            "2147483646*t12*t21*A2^-2147483646",
            "2147483646*t11*t22*A2^-2147483646",
            "2147483646*t11*t21*A2^-2147483646",
        ])
        + "\n",
    ),
    ("kronecker", "-2147483647,-2147483647"): (2, ""),
    ("kronecker", "-2147483647,0"): (
        0,
        " + ".join([
            "A1^-2147483647",
            "2147483647*t12*A1^-2147483647*A2",
            "2305843005992468481*t12^2*A1^-2147483647*A2^2",
            "2147483647*t11*A1^-2147483647*A2",
            "4611686014132420609*t11*t12*A1^-2147483647*A2^2",
            "2305843005992468481*t11^2*A1^-2147483647*A2^2",
        ])
        + "\n",
    ),
    ("kronecker", "0,2147483647"): (0, "A2^2147483647\n"),
    ("kronecker", "2147483645,1"): (0, "A1^2147483645*A2\n"),
    ("kronecker", "2147483647,2147483647"): (0, "A1^2147483647*A2^2147483647\n"),
    ("kronecker", "-2147483647,1"): (
        0,
        " + ".join([
            "A1^-2147483647*A2",
            "2147483647*t12*A1^-2147483647*A2^2",
            "2305843005992468481*t12^2*A1^-2147483647*A2^3",
            "2147483647*t11*A1^-2147483647*A2^2",
            "4611686014132420609*t11*t12*A1^-2147483647*A2^3",
            "2305843005992468481*t11^2*A1^-2147483647*A2^3",
        ])
        + "\n",
    ),
}


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

    def test_prints_what_the_library_computed_in_the_seed_basis(self, runner, sheared_b2_path, tmp_path):
        """--order counts the seed's own coefficient degrees: the degree-1
        term t11*t21 = p21 stays, though its initial-basis degree is 2."""
        tp = tmp_path / "trace.json"
        res = runner.invoke(
            cli,
            ["theta", "--seed", sheared_b2_path, "--m", "0,-1", "--order", "2", "--trace", str(tp)],
        )
        assert res.exit_code == 0
        names = (["A1", "A2"], ["t11", "t21", "t22"])
        s = seed_from_json(json.loads(open(sheared_b2_path).read()), semifield=False)
        series = theta(complete_rank2(build_initial(s, 2)), (0, -1), 2)
        traced: dict = {}
        for line in json.loads(tp.read_text())["lines"]:
            final = line["segments"][-1]
            e = Exponent(tuple(final["m"]), tuple(final["t"]))
            traced[e] = traced.get(e, 0) + final["c"]
        printed = res.stdout.strip()
        assert printed == series_to_str(series, *names) == series_to_str(LaurentSeries(traced), *names)
        assert "t11*t21*A1^-1*A2^-1" in printed

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


    @pytest.mark.parametrize("fixture, m", sorted(SLOT_LIMIT_THETA))
    def test_exponents_at_the_slot_limit(self, runner, fixture, m, tmp_path):
        """An exponent with an entry at 2^31 - 1 in magnitude: theta answers
        whenever every term it prints fits a packed slot, and exits 2 when
        one would not.  Pinned to the outputs of the tuple-keyed search."""
        path = tmp_path / f"{fixture}.json"
        path.write_text(fixture_text(f"{fixture}.json"))
        res = runner.invoke(cli, ["theta", "--seed", str(path), "--order", "3", "--m", m])
        assert (res.exit_code, res.stdout) == SLOT_LIMIT_THETA[fixture, m]
        if res.exit_code:
            assert "Error: a packed exponent slot could reach " in res.output and "Traceback" not in res.output


OUTPUT_OPTIONS = pytest.mark.parametrize(
    "command",
    [
        ["scatter", "--json"],
        ["scatter", "--svg"],
        ["scatter-mutate", "--k", "2", "--json"],
        ["theta", "--m", "-1,0", "--trace"],
    ],
    ids=["scatter-json", "scatter-svg", "scatter-mutate-json", "theta-trace"],
)


@pytest.mark.parametrize(
    "command",
    [["mutate", "121"], ["scatter", "--order", "3"], ["theta", "--m", "-1,0", "--order", "3"], ["scatter-mutate", "--k", "1"]],
    ids=lambda c: c[0],
)
def test_coefficient_entries_that_disagree_on_orders_do_not_load(runner, tmp_path, command):
    doc = json.loads(fixture_text("b2.json"))
    doc["coeffs"][0][0] = {"orders": [1, 3], "exponents": [1, 0, 0, 0]}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(cli, [command[0], "--seed", str(path), *command[1:]])
    assert res.exit_code == 2
    assert f"cannot load seed from {path}: the coefficient entries must share one orders list" in res.stderr
    assert isinstance(res.exception, SystemExit)  # handled, no traceback


@pytest.mark.parametrize(
    "command, message",
    [
        (["mutate", "121"], "cluster entry 1 has dims (n, d) (2, 3), the seed needs (2, 4)"),
        (["scatter", "--order", "3"], "seed coefficients do not form a lattice basis"),
        (["scatter-check"], "seed coefficients do not form a lattice basis"),
        (["theta", "--m", "-1,0", "--order", "3"], "seed coefficients do not form a lattice basis"),
        (["scatter-mutate", "--k", "1"], "seed coefficients do not form a lattice basis"),
    ],
    ids=["mutate", "scatter", "scatter-check", "theta", "scatter-mutate"],
)
def test_coefficient_orders_that_disagree_with_the_seed_do_not_load(runner, tmp_path, command, message):
    """Orders (1, 3) give every coefficient four exponents, while the cluster
    entries and the three coefficients span three generators."""
    doc = json.loads(fixture_text("b2.json"))
    for tup in doc["coeffs"]:
        for p in tup:
            p["orders"], p["exponents"] = [1, 3], p["exponents"] + [0]
    path = tmp_path / "orders13.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(cli, [command[0], "--seed", str(path), *command[1:]])
    assert res.exit_code == 2
    assert message in res.stderr
    assert isinstance(res.exception, SystemExit)  # handled, no traceback


@OUTPUT_OPTIONS
def test_output_path_in_a_missing_directory_is_bad_input(runner, b2_path, tmp_path, command):
    path = str(tmp_path / "missing" / "out")
    res = runner.invoke(cli, [*command, path, "--seed", b2_path])
    assert res.exit_code == 2
    assert f"cannot write {path}: " in res.stderr
    assert isinstance(res.exception, SystemExit)  # handled, no traceback


@OUTPUT_OPTIONS
def test_an_empty_output_path_is_bad_input(runner, b2_path, command):
    """An empty path names no file: the command reports that it cannot
    write there instead of silently writing nothing."""
    res = runner.invoke(cli, [*command, "", "--seed", b2_path, "--order", "3"])
    assert res.exit_code == 2
    assert "cannot write : " in res.stderr
    assert isinstance(res.exception, SystemExit)  # handled, no traceback


@pytest.mark.parametrize(
    "args, message",
    [
        (["scatter", "--order", "3", "--json", ""], "cannot write : empty path"),
        (["scatter", "--order", "3", "--json", "ok.json", "--svg", "missing/x.svg"],
         "cannot write missing/x.svg: missing is not a writable directory"),
        (["theta", "--m", "-1,0", "--order", "3", "--trace", "missing/t.json"],
         "cannot write missing/t.json: missing is not a writable directory"),
        (["scatter-mutate", "--k", "2", "--json", "missing/out.json"],
         "cannot write missing/out.json: missing is not a writable directory"),
        (["scatter", "--order", "3", "--json", "."], "File '.' is a directory"),
        (["scatter", "--order", "3", "--json", "b2x/"], "cannot write b2x/: the path ends in a separator"),
    ],
    ids=["scatter-empty-json", "scatter-json-then-bad-svg", "theta-trace", "scatter-mutate-json", "scatter-json-dir",
         "scatter-json-trailing-separator"],
)
def test_output_paths_are_checked_before_any_work(runner, b2_path, tmp_path, monkeypatch, args, message):
    """A path the command cannot write exits 2 before it computes: nothing
    on stdout, and no file written, not even for a good path given first."""
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(cli, [args[0], "--seed", b2_path, *args[1:]])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert message in res.stderr
    assert list(tmp_path.iterdir()) == []


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

    def test_one_run_completes_each_diagram_once_and_keeps_nothing(self, monkeypatch):
        """Within one run a seed is completed again only deeper than before:
        the run's memo serves every lower order by truncation.  A second run
        does the same completions again, so nothing outlives a run."""
        runs: list[list] = []

        def counted(D):
            runs[-1].append((D.seed, D.order))
            return complete_rank2(D)

        monkeypatch.setattr("clusterscatter.scattering.complete_rank2", counted)
        for _ in range(2):
            runs.append([])
            assert all(ok for _, ok, _ in _verify.run_suite("all"))
        first, second = runs
        assert first == second and len(first) == 8
        for i, (seed, order) in enumerate(first):
            assert all(o < order for s, o in first[:i] if s == seed), (seed.word, order)

    @pytest.mark.parametrize("field", ["word", "vars", "coeffs"])
    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_b2_chart_fails_exactly_the_corrupted_row(self, monkeypatch, row, field):
        """One changed entry of ``b2_chart.json`` fails its row alone, naming
        that row and field."""
        chart = load_fixture("b2_chart.json")
        target = chart["rows"][row]
        if field == "word":
            target["word"].append(1)
        elif field == "vars":
            target["vars"][0]["num"][0]["c"] += 1
        else:
            target["coeffs"][0][0]["exponents"][0] += 1
        monkeypatch.setattr(_verify, "load_fixture", lambda name: chart if name == "b2_chart.json" else load_fixture(name))
        checks = _verify.run_suite("b2-chart")
        assert [name for name, _, _ in checks] == [f"row-t{k}" for k in range(7)]
        for k, (_, ok, ce) in enumerate(checks):
            assert (ok, ce) == ((False, {"row": k, "field": field}) if k == row else (True, None))

    def test_unknown_suite(self, runner):
        res = runner.invoke(cli, ["verify", "--suite", "nope"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("name", ["ORDER", "DEPTH", "SUITE", "SEED", "JSON", "SVG", "Q_SEED"])
    def test_environment_never_reaches_the_suites(self, runner, b2_path, tmp_path, name):
        values = {"ORDER": "1", "DEPTH": "1", "SUITE": "b2-chart", "SEED": b2_path,
                  "JSON": str(tmp_path / "d.json"), "SVG": str(tmp_path / "d.svg"), "Q_SEED": "5"}
        res = runner.invoke(cli, ["verify", "--suite", "all"], env={f"CLUSTERSCATTER_{name}": values[name]})
        assert res.exit_code == 0
        assert res.stdout == VERIFY_ALL
        assert len(json.loads(res.stdout)["checks"]) == 34
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value", [("--order", "4"), ("--depth", "6")])
    def test_suites_take_no_order_or_depth(self, runner, flag, value):
        res = runner.invoke(cli, ["verify", flag, value])
        assert res.exit_code == 2
        assert f"No such option '{flag}'" in res.stderr


# -- fuzz: one edited field of a fixture, every command -----------------------

FUZZ_FIXTURES = ("b2.json", "kronecker.json")
FUZZ_VALUES = (0, 1, -1, 2, -3, 7, 2**31 - 1, -(2**31 - 1), 2**31, 2**40, 1.5, "1", None, True, [], {})
FUZZ_COMMANDS = (
    ("mutate", "121"),
    ("scatter", "--order", "3"),
    ("scatter-check", "--completed", "--order", "3"),
    ("scatter-mutate", "--k", "1", "--order", "3"),
    ("theta", "--m", "-1,0", "--order", "3"),
)


def _fields(node, path=()):
    """The path of keys and indices of every field below a JSON node."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _fields(child, path + (key,))


@st.composite
def one_field_edits(draw):
    """A fixture, one of its fields, and an edit of it: a new value (another
    type, sign or size), removal (a missing key or a shorter list), or, for a
    list, one more copy of its last entry."""
    name = draw(st.sampled_from(FUZZ_FIXTURES))
    doc = json.loads(fixture_text(name))
    path = draw(st.sampled_from(list(_fields(doc))))
    target = reduce(getitem, path, doc)
    kinds = [st.tuples(st.just("set"), st.sampled_from(FUZZ_VALUES)), st.just(("delete",))]
    if isinstance(target, list) and target:
        kinds.append(st.just(("grow",)))
    return name, path, draw(st.one_of(kinds))


def _edited(name, path, edit):
    doc = json.loads(fixture_text(name))
    *head, last = path
    parent = reduce(getitem, head, doc)
    if edit[0] == "set":
        parent[last] = edit[1]
    elif edit[0] == "delete":
        del parent[last]
    else:
        parent[last].append(copy.deepcopy(parent[last][-1]))
    return doc


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "edited.json"


@settings(max_examples=100, derandomize=True, deadline=None)
@given(edit=one_field_edits())
@example(edit=("b2.json", ("coeffs", 0, 0, "exponents", 0), ("set", 2**31 - 1)))
@example(edit=("b2.json", ("cluster", 0, "num", 0, "m", 0), ("set", 2**31 - 1)))
def test_one_edited_field_never_ends_in_a_traceback(fuzz_path, edit):
    """Every command on a fixture with one field edited exits 0, or 2 with a
    message, or 1 naming the violated invariant; never with a traceback."""
    fuzz_path.write_text(json.dumps(_edited(*edit)))
    runner = CliRunner()
    for command, *args in FUZZ_COMMANDS:
        res = runner.invoke(cli, [command, "--seed", str(fuzz_path), *args])
        where = (edit, command, res.exit_code, res.output[-300:])
        assert res.exception is None or isinstance(res.exception, SystemExit), (where, repr(res.exception))
        assert "Traceback" not in res.output, where
        if res.exit_code == 2:
            assert "Error: " in res.output, where
        elif res.exit_code == 1:
            assert "invariant violated: " in res.output, where
        else:
            assert res.exit_code == 0, where


# -- one exit-code policy for every command ------------------------------------

# each command, and the library call in its body that a test makes fail
POLICY_COMMANDS = [
    (["mutate", "--seed", "b2.json", "121"], CLI_MODULE, "pattern_walk"),
    (["scatter", "--seed", "b2.json"], CLI_MODULE, "complete_rank2"),
    (["scatter-check", "--seed", "b2.json"], CLI_MODULE, "check_consistency"),
    (["scatter-mutate", "--seed", "b2.json", "--k", "1"], CLI_MODULE, "tk_invariance_check"),
    (["theta", "--seed", "b2.json", "--m", "-1,0"], CLI_MODULE, "_theta"),
    (["verify", "--suite", "b2-chart"], _verify, "run_suite"),
]
POLICY = [
    (InvariantViolation, 1, "Error: invariant violated: boom"),
    (GenericityError, 1, "Error: boom"),
    (ValueError, 2, "Error: boom"),
    (IndexError, 2, "Error: boom"),
    (OverflowError, 2, "Error: boom"),
]


@pytest.mark.parametrize("error, code, message", POLICY, ids=[e.__name__ for e, _, _ in POLICY])
@pytest.mark.parametrize("args, module, name", POLICY_COMMANDS, ids=[a[0] for a, _, _ in POLICY_COMMANDS])
def test_every_command_shares_one_exit_code_policy(runner, monkeypatch, args, module, name, error, code, message):
    def fail(*_args, **_kwargs):
        raise error("boom")

    monkeypatch.setattr(module, name, fail)
    res = runner.invoke(cli, args)
    assert isinstance(res.exception, SystemExit)  # handled, no traceback
    assert res.exit_code == code
    assert res.stdout == "" and res.stderr.endswith(message + "\n")
    if code == 2:
        assert res.stderr.startswith(f"Usage: cli {args[0]} [OPTIONS]")


def exhaust(*_args, **_kwargs):
    raise MemoryError


@pytest.mark.parametrize("args, module, name", POLICY_COMMANDS, ids=[a[0] for a, _, _ in POLICY_COMMANDS])
def test_memory_exhaustion_exits_2_with_one_line(runner, monkeypatch, args, module, name):
    """One line naming the command and, where it has one, its --order (the
    default here); nothing on stdout and no traceback."""
    monkeypatch.setattr(module, name, exhaust)
    res = runner.invoke(cli, args)
    assert isinstance(res.exception, SystemExit) and res.exit_code == 2
    order = {"scatter": 6, "scatter-check": 6, "scatter-mutate": 4, "theta": 6}.get(args[0])
    at = f" at --order {order}" if order else ""
    assert res.stdout == "" and res.stderr == f"Error: {args[0]} ran out of memory{at}\n"
    assert "Traceback" not in res.output


def test_memory_exhaustion_names_the_order_asked_for(runner, monkeypatch):
    monkeypatch.setattr(CLI_MODULE, "tk_invariance_check", exhaust)
    res = runner.invoke(cli, ["scatter-mutate", "--order=9", "--seed", "b2.json", "--k", "1"])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr == "Error: scatter-mutate ran out of memory at --order 9\n"


def test_only_the_group_maps_exceptions_to_exit_codes():
    """No command body holds a ``try``: ``_Group.invoke`` maps library
    exceptions, and the only other handlers add what it cannot know (the
    seed path, the output path, the exponent text)."""
    tree = ast.parse(open(CLI_MODULE.__file__).read())
    functions = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
    commands = [fn for fn in functions if any(ast.unparse(d).startswith("cli.command(") for d in fn.decorator_list)]
    handlers = {fn.name for fn in functions if any(isinstance(node, ast.Try) for node in ast.walk(fn))}
    assert len(commands) == len(cli.commands) == 6
    assert not handlers & {fn.name for fn in commands}
    assert handlers == {"invoke", "_load_seed", "_write", "_parse_vector"}


# -- fuzz: one bad option value, every command ---------------------------------

BIG = 2**31 - 1
OPTION_VALUES = ("-1", "0", "1", str(2**31), str(2**40), "x", "1,2,3", "1.5,0", "")
M_VALUES = (
    "-1,0", "0,0", "x", "1,2,3", "1.5,0", "", "-1000,0", "-990,1", "0,-1000",
    f"1,-{BIG}", f"{BIG},0", f"-{BIG},-{BIG}", f"-{BIG + 1},0", f"{2**40},1",
)
WORD_VALUES = ("", "33", "0", "3", "1221", "121", "1,2,1", "x1", "1 2", str(2**31), "-1")
# (command with the fuzzed option last, values); --order stays at most 3 wherever it is not fuzzed
OPTION_FUZZ = [
    (["mutate"], WORD_VALUES),
    (["scatter", "--order"], OPTION_VALUES),
    (["scatter-check", "--completed", "--order"], OPTION_VALUES),
    (["scatter-mutate", "--order", "3", "--k"], OPTION_VALUES),
    (["scatter-mutate", "--k", "1", "--order"], OPTION_VALUES),
    (["theta", "--order", "3", "--m"], M_VALUES),
    (["theta", "--m", "-1,0", "--order"], OPTION_VALUES),
    (["theta", "--m", "-1,0", "--order", "3", "--q-seed"], OPTION_VALUES),
]


@pytest.mark.parametrize("fixture", FUZZ_FIXTURES)
@pytest.mark.parametrize("command, values", OPTION_FUZZ, ids=[" ".join(c) for c, _ in OPTION_FUZZ])
def test_a_bad_option_value_never_ends_in_a_traceback(runner, fixture, command, values):
    """Each value exits 0, 1 or 2, and an exit 2 carries a message."""
    for value in values:
        res = runner.invoke(cli, [command[0], "--seed", fixture, *command[1:], value])
        where = (command, value, res.exit_code, res.output[-300:])
        assert res.exception is None or isinstance(res.exception, SystemExit), (where, repr(res.exception))
        assert "Traceback" not in res.output and res.exit_code in (0, 1, 2), where
        if res.exit_code == 2:
            assert "Error: " in res.output, where


@pytest.mark.parametrize("fixture", FUZZ_FIXTURES)
def test_a_bad_trace_path_never_ends_in_a_traceback(runner, fixture, tmp_path):
    (tmp_path / "dir").mkdir()
    # an empty path names no file
    paths = {"": 2, str(tmp_path / "t.json"): 0, str(tmp_path / "dir"): 2, str(tmp_path / "missing" / "t.json"): 2}
    for path, code in paths.items():
        res = runner.invoke(cli, ["theta", "--seed", fixture, "--m", "-1,0", "--order", "3", "--trace", path])
        assert res.exception is None or isinstance(res.exception, SystemExit), (path, repr(res.exception))
        assert res.exit_code == code, (path, res.output[-300:])
        if code == 2:
            assert "Error: " in res.output, path
