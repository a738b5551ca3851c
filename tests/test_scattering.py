"""Wall diagrams: construction, crossings, completion, mutation transform."""

import json
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

from clusterscatter.cluster_core import (
    FixedData,
    InvariantViolation,
    _chamber_walk,
    _frame_step,
    initial_g_frame,
    initial_seed,
    matrix_mutate,
    pattern_walk,
    seed_from_json,
    seed_key,
    seed_mutate,
    unimodular_inverse_transpose,
)
from clusterscatter.cli import cli
from clusterscatter.fixtures import load_fixture
from clusterscatter.monoid_ring import LaurentSeries, series_mul, series_pow, series_unit_inverse
from clusterscatter.scattering import (
    ConsistencyReport,
    PathSpec,
    PositivityError,
    ScatteringDiagram,
    Wall,
    build_initial,
    canonical_form,
    check_consistency,
    cluster_chamber_walls,
    complete_rank2,
    diagram_to_json,
    diagram_truncate,
    diagrams_equivalent,
    render_svg,
    tk_invariance_check,
    tk_transform,
    wall_label,
    _angle_key,
    _completed,
    _grading_data,
    _primitive,
    _turn,
    seed_frame,
)
from clusterscatter.semifield import block_range

from oracles import omega, one_generator_diagram, path_ordered_product, permute_blocks, specialize

B2 = FixedData(((0, -2), (1, 0)), (1, 2), (1, 2))
KRON = FixedData(((0, -2), (2, 0)), (1, 1), (2, 2))
A2 = FixedData(((0, -1), (1, 0)), (1, 1), (1, 1))
ZERO = FixedData(((0, 0), (0, 0)), (1, 1), (1, 1))
A3 = FixedData(((0, 1, 0), (-1, 0, 1), (0, -1, 0)), (1, 1, 1), (1, 1, 1))
WILD33 = FixedData(((0, -3), (3, 0)), (1, 1), (3, 3))
G2 = FixedData(((0, -3), (1, 0)), (1, 3), (1, 3))


def group_seed(data):
    return initial_seed(data, with_cluster=False, semifield=False)


@pytest.fixture(scope="module")
def b2_completed():
    return complete_rank2(build_initial(group_seed(B2), 6))


@pytest.fixture(scope="module")
def kron_completed():
    return complete_rank2(build_initial(group_seed(KRON), 6))


def outgoing_by_ray(D):
    return {w.ray: w for w in D.walls if not w.incoming}


def printed_normals(D):
    """(grading normal, acting normal) of each wall of D, in wall order, as
    ``diagram_to_json`` prints them."""
    return [(tuple(e["normal"]), tuple(int(x) for x in e["acting_normal"])) for e in diagram_to_json(D)["walls"]]


def angle(v):
    a = math.atan2(v[1], v[0])
    return a if a >= 0 else a + 2 * math.pi


def turn(a, b):
    """Counterclockwise angle from direction a to direction b, in [0, 2pi)."""
    return (angle(b) - angle(a)) % (2 * math.pi)


DIRECTION = st.tuples(st.integers(-15, 15), st.integers(-15, 15)).filter(lambda v: v != (0, 0))


def off_rays(D, *directions):
    rays = {w.ray for w in D.walls}
    for v in directions:
        g = math.gcd(*v)
        if (v[0] // g, v[1] // g) in rays:
            return False
    return True


# -- wall objects -------------------------------------------------------------


class TestWall:
    def test_combines_repeated_factors(self):
        w = Wall((0, 1), (((1, 0), (0, 1), 1), ((1, 0), (0, 1), 1)), incoming=True)
        assert w.factors == (((1, 0), (0, 1), 2),)

    def test_rejects_non_tangent_monomial(self):
        with pytest.raises(InvariantViolation):
            Wall((0, 1), (((1, 0), (1, 0), 1),))

    def test_rejects_ray_off_the_wall(self):
        with pytest.raises(InvariantViolation):
            Wall((1, 1), (((1, 0), (0, 1), 1),))

    def test_rejects_a_monomial_off_the_plane(self):
        with pytest.raises(InvariantViolation, match="not tangent to the wall"):
            Wall((0, 1), (((1, 0), (0, 1, 0), 1),))

    def test_rejects_negative_exponent(self):
        with pytest.raises(PositivityError):
            Wall((0, 1), (((1, 0), (0, 1), -1),))

    @pytest.mark.parametrize(
        "support", [((0, 1), (0, -1)), (0, 1, 0), ()], ids=["two-rays", "space-ray", "no-ray"]
    )
    def test_rejects_a_support_that_is_not_one_plane_ray(self, support):
        with pytest.raises(ValueError, match="exactly one ray of the plane"):
            Wall(support, (((1, 0), (0, 1), 1),))

    def test_support_primitivized(self):
        w = Wall((0, 3), (((1, 0), (0, 1), 1),))
        assert w.ray == (0, 1)

    def test_function_expansion(self):
        w = Wall((0, 1), (((1, 0), (0, 2), 2),))
        f = w.function(7)
        terms = {(e.m, e.t): c for e, c in f.terms.items()}
        assert terms[((0, 0), (0, 0))] == 1
        assert terms[((0, 2), (1, 0))] == 2
        assert terms[((0, 4), (2, 0))] == 1


@pytest.fixture(scope="module")
def b2_file_d4():
    """The B2 seed of ``b2.json`` in group mode, completed at order 4."""
    return complete_rank2(build_initial(seed_from_json(load_fixture("b2.json"), semifield=False), 4))


def with_wall(D, wall):
    return ScatteringDiagram(D.walls + (wall,), D.order, D.seed)


class TestAtomRule:
    """A wall factor (1 + t^a z^m)^c has int entries, and coefficient degree
    at least 1 in the diagram seed's own basis, so its function is 1 modulo
    the maximal ideal.  A factor that breaks the rule raises one ValueError
    where the wall or the diagram is made, so no crossing, search or printer
    ever runs on it."""

    @pytest.mark.parametrize(
        "t, message",
        [
            ((0, 0, 0), r"t\^\(0, 0, 0\) z\^\(1, 1\)\) has degree 0 < 1 in the seed's basis"),
            ((1, 0), r"t\^\(1, 0\) needs 3 coefficient exponents"),
            ((1, -1, 0), r"t\^\(1, -1, 0\) z\^\(1, 1\)\) has degree 0 < 1 in the seed's basis"),
        ],
        ids=["zero-coefficient", "wrong-length", "degree-0"],
    )
    def test_diagram_refuses_a_factor_that_breaks_the_rule(self, b2_file_d4, t, message):
        with pytest.raises(ValueError, match=message):
            with_wall(b2_file_d4, Wall((1, 1), ((t, (1, 1), 1),)))

    def test_degree_is_counted_in_the_seeds_own_basis(self):
        """On the sheared B2 seed, t^(0,1,0) has degree 1 in the initial
        basis and 0 in the seed's."""
        D = complete_rank2(build_initial(SHEARED_B2, 4))
        assert D.frame.to_fresh((0, 1, 0)) == (-1, 1, 0)
        with pytest.raises(ValueError, match=r"t\^\(0, 1, 0\) z\^\(1, 1\)\) has degree 0 < 1"):
            with_wall(D, Wall((1, 1), (((0, 1, 0), (1, 1), 1),)))

    def test_wall_refuses_entries_that_are_not_ints(self):
        for atom in (((1.5, 0, 0), (1.9, 0), 2.7), ((1, 0, 0), (1, 0), 2.0)):
            with pytest.raises(ValueError, match="wall factor entries must be ints"):
                Wall((1, 0), [atom])

    def test_a_grading_out_of_the_cone_fails_every_reader_alike(self, b2_file_d4):
        """An atom of degree 1 graded (2, -1), out of the positive cone, is
        built (construction checks the degree only), and every reader that
        crosses or searches it raises the same InvariantViolation: the
        broken-line search checks the cone once per (diagram, order)."""
        from clusterscatter.theta import enumerate_broken_lines, theta

        D = with_wall(b2_file_d4, Wall((1, 1), [((2, -1, 0), (1, 1), 1)]))
        calls = [
            lambda: theta(D, (-1, 0)),
            lambda: theta(D, (0, 0), 2),
            lambda: enumerate_broken_lines(D, (-1, 0), (Fraction(17, 5), Fraction(9, 7))),
            lambda: check_consistency(D),
            lambda: complete_rank2(D),
            lambda: diagram_to_json(D),
        ]
        for call in calls:
            with pytest.raises(InvariantViolation, match=r"^coefficient monomial grading \(2, -1\) leaves the positive cone$"):
                call()

    def test_wall_refuses_an_empty_factor_list(self):
        """Also when its factors cancel once merged."""
        for factors in ((), (((1, 0, 0), (1, -1), 1), ((1, 0, 0), (1, -1), -1))):
            with pytest.raises(ValueError, match="a wall carries at least one factor"):
                Wall((1, -1), factors)


class TestAngleOrder:
    @given(
        st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(lambda v: v != (0, 0)),
        st.tuples(st.integers(-40, 40), st.integers(-40, 40)).filter(lambda v: v != (0, 0)),
    )
    @settings(max_examples=300)
    def test_matches_atan2(self, u, v):
        def ang(w):
            a = math.atan2(w[1], w[0])
            return a if a >= 0 else a + 2 * math.pi

        if abs(ang(u) - ang(v)) > 1e-12:
            assert (_angle_key(u) < _angle_key(v)) == (ang(u) < ang(v))
        else:
            assert _angle_key(u) == _angle_key(v)

    @given(DIRECTION, DIRECTION, DIRECTION, st.booleans())
    @settings(max_examples=300)
    def test_turn_matches_atan2(self, start, u, v, ccw):
        """The angle turned from ``start`` in the direction of travel, the
        start's own direction first (a turn of 0, not of 2 pi)."""

        def turned(w):
            a = turn(start, w) if ccw else turn(w, start)
            return 0.0 if a > 2 * math.pi - 1e-12 else a

        if abs(turned(u) - turned(v)) > 1e-12:
            assert (_turn(u, start, ccw) < _turn(v, start, ccw)) == (turned(u) < turned(v))
        else:
            assert _turn(u, start, ccw) == _turn(v, start, ccw)


# -- frames: the g-frame step against the plus-signed replay ------------------


def _valid_rank2():
    out = []
    for b12, b21, d1, d2, r1, r2 in product(range(1, 5), range(1, 5), *[range(1, 4)] * 4):
        try:
            out.append(FixedData(((0, -b12), (b21, 0)), (d1, d2), (r1, r2)))
        except ValueError:
            pass
    return out


RANK2 = _valid_rank2()
# p11 = t11, p21 = t11*t21, p22 = t22: a coefficient basis that is not the standard one
SHEARED_B2 = initial_seed(B2, (((1, 0, 0),), ((1, 1, 0), (0, 0, 1))), with_cluster=False, semifield=False)


def reference_basis_rows(E, B, a):
    """Plus-signed basis mutation in ambient coordinates."""
    rows = []
    for i in range(len(E)):
        if i == a:
            rows.append(tuple(-x for x in E[a]))
        else:
            c = max(-B[i][a], 0)
            rows.append(tuple(x + c * y for x, y in zip(E[i], E[a])))
    return tuple(rows)


def reference_normal(data, e_row, k0):
    """omega(-, (d_k/r_k) e_k) in dual coordinates, for e_k in ambient
    basis coordinates."""
    scale = Fraction(data.d[k0], data.r[k0])
    out = []
    for a in range(data.n):
        v = omega(data, tuple(int(b == a) for b in range(data.n)), e_row) * scale
        assert v.denominator == 1
        out.append(int(v))
    return tuple(out)


def reference_grading(data, E, alpha):
    """(alpha, n0, acting, m) with nbar = sum_i alpha_i (d_i/r_i) e_i in
    Fractions: acting is nbar cleared of denominators, m = omega(-, nbar)."""
    n = data.n
    n_vec = tuple(sum(alpha[i] * E[i][b] for i in range(n)) for b in range(n))
    nbar = tuple(
        sum(Fraction(alpha[i] * data.d[i], data.r[i]) * E[i][b] for i in range(n))
        for b in range(n)
    )
    denom = math.lcm(*(x.denominator for x in nbar))
    acting = _primitive([int(x * denom) for x in nbar])
    m = []
    for b in range(n):
        v = omega(data, tuple(int(a == b) for a in range(n)), nbar)
        assert v.denominator == 1
        m.append(int(v))
    return _primitive(n_vec), acting, tuple(m)


class TestFrameOracle:
    def test_box_of_valid_data(self):
        assert len(RANK2) == 37

    @given(
        st.sampled_from(RANK2),
        st.lists(st.integers(1, 2), max_size=6),
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any),
    )
    @settings(max_examples=300, deadline=None)
    def test_frame_step_and_grading_match_the_plus_signed_replay(self, data, word, alpha):
        s = pattern_walk(group_seed(data), word)
        E, B = ((1, 0), (0, 1)), data.B
        G = initial_g_frame(data)
        for k in s.word:
            E = reference_basis_rows(E, B, k - 1)
            G = _frame_step(G, B, k, 1)
            B = matrix_mutate(B, k)
        frame = seed_frame(s)
        assert frame.E == G.gstar == E
        assert frame.W == tuple(reference_normal(data, E[i], i) for i in range(2))
        assert G.g == unimodular_inverse_transpose(E)
        t = [0] * sum(s.coeff_orders)
        for i in range(2):
            t[block_range(s.coeff_orders, i)[-1]] = alpha[i]
        assert _grading_data(frame, t) == reference_grading(data, E, alpha)


# -- one frame per seed ---------------------------------------------------------


class TestFrameMemo:
    def test_diagrams_over_one_seed_share_its_frame(self):
        s = pattern_walk(group_seed(B2), (2, 1))
        built = build_initial(s, 4)
        completed = complete_rank2(built)
        moved = tk_transform(built, 1)
        assert completed.frame is built.frame is diagram_truncate(completed, 2).frame
        assert moved.frame is build_initial(moved.seed, 4).frame
        for D in (built, completed, moved):
            bare = ScatteringDiagram(D.walls, D.order, D.seed)
            assert D.frame == seed_frame(D.seed) == bare.frame
            assert D == bare and hash(D) == hash(bare) and repr(D) == repr(bare)
            assert diagram_to_json(D) == diagram_to_json(bare)

    def test_verify_all_replays_each_seed_frame_once(self, monkeypatch):
        """One ``verify --suite all`` replayed 103 seed frames for 6 seeds
        when every diagram replayed its own."""
        scattering = sys.modules["clusterscatter.scattering"]
        real, seeds = seed_frame, []

        def counted(s):
            seeds.append(seed_key(s))
            return real(s)

        monkeypatch.setattr(scattering, "seed_frame", counted)
        scattering._frame_of.cache_clear()
        res = CliRunner().invoke(cli, ["verify", "--suite", "all"])
        assert res.exit_code == 0, res.output
        assert len(set(seeds)) == len(seeds) == 6


# -- initial diagrams ---------------------------------------------------------


class TestBuildInitial:
    def test_b2_walls(self):
        D = build_initial(group_seed(B2), 6)
        by_ray = {w.ray: w for w in D.walls}
        assert set(by_ray) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
        assert all(w.incoming for w in D.walls)
        assert by_ray[(0, 1)].factors == (((1, 0, 0), (0, 1), 1),)
        assert by_ray[(0, -1)].factors == (((1, 0, 0), (0, 1), 1),)
        x_atoms = (((0, 0, 1), (-1, 0), 1), ((0, 1, 0), (-1, 0), 1))
        assert by_ray[(1, 0)].factors == x_atoms
        assert by_ray[(-1, 0)].factors == x_atoms
        normals = {w.ray: n for w, n in zip(D.walls, printed_normals(D))}
        assert normals[(0, 1)] == normals[(0, -1)] == ((1, 0), (1, 0))
        assert normals[(1, 0)] == normals[(-1, 0)] == ((0, 1), (0, 1))

    def test_kron_walls(self):
        D = build_initial(group_seed(KRON), 6)
        by_ray = {w.ray: w for w in D.walls}
        assert by_ray[(0, 1)].factors == (
            ((0, 1, 0, 0), (0, 1), 1),
            ((1, 0, 0, 0), (0, 1), 1),
        )
        assert by_ray[(1, 0)].factors == (
            ((0, 0, 0, 1), (-1, 0), 1),
            ((0, 0, 1, 0), (-1, 0), 1),
        )

    def test_rejects_semifield_seed(self):
        with pytest.raises(ValueError):
            build_initial(initial_seed(B2, with_cluster=False, semifield=True), 6)

    def test_rejects_rank3_seed(self):
        with pytest.raises(ValueError, match="rank-2 seeds only"):
            build_initial(group_seed(A3), 6)

    def test_diagram_rejects_rank3_seed(self):
        with pytest.raises(ValueError, match="rank-2 seeds only"):
            ScatteringDiagram((), 6, group_seed(A3))

    def test_order_must_fit_a_packed_slot(self):
        """Series run to order + 1, and the largest packed slot is 2^31 - 1."""
        assert build_initial(group_seed(B2), 2**31 - 2).order == 2**31 - 2
        with pytest.raises(ValueError, match="order \\+ 1 must fit a packed slot"):
            build_initial(group_seed(B2), 2**31 - 1)

    def test_zero_matrix_consistent(self):
        D = build_initial(group_seed(ZERO), 5)
        assert check_consistency(D).consistent
        assert complete_rank2(D).walls == D.walls


# -- paths --------------------------------------------------------------------


class TestFan:
    def test_one_entry_per_ray_with_its_atoms_in_the_seed_basis(self):
        """Over a mutated seed, whose coefficient basis is not the initial
        one, and with its walls split one factor each so that rays carry
        several walls: the fan lists each ray once, in the order of the walls;
        its atoms map back to the factors of the ray's walls; it does not
        depend on the order the walls are given in, and it is built once."""
        D = complete_rank2(build_initial(pattern_walk(group_seed(KRON), (2, 1)), 6))
        frame = D.frame
        assert any(frame.to_fresh(t) != t for w in D.walls for t, _, _ in w.factors)
        split = ScatteringDiagram([replace(w, factors=(a,)) for w in D.walls for a in w.factors], D.order, D.seed)
        assert len(split.walls) > len(split.fan) == len(D.fan)
        for E in (D, split):
            assert [ray for ray, _ in E.fan] == list(dict.fromkeys(w.ray for w in E.walls))
            for ray, atoms in E.fan:
                walls = [w for w in E.walls if w.ray == ray]
                assert sorted((frame.to_old(t), m, c) for t, m, c in atoms) == sorted(a for w in walls for a in w.factors)
            assert ScatteringDiagram(E.walls[::-1], E.order, E.seed).fan == E.fan
            assert E.fan is E.fan


class TestPathOrderedProduct:
    def test_loop_on_completed_is_identity(self, b2_completed):
        P = path_ordered_product(b2_completed, PathSpec((3, -1), (3, -1), ccw=True, loop=True))
        assert P.is_identity()
        P = path_ordered_product(b2_completed, PathSpec((5, 1), (5, 1), ccw=False, loop=True))
        assert P.is_identity()

    def test_loop_on_initial_is_not(self):
        D = build_initial(group_seed(B2), 6)
        P = path_ordered_product(D, PathSpec((3, -1), (3, -1), ccw=True, loop=True))
        assert not P.is_identity()

    def test_loop_on_every_rank2_datum(self):
        """On the 37 valid rank-2 data at order 4, the counterclockwise loop
        is the identity on the completed diagram and on no initial one."""
        loop = PathSpec((1009, -1013), (1009, -1013), ccw=True, loop=True)
        assert len(RANK2) == 37
        for data in RANK2:
            D = build_initial(group_seed(data), 4)
            assert path_ordered_product(complete_rank2(D), loop).is_identity(), data
            assert not path_ordered_product(D, loop).is_identity(), data

    def test_arcs_compose(self, b2_completed):
        C = b2_completed
        P1 = path_ordered_product(C, PathSpec((3, -1), (1, 1), ccw=True))
        P2 = path_ordered_product(C, PathSpec((1, 1), (-1, 2), ccw=True))
        P12 = path_ordered_product(C, PathSpec((3, -1), (-1, 2), ccw=True))
        assert P2.compose(P1).eq_mod_order(P12)

    def test_reverse_arc_inverts(self, b2_completed):
        C = b2_completed
        fwd = path_ordered_product(C, PathSpec((3, -1), (1, 1), ccw=True))
        back = path_ordered_product(C, PathSpec((1, 1), (3, -1), ccw=False))
        assert back.compose(fwd).is_identity()

    def test_wraparound_arc(self, b2_completed):
        C = b2_completed
        # crossing the positive x-axis direction both ways
        fwd = path_ordered_product(C, PathSpec((1, -3), (1, 1), ccw=True))
        back = path_ordered_product(C, PathSpec((1, 1), (1, -3), ccw=False))
        assert back.compose(fwd).is_identity()

    @given(DIRECTION, DIRECTION, DIRECTION)
    @settings(max_examples=30, deadline=None)
    def test_random_arcs(self, b2_completed, a, b, c):
        C = b2_completed
        assume(off_rays(C, a, b, c))
        ab = path_ordered_product(C, PathSpec(a, b, ccw=True))
        bc = path_ordered_product(C, PathSpec(b, c, ccw=True))
        ac = path_ordered_product(C, PathSpec(a, c, ccw=True))
        assert bc.compose(ab).eq_mod_order(ac)
        ba = path_ordered_product(C, PathSpec(b, a, ccw=False))
        assert ba.compose(ab).is_identity()
        for ccw in (True, False):
            assert path_ordered_product(C, PathSpec(a, a, ccw=ccw, loop=True)).is_identity()

    @given(DIRECTION, DIRECTION, DIRECTION)
    @settings(max_examples=30, deadline=None)
    def test_random_arcs_compose_on_initial(self, a, b, c):
        # the initial diagram is not consistent, so a turn past the start
        # would not cancel: only arcs a -> b -> c inside one turn compose
        D = build_initial(group_seed(B2), 6)
        assume(off_rays(D, a, b, c))
        assume(0 < turn(a, b) < turn(a, c))
        ab = path_ordered_product(D, PathSpec(a, b, ccw=True))
        bc = path_ordered_product(D, PathSpec(b, c, ccw=True))
        ac = path_ordered_product(D, PathSpec(a, c, ccw=True))
        assert bc.compose(ab).eq_mod_order(ac)
        cb = path_ordered_product(D, PathSpec(c, b, ccw=False))
        assert cb.compose(ac).eq_mod_order(ab)

    @pytest.mark.parametrize("ccw", [True, False], ids=["ccw", "cw"])
    def test_path_that_ends_in_its_start_direction_crosses_nothing(self, ccw):
        """Only a loop turns all the way round: a path that ends the way it
        starts, at the start or at twice it, crosses no ray."""
        bare = build_initial(group_seed(B2), 4)
        for D in (bare, complete_rank2(bare)):
            for a in ((3, -1), (-1, 2), (5, 1)):
                for end in (a, (2 * a[0], 2 * a[1])):
                    assert path_ordered_product(D, PathSpec(a, end, ccw=ccw)).is_identity(), (D is bare, a, end)
            loop = PathSpec((3, -1), (3, -1), ccw=ccw, loop=True)
            assert path_ordered_product(D, loop).is_identity() is (D is not bare)

    def test_endpoint_on_wall_rejected(self, b2_completed):
        with pytest.raises(ValueError):
            path_ordered_product(b2_completed, PathSpec((1, -1), (1, 1)))
        with pytest.raises(ValueError):
            path_ordered_product(b2_completed, PathSpec((0, 0), (1, 1)))


# -- consistency reports ------------------------------------------------------


class TestConsistency:
    def test_initial_b2_fails_at_degree_two(self):
        rep = check_consistency(build_initial(group_seed(B2), 6))
        assert isinstance(rep, ConsistencyReport)
        assert not rep.consistent
        assert rep.first_failure_degree == 2
        got = {(e.t, e.m, c) for c, e, _ in rep.discrepancy}
        assert got == {
            ((1, 0, 1), (-1, 1), 1),
            ((1, 1, 0), (-1, 1), 1),
        }
        assert all(n == (1, 1) for _, _, n in rep.discrepancy)

    def test_completed_passes(self, b2_completed, kron_completed):
        assert check_consistency(b2_completed).consistent
        assert check_consistency(kron_completed).consistent


# -- completion ---------------------------------------------------------------


# (data, order) of the generator-rich checks: r=(3,3), the Kronecker data and
# the 25 data with some r_i > 1
SPECIALIZATION_CASES = [(WILD33, 6), (WILD33, 8), (KRON, 8)] + [(d, 4) for d in RANK2 if max(d.r) > 1]
BLOCK_IDS = lambda v: f"o{v}" if isinstance(v, int) else f"b{-v.B[0][1]},{v.B[1][0]}-d{v.d[0]},{v.d[1]}-r{v.r[0]},{v.r[1]}"


class TestCompletion:
    def test_a2_pentagon(self):
        C = complete_rank2(build_initial(group_seed(A2), 6))
        out = outgoing_by_ray(C)
        assert set(out) == {(1, -1)}
        assert out[(1, -1)].factors == (((1, 1), (-1, 1), 1),)

    def test_b2_golden(self, b2_completed):
        out = outgoing_by_ray(b2_completed)
        assert set(out) == {(1, -1), (2, -1)}
        assert out[(1, -1)].factors == (
            ((1, 0, 1), (-1, 1), 1),
            ((1, 1, 0), (-1, 1), 1),
        )
        assert out[(2, -1)].factors == (((1, 1, 1), (-2, 1), 1),)
        normals = {w.ray: n for w, n in zip(b2_completed.walls, printed_normals(b2_completed)) if not w.incoming}
        assert normals[(1, -1)][1] == (1, 1)
        assert normals[(2, -1)] == ((1, 2), (1, 2))

    def test_b2_idempotent_and_deterministic(self, b2_completed):
        again = complete_rank2(build_initial(group_seed(B2), 6))
        assert again.walls == b2_completed.walls
        assert complete_rank2(b2_completed).walls == b2_completed.walls

    def test_kron_order_six_golden(self, kron_completed):
        out = outgoing_by_ray(kron_completed)
        assert set(out) == {(1, -1), (2, -1), (1, -2), (3, -2), (2, -3)}
        assert out[(2, -1)].factors == (
            ((0, 1, 1, 1), (-2, 1), 1),
            ((1, 0, 1, 1), (-2, 1), 1),
        )
        assert out[(1, -2)].factors == (
            ((1, 1, 0, 1), (-1, 2), 1),
            ((1, 1, 1, 0), (-1, 2), 1),
        )
        assert out[(3, -2)].factors == (
            ((1, 1, 1, 2), (-3, 2), 1),
            ((1, 1, 2, 1), (-3, 2), 1),
        )
        assert out[(2, -3)].factors == (
            ((1, 2, 1, 1), (-2, 3), 1),
            ((2, 1, 1, 1), (-2, 3), 1),
        )
        assert out[(1, -1)].factors == (
            ((0, 1, 0, 1), (-1, 1), 1),
            ((0, 1, 1, 0), (-1, 1), 1),
            ((1, 0, 0, 1), (-1, 1), 1),
            ((1, 0, 1, 0), (-1, 1), 1),
            ((1, 1, 1, 1), (-2, 2), 4),
        )

    def test_kron_order_ten_matches_closed_form(self):
        C = complete_rank2(build_initial(group_seed(KRON), 10))
        out = outgoing_by_ray(C)
        # new rays past order six, one family step further out
        assert set(out) == {
            (1, -1), (2, -1), (1, -2), (3, -2), (2, -3), (4, -3), (3, -4), (5, -4), (4, -5),
        }
        so = 11
        one = LaurentSeries.one(2, 4, so)
        num = one
        for sa in ((1, 0, 0, 0), (0, 1, 0, 0)):
            for tb in ((0, 0, 1, 0), (0, 0, 0, 1)):
                tt = tuple(x + y for x, y in zip(sa, tb))
                num = series_mul(num, one + LaurentSeries.monomial((-1, 1), tt, 1, so))
        den = one - LaurentSeries.monomial((-2, 2), (1, 1, 1, 1), 1, so)
        closed = series_mul(num, series_pow(series_unit_inverse(den), 4))
        assert out[(1, -1)].function(so) == closed
        # the positive refactoring of the quartic denominator
        assert ((1, 1, 1, 1), (-2, 2), 4) in out[(1, -1)].factors
        assert ((2, 2, 2, 2), (-4, 4), 4) in out[(1, -1)].factors

    @pytest.mark.parametrize(
        "data, order",
        [(d, o) for o in (4, 5) for d in RANK2 if max(d.r) > 1] + [(WILD33, 8)],
        ids=BLOCK_IDS,
    )
    def test_completion_is_invariant_under_block_permutations(self, data, order):
        """Permuting the generators of one direction's block fixes its
        incoming wall, so by uniqueness of the consistent completion every
        permutation in S_{r_1} x S_{r_2} fixes the completed diagram."""
        D = complete_rank2(build_initial(group_seed(data), order))
        expected = canonical_form(D)
        blocks = [block_range(data.r, i) for i in range(2)]
        for p1, p2 in product(*map(permutations, blocks)):
            assert canonical_form(permute_blocks(D, p1 + p2)) == expected, (p1, p2)

    @pytest.mark.parametrize("data, order", SPECIALIZATION_CASES, ids=BLOCK_IDS)
    def test_completion_specializes_to_the_one_generator_completion(self, data, order):
        """Identifying the generators of each block, t_{i,j} -> t_i, keeps
        every degree, so it maps the completion onto the consistent
        completion of its image, the incoming walls (1 + t_i z^{w_i})^{r_i}
        (uniqueness of the consistent completion)."""
        D = complete_rank2(build_initial(group_seed(data), order))
        assert specialize(D) == canonical_form(complete_rank2(one_generator_diagram(data, order)))

    def test_non_basis_coefficients_rejected(self):
        bad = initial_seed(
            B2,
            coeffs=(((2, 0, 0),), ((0, 1, 0), (0, 0, 1))),
            with_cluster=False,
            semifield=False,
        )
        with pytest.raises(ValueError):
            complete_rank2(build_initial(bad, 4))


# -- mutation transform -------------------------------------------------------


@pytest.fixture(scope="module")
def tk_checks():
    """(data, k, ``tk_invariance_check`` at order 3) for the 37 data and k = 1, 2."""
    return [(data, k, tk_invariance_check(group_seed(data), k, 3)) for data in RANK2 for k in (1, 2)]


class TestMutationTransform:
    def test_b2_direction_two_golden(self, b2_completed):
        T = tk_transform(b2_completed, 2)
        assert T.seed.word == (2,)
        by_ray = {}
        for w in T.walls:
            by_ray.setdefault(w.ray, []).append(w)
        assert set(by_ray) == {(1, 0), (-1, 0), (-2, 1), (0, -1), (1, -1), (2, -1)}
        slab = (((0, -1, 0), (1, 0), 1), ((0, 0, -1), (1, 0), 1))
        assert by_ray[(1, 0)][0].factors == slab
        assert by_ray[(-1, 0)][0].factors == slab
        assert by_ray[(-2, 1)][0].factors == (((1, 1, 1), (-2, 1), 1),)
        assert by_ray[(0, -1)][0].factors == (((1, 0, 0), (0, 1), 1),)
        assert by_ray[(1, -1)][0].factors == (
            ((1, 0, 1), (-1, 1), 1),
            ((1, 1, 0), (-1, 1), 1),
        )
        assert by_ray[(2, -1)][0].factors == (((1, 1, 1), (-2, 1), 1),)

    @pytest.mark.parametrize("data", [B2, KRON], ids=["b2", "kron"])
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("order", [4, 6])
    def test_matches_completed_mutated_seed(self, data, k, order):
        _, _, ok = tk_invariance_check(group_seed(data), k, order)
        assert ok

    @pytest.mark.parametrize(
        "data, order", [(B2, 8), (KRON, 7), (WILD33, 5)], ids=["b2", "kron", "wild33"]
    )
    @pytest.mark.parametrize("k", [1, 2])
    def test_twice_matches_the_twice_mutated_seed(self, data, k, order):
        """T_k twice is no identity in group mode.  It is the completion of
        the seed mutated twice in direction k, whose word keeps both letters
        so that its frame replays both steps."""
        s = group_seed(data)
        twice = tk_transform(tk_transform(complete_rank2(build_initial(s, order)), k), k)
        s2 = seed_mutate(seed_mutate(s, k), k)
        assert twice.seed == s2 and s2.word == (k, k)
        assert diagrams_equivalent(twice, complete_rank2(build_initial(s2, order)))

    def test_matches_completed_mutated_seed_on_every_rank2_datum(self, tk_checks):
        """``tk_invariance_check`` for k = 1 and 2 on the 37 valid rank-2
        data of the box, at order 3."""
        assert len(RANK2) == 37
        for data, k, (_, _, ok) in tk_checks:
            assert ok, (data, k)

    def test_every_emitted_wall_is_graded_in_the_mutated_seed(self, tk_checks):
        """The same 74 checks: each wall of the transformed side that the
        mutated seed's completion also has (same ray, same factors) prints
        that wall's normals.  A kept wall, on the fixed side of the
        direction-k hyperplane, is graded in the mutated seed's frame like a
        bent one; grading kept walls in the source frame gets 74 of the 478
        normals wrong."""
        compared = 0
        for data, k, (lhs, rhs, _) in tk_checks:
            completed = {(w.ray, w.factors): n for w, n in zip(rhs.walls, printed_normals(rhs))}
            for w, normals in zip(lhs.walls, printed_normals(lhs)):
                expected = completed.get((w.ray, w.factors))
                if expected is not None:
                    compared += 1
                    assert normals == expected, (data, k, w)
        assert compared == 478

    @pytest.mark.parametrize("data", [B2, KRON], ids=["b2", "kron"])
    def test_a_shared_memo_changes_only_the_work_done(self, data, monkeypatch):
        """One memo over k in {1, 2} and the orders 6 and 4 gives what fresh
        calls give.  Afterwards each seed's entry is its completion at the
        deepest order asked of it, and an entry over another seed is
        refused."""
        s = group_seed(data)
        asked: dict = {}

        def spy(seed, order, memo):
            asked[seed] = max(asked.get(seed, 0), order)
            return _completed(seed, order, memo)

        monkeypatch.setattr("clusterscatter.scattering._completed", spy)
        memo: dict = {}
        for k in (1, 2):
            for o in (6, 4):
                shared, fresh = tk_invariance_check(s, k, o, memo), tk_invariance_check(s, k, o)
                assert shared[2] == fresh[2]
                assert [diagram_to_json(D) for D in shared[:2]] == [diagram_to_json(D) for D in fresh[:2]]
        assert memo.keys() == asked.keys() == {s, seed_mutate(s, 1), seed_mutate(s, 2)}
        for seed, D in memo.items():
            assert D.order == asked[seed]
            assert diagram_to_json(D) == diagram_to_json(complete_rank2(build_initial(seed, asked[seed])))
        other = {s: complete_rank2(build_initial(group_seed(A2), 6))}
        with pytest.raises(ValueError, match="^the memo holds a completion of another seed$"):
            tk_invariance_check(s, 1, 4, other)

    def test_a_source_beyond_the_limit_is_refused_before_it_is_completed(self, monkeypatch):
        """B = ((0,-4),(4,0)), r = (2,1): 3 coefficient generators, so the
        source order may reach 54 // 3 = 18.  For k = 1 the source needs
        order 17 at orders 3 and 4, the deepest of the 37 data, and order 25
        at order 5, which is refused once the mutated side is completed."""
        s = group_seed(FixedData(((0, -4), (4, 0)), (1, 1), (2, 1)))
        asked = []

        def spy(seed, order, memo):
            asked.append((seed, order))
            return _completed(seed, order, memo)

        monkeypatch.setattr("clusterscatter.scattering._completed", spy)
        with pytest.raises(ValueError) as refused:
            tk_invariance_check(s, 1, 5)
        assert str(refused.value) == (
            "the mutation check at order 5 needs the source completed to order 25 "
            "(limit 18 with 3 coefficient generators)"
        )
        assert asked == [(seed_mutate(s, 1), 5)]
        assert tk_invariance_check(s, 1, 4)[2]
        assert asked[-1] == (s, 17)

    def test_missing_slab_rejected(self, b2_completed):
        once = tk_transform(b2_completed, 2)
        with pytest.raises(ValueError):
            tk_transform(once, 1)  # direction-1 hyperplane of the new seed is absent


# -- chamber walls ------------------------------------------------------------


class TestChamberWalls:
    def test_b2_depth_six_equals_completed(self, b2_completed):
        walls = cluster_chamber_walls(group_seed(B2), 6)
        assert len(walls) == 6
        D = ScatteringDiagram(walls, 6, group_seed(B2))
        assert canonical_form(D) == canonical_form(b2_completed)
        assert diagrams_equivalent(D, b2_completed)

    def test_kron_depth_four(self, kron_completed):
        walls = cluster_chamber_walls(group_seed(KRON), 4)
        by_ray = {w.ray: w for w in walls}
        assert set(by_ray) == {
            (1, 0), (0, 1), (-1, 0), (0, -1),
            (2, -1), (3, -2), (4, -3), (5, -4), (2, -3), (1, -2),
        }
        comp = outgoing_by_ray(kron_completed)
        for ray in ((2, -1), (3, -2), (2, -3), (1, -2)):
            assert by_ray[ray].factors == comp[ray].factors
        # one family step deeper on each side, k = 2 in the closed pattern
        assert by_ray[(5, -4)].factors == (
            ((2, 2, 2, 3), (-5, 4), 1),
            ((2, 2, 3, 2), (-5, 4), 1),
        )
        assert by_ray[(4, -3)].factors == (
            ((1, 2, 2, 2), (-4, 3), 1),
            ((2, 1, 2, 2), (-4, 3), 1),
        )

    def test_facets_match_the_chamber_walk_read_directly(self):
        """Each facet read straight off ``_chamber_walk`` on the 37 data and
        the sheared B2 seed at depth 4 (347 walls; the first facet on a ray
        wins): acting normal eps g*_i, grading normal primitive(eps * block
        sums of the principal coefficient), and factors prod_b p_b^(eps c_b)
        over the seed's own coefficients p_b."""
        walls = 0
        for s in [group_seed(data) for data in RANK2] + [SHEARED_B2]:
            own = [p for tup in s.coeffs for p in tup]
            expected = {}
            for _, sd, G in _chamber_walk(s.data, 4):
                for i in (1, 2):
                    eps = G.epsilon(i)
                    m = tuple(eps * x for x in G.w(i))
                    (alpha,) = {
                        tuple(eps * sum(c[j] for j in block_range(s.data.r, b)) for b in (0, 1))
                        for c in sd.coeffs[i - 1]
                    }
                    factors: dict = {}
                    for c in sd.coeffs[i - 1]:
                        t = tuple(sum(eps * c[b] * p[j] for b, p in enumerate(own)) for j in range(len(own)))
                        factors[t, m] = factors.get((t, m), 0) + 1
                    acting = tuple(eps * x for x in G.gstar[i - 1])
                    atoms = sorted((t, m, c) for (t, m), c in factors.items())
                    expected.setdefault(G.g[2 - i], (_primitive(alpha), acting, atoms))
            facets = cluster_chamber_walls(s, 4)
            printed = printed_normals(ScatteringDiagram(facets, 4, s))
            got = {w.ray: (*normals, list(w.factors)) for w, normals in zip(facets, printed)}
            assert got == expected, s.data
            walls += len(got)
        assert walls == 347

    def test_requires_base_seed(self):
        with pytest.raises(ValueError):
            cluster_chamber_walls(seed_mutate(group_seed(B2), 1), 2)

    def test_rejects_rank3_seed(self):
        with pytest.raises(ValueError, match="rank-2 seeds only"):
            cluster_chamber_walls(group_seed(A3), 2)

    def test_non_principal_coefficients(self):
        coeffs = (((1, 1),), ((0, 1),))
        s = initial_seed(A2, coeffs, with_cluster=False, semifield=False)
        chambers = ScatteringDiagram(cluster_chamber_walls(s, 6), 6, s)
        assert {w.ray: w.factors for w in chambers.walls}[(1, -1)] == (((1, 2), (-1, 1), 1),)
        assert diagrams_equivalent(complete_rank2(build_initial(s, 6)), chambers)

    def test_cluster_complex_on_every_rank2_datum(self):
        """On the 37 valid rank-2 data, completed at order 4 (order 3 where
        b12 b21 >= 9): every facet ray of the chambers within 6 mutations
        carries the function of the chamber walls, and no completed ray lies
        strictly inside one of those chambers.  The data with b12 b21 <= 3
        are of finite type, and their completions equal their chamber walls
        as whole diagrams."""
        finite = 0
        for data in RANK2:
            s = group_seed(data)
            beta = -data.B[0][1] * data.B[1][0]
            order = 4 if beta < 9 else 3
            completed = canonical_form(complete_rank2(build_initial(s, order)))
            chambers = canonical_form(ScatteringDiagram(cluster_chamber_walls(s, 6), order, s))
            frames = [G for _, _, G in _chamber_walk(data, 6)]
            for ray in {g for G in frames for g in G.g}:
                assert completed.get(ray) == chambers.get(ray), (data, ray)
            for ray in completed:
                inside = [G for G in frames if all(g[0] * ray[0] + g[1] * ray[1] > 0 for g in G.gstar)]
                assert not inside, (data, ray)
            if beta <= 3:
                finite += 1
                D = complete_rank2(build_initial(s, 6))
                assert diagrams_equivalent(D, ScatteringDiagram(cluster_chamber_walls(s, 10), 6, s)), data
        assert finite == 9


# -- equivalence and truncation ----------------------------------------------


class TestEquivalence:
    def test_split_wall_is_equivalent(self, b2_completed):
        s = group_seed(B2)
        walls = []
        for w in b2_completed.walls:
            if w.ray == (1, -1) and not w.incoming:
                for a in w.factors:
                    walls.append(Wall(w.ray, (a,), False))
            else:
                walls.append(w)
        split = ScatteringDiagram(tuple(walls), 6, s)
        assert diagrams_equivalent(split, b2_completed)

    def test_initial_not_equivalent_to_completed(self, b2_completed):
        assert not diagrams_equivalent(build_initial(group_seed(B2), 6), b2_completed)

    def test_different_seeds_rejected(self, b2_completed, kron_completed):
        with pytest.raises(ValueError):
            diagrams_equivalent(b2_completed, kron_completed)

    def test_deeper_diagram_is_cut_to_the_shallower(self, b2_completed, kron_completed):
        b2_deep = complete_rank2(build_initial(group_seed(B2), 8))
        kron_deep = complete_rank2(build_initial(group_seed(KRON), 8))
        # Kronecker has factors of degree 7 and 8, which must be cut before comparing
        assert canonical_form(kron_deep) != canonical_form(kron_completed)
        for deep, shallow in ((b2_deep, b2_completed), (kron_deep, kron_completed)):
            assert diagrams_equivalent(deep, shallow) and diagrams_equivalent(shallow, deep)
        bare = build_initial(group_seed(B2), 6)
        assert not diagrams_equivalent(b2_deep, bare) and not diagrams_equivalent(bare, b2_deep)


def gap_directions(walls):
    """A direction inside each gap between the rays of the walls, in
    counterclockwise order."""
    rays = sorted({w.ray for w in walls}, key=angle)
    gaps = []
    for r, q in zip(rays, rays[1:] + rays[:1]):
        inside = r[0] * q[1] - r[1] * q[0] > 0
        gaps.append((r[0] + q[0], r[1] + q[1]) if inside else (-r[1], r[0]))
    return gaps


def crossing_comparison(D1, D2, order):
    """Equal path-ordered products from one fixed start to a direction in
    every gap between the rays of both diagrams; the last gap is the start's
    own, reached by the full loop so that every ray is compared."""
    gaps = gap_directions(D1.walls + D2.walls)
    start = gaps[-1]
    D1, D2 = diagram_truncate(D1, order), diagram_truncate(D2, order)
    for end in gaps:
        path = PathSpec(start, end, loop=end == start)
        P1, P2 = path_ordered_product(D1, path), path_ordered_product(D2, path)
        if not P1.eq_mod_order(P2):
            return False
    return True


def edit_walls(D, edits):
    """Apply (kind, wall index, atom index) edits to D's walls."""
    walls = list(D.walls)
    for kind, i, j in edits:
        i %= len(walls)
        w = walls[i]
        atoms = list(w.factors)
        j %= len(atoms)
        if kind == "split":
            t, m, c = atoms[j]
            if c > 1:
                left, right = atoms[:j] + [(t, m, c - 1)] + atoms[j + 1:], [(t, m, 1)]
            elif len(atoms) > 1:
                left, right = atoms[:j] + atoms[j + 1:], [atoms[j]]
            else:
                continue
            walls[i:i + 1] = [replace(w, factors=tuple(part)) for part in (left, right)]
        elif kind == "raise":
            t, m, c = atoms[j]
            walls[i] = replace(w, factors=tuple(atoms[:j] + [(t, m, c + 1)] + atoms[j + 1:]))
        elif kind == "drop" and len(atoms) > 1:
            walls[i] = replace(w, factors=tuple(atoms[:j] + atoms[j + 1:]))
        elif len(walls) > 1:  # remove the wall, or drop its only atom
            del walls[i]
    return ScatteringDiagram(tuple(walls), D.order, D.seed)


@pytest.fixture(scope="module")
def edit_bases(b2_completed):
    kron = complete_rank2(build_initial(group_seed(KRON), 5))
    out = []
    for D in (b2_completed, kron):
        out += [D, tk_transform(D, 1), tk_transform(D, 2)]
    return out


EDITS = st.lists(
    st.tuples(
        st.sampled_from(["split", "raise", "drop", "remove"]),
        st.integers(0, 30),
        st.integers(0, 5),
    ),
    max_size=3,
)


class TestEquivalenceOracle:
    @given(st.integers(0, 5), EDITS, EDITS, st.integers(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_merged_atoms_decide_like_crossings(self, edit_bases, base, edits1, edits2, order):
        D = edit_bases[base]
        order = min(order, D.order)
        D1, D2 = edit_walls(D, edits1), edit_walls(D, edits2)
        T1, T2 = diagram_truncate(D1, order), diagram_truncate(D2, order)
        assert diagrams_equivalent(T1, T2) == crossing_comparison(D1, D2, order)


class TestTruncate:
    def test_drops_high_degrees(self, b2_completed):
        T = diagram_truncate(b2_completed, 2)
        out = outgoing_by_ray(T)
        assert set(out) == {(1, -1)}
        assert T.order == 2

    def test_cannot_raise_order(self, b2_completed):
        with pytest.raises(ValueError):
            diagram_truncate(b2_completed, 8)


# -- wall order -----------------------------------------------------------------


class TestWallOrder:
    def test_diagram_sorts_its_walls_when_built(self, b2_completed, kron_completed):
        """Walls given in any order make the same diagram, JSON and picture,
        also when one wall is given twice."""
        w = next(w for w in b2_completed.walls if not w.incoming)
        tied = replace(b2_completed, walls=b2_completed.walls + (w,))
        bases = [b2_completed, kron_completed, tk_transform(b2_completed, 1), tk_transform(kron_completed, 2), tied]
        for D in bases:
            keys = [_angle_key(w.ray) for w in D.walls]
            assert keys == sorted(keys)
            orders = [D.walls[::-1]] + [random.Random(seed).sample(D.walls, len(D.walls)) for seed in range(5)]
            for walls in orders:
                E = ScatteringDiagram(walls, D.order, D.seed)
                assert E == D and E.walls == D.walls
                assert json.dumps(diagram_to_json(E)) == json.dumps(diagram_to_json(D))
                assert render_svg(E) == render_svg(D)


# -- serialization ------------------------------------------------------------


class TestSerialization:
    def test_json_round_trip(self, b2_completed):
        blob = diagram_to_json(b2_completed)
        back = json.loads(json.dumps(blob))
        walls = tuple(
            Wall(
                tuple(e["support"]["rays"][0]),
                tuple((tuple(f["t"]), tuple(f["m"]), f["c"]) for f in e["factors"]),
                e["incoming"],
            )
            for e in back["walls"]
        )
        assert walls == b2_completed.walls
        assert back["order"] == b2_completed.order
        assert json.dumps(blob, sort_keys=True) == json.dumps(
            diagram_to_json(b2_completed), sort_keys=True
        )

    def test_every_wall_prints_a_normal_of_its_ray(self, tk_checks):
        """A wall stores no normal: ``diagram_to_json`` grades its atoms in
        the diagram seed's frame, and the acting normal it prints is
        +-(r_1, -r_0) for the wall's ray r.  Over every wall of the 37
        completions at order 3, both sides of their ``tk_invariance_check``
        for k = 1, 2, and the B2 (depth 6) and G2 (depth 8) chamber walls."""
        diagrams = [complete_rank2(build_initial(group_seed(data), 3)) for data in RANK2]
        diagrams += [D for _, _, (lhs, rhs, _) in tk_checks for D in (lhs, rhs)]
        for data, depth in ((B2, 6), (G2, 8)):
            s = group_seed(data)
            diagrams.append(ScatteringDiagram(cluster_chamber_walls(s, depth), depth, s))
        walls = 0
        for D in diagrams:
            for w, (normal, acting) in zip(D.walls, printed_normals(D), strict=True):
                r0, r1 = w.ray
                assert acting in ((r1, -r0), (-r1, r0)), (D.seed, w)
                assert normal == _primitive(normal)
                walls += 1
        assert walls == 1209

    def test_atoms_of_two_gradings_do_not_print(self):
        """Atoms t11 z^(0,1) and t21 z^(0,1) grade to the normals (1,0) and
        (0,1) over the B2 seed: a wall carrying both has no normal."""
        s = group_seed(B2)
        D = ScatteringDiagram((Wall((0, 1), (((1, 0, 0), (0, 1), 1), ((0, 1, 0), (0, 1), 1))),), 4, s)
        with pytest.raises(InvariantViolation, match="^wall atoms have incompatible gradings$"):
            diagram_to_json(D)

    def test_svg_deterministic(self, b2_completed):
        svg = render_svg(b2_completed)
        assert svg == render_svg(b2_completed)
        assert 'width="1000" height="1000"' in svg
        assert svg.count("<line") == len(b2_completed.walls)
        assert "(2,-1)" in svg.replace(" ", "") or "(2, -1)" in svg

    def test_wall_label(self, b2_completed):
        out = outgoing_by_ray(b2_completed)
        assert wall_label(out[(2, -1)], group_seed(B2).coeff_orders) == "(1+t11*t21*t22*z^(-2,1))"
