"""Broken lines, theta functions, and chamber transport."""

import sys
from fractions import Fraction

import pytest

from clusterscatter.cluster_core import (
    FixedData,
    chart_variables,
    g_frame_mutate,
    initial_g_frame,
    initial_seed,
    seed_mutate,
)
from clusterscatter.monoid_ring import LaurentSeries
from clusterscatter.scattering import build_initial, complete_rank2, tk_transform
from clusterscatter.theta import (
    BrokenLine,
    GenericityError,
    enumerate_broken_lines,
    theta,
    theta_via_transport,
)

B2 = FixedData(((0, -2), (1, 0)), (1, 2), (1, 2))
KRON = FixedData(((0, -2), (2, 0)), (1, 1), (2, 2))

# generic endpoint in the all-positive chamber: its direction has no small
# integer multiple, so no candidate exponent can aim a segment at the origin
Q0 = (Fraction(17, 5), Fraction(9, 7))


def group_seed(data):
    return initial_seed(data, with_cluster=False, semifield=False)


@pytest.fixture(scope="module")
def b2_d6():
    return complete_rank2(build_initial(group_seed(B2), 6))


@pytest.fixture(scope="module")
def b2_d12():
    return complete_rank2(build_initial(group_seed(B2), 12))


@pytest.fixture(scope="module")
def kron_d8():
    return complete_rank2(build_initial(group_seed(KRON), 8))


def chamber_vectors(data, depth):
    """g-vector -> (word, index) for every cluster variable reachable in
    ``depth`` mutations, keeping the first word that produces it."""
    out = {}
    G0 = initial_g_frame(data)
    for i in range(data.n):
        out.setdefault(G0.g[i], ((), i))
    frontier = [((), G0, initial_seed(data))]
    for _ in range(depth):
        nxt = []
        for word, G, sd in frontier:
            for k in range(1, data.n + 1):
                G2 = g_frame_mutate(G, sd, k)
                sd2 = seed_mutate(sd, k)
                nxt.append((word + (k,), G2, sd2))
                for i in range(data.n):
                    out.setdefault(G2.g[i], (word + (k,), i))
        frontier = nxt
    return out


# -- broken lines -------------------------------------------------------------


class TestBrokenLines:
    def test_straight_line_only_at_order_one(self, b2_d6):
        lines = enumerate_broken_lines(b2_d6, (-1, 0), Q0, 1)
        assert len(lines) == 1
        assert lines[0].segments == ((1, (0, 0, 0), (-1, 0)),)
        assert lines[0].bends == ()

    def test_two_lines_for_negative_generator(self, b2_d6):
        lines = enumerate_broken_lines(b2_d6, (-1, 0), Q0, 3)
        assert len(lines) == 2
        straight, bent = lines
        assert straight.segments == ((1, (0, 0, 0), (-1, 0)),)
        assert bent.segments == (
            (1, (0, 0, 0), (-1, 0)),
            (1, (1, 0, 0), (-1, 1)),
        )
        # the single bend happens on the upper vertical ray
        (pt, ray), = bent.bends
        assert ray == (0, 1)
        assert pt == (Fraction(0), Q0[0] + Q0[1])

    def test_lines_sum_to_theta(self, b2_d6):
        for p0 in [(-1, 0), (1, -1), (-1, -1), (0, -2)]:
            lines = enumerate_broken_lines(b2_d6, p0, Q0, 5)
            total = {}
            for bl in lines:
                c, t, m = bl.final
                key = (m, t)
                total[key] = total.get(key, 0) + c
            th = theta(b2_d6, p0, 5, Q=Q0)
            assert {(e.m, e.t): c for e, c in th.terms.items()} == total

    def test_bend_degrees_strictly_increase(self, b2_d6):
        for p0 in [(-1, -1), (-2, 1), (1, -2)]:
            for bl in enumerate_broken_lines(b2_d6, p0, Q0, 6):
                degs = [sum(t) for _, t, _ in bl.segments]
                assert degs == sorted(set(degs))
                assert degs[0] == 0

    def test_endpoint_on_wall_rejected(self, b2_d6):
        with pytest.raises(ValueError):
            enumerate_broken_lines(b2_d6, (1, 1), (Fraction(2), Fraction(0)), 4)

    def test_endpoint_at_origin_rejected(self, b2_d6):
        with pytest.raises(ValueError):
            enumerate_broken_lines(b2_d6, (1, 1), (Fraction(0), Fraction(0)), 4)

    def test_segment_through_origin_is_degenerate(self, b2_d6):
        with pytest.raises(GenericityError):
            enumerate_broken_lines(b2_d6, (1, 1), (Fraction(-3), Fraction(-3)), 4)

    def test_segment_along_wall_line_is_degenerate(self, b2_d6):
        # endpoint on the reverse extension of the (1,-1) ray
        with pytest.raises(GenericityError):
            enumerate_broken_lines(b2_d6, (1, -1), (Fraction(-2), Fraction(2)), 4)

    def test_order_above_diagram_rejected(self, b2_d6):
        with pytest.raises(ValueError):
            enumerate_broken_lines(b2_d6, (-1, 0), Q0, 7)

    def test_segments_and_bends_must_align(self):
        with pytest.raises(ValueError):
            BrokenLine(Q0, ((1, (0, 0, 0), (1, 0)),), (((Q0), (0, 1)),))

    def test_first_segment_must_be_bare(self):
        with pytest.raises(ValueError):
            BrokenLine(Q0, ((2, (0, 0, 0), (1, 0)),), ())


# -- theta functions ----------------------------------------------------------


class TestTheta:
    def test_zero_exponent_is_one(self, b2_d6):
        th = theta(b2_d6, (0, 0), 6)
        assert th == LaurentSeries.one(2, 3, 6)

    def test_order_one_is_the_bare_monomial(self, b2_d6):
        th = theta(b2_d6, (-2, 1), 1)
        assert th == LaurentSeries.monomial((-2, 1), (0, 0, 0), 1, 1)

    def test_matches_cluster_variables(self, b2_d12):
        s_cl = initial_seed(B2)
        vecs = chamber_vectors(B2, 6)
        assert sorted(vecs) == [(-1, 0), (0, -1), (0, 1), (1, -1), (1, 0), (2, -1)]
        for g, (word, i) in sorted(vecs.items()):
            var = chart_variables(s_cl, word)[i]
            assert var.is_laurent
            assert theta(b2_d12, g, 12) == var.num.truncate(12)

    def test_matches_kronecker_variables(self, kron_d8):
        s_cl = initial_seed(KRON)
        vecs = chamber_vectors(KRON, 3)
        for g, (word, i) in sorted(vecs.items()):
            var = chart_variables(s_cl, word)[i]
            assert var.is_laurent
            assert theta(kron_d8, g, 8) == var.num.truncate(8)

    def test_coefficients_positive(self, b2_d6):
        for p0 in [(-1, -1), (-2, -1), (1, -2)]:
            th = theta(b2_d6, p0, 6)
            assert th.terms and all(c > 0 for c in th.terms.values())

    def test_truncation_stability(self, kron_d8):
        for g in [(-1, 2), (3, -2), (-1, -1)]:
            assert theta(kron_d8, g, 5) == theta(kron_d8, g, 8).truncate(5)

    def test_default_endpoint_redraw_is_deterministic(self, b2_d6):
        a = theta(b2_d6, (1, -1), 6, q_seed=7)
        b = theta(b2_d6, (1, -1), 6, q_seed=7)
        c = theta(b2_d6, (1, -1), 6, q_seed=8)
        assert a == b == c

    def test_mutated_frame_diagram_still_enumerates(self, b2_d6):
        moved = tk_transform(b2_d6, 2)
        th = theta(moved, (1, 1), 4)
        assert th.terms and all(c > 0 for c in th.terms.values())

    def test_redraws_run_out(self, b2_d6, monkeypatch):
        on_wall = (Fraction(3), Fraction(0))  # on the incoming ray (1,0)
        monkeypatch.setattr(sys.modules["clusterscatter.theta"], "_endpoint_draw", lambda q, a: on_wall)
        with pytest.raises(GenericityError, match="no generic endpoint in 40 draws"):
            theta(b2_d6, (-1, 0), 6)

    def test_wrong_length_exponent(self, b2_d6):
        with pytest.raises(ValueError):
            theta(b2_d6, (1, 0, 0), 4)
        with pytest.raises(ValueError):
            theta(b2_d6, (0, 0, 0), 4)


# -- chamber transport --------------------------------------------------------


class TestTransport:
    def test_positive_chamber_monomial(self, b2_d6):
        x = theta_via_transport(b2_d6, (1, 1))
        assert x.den.is_one()
        assert x.num == LaurentSeries.monomial((1, 1), (0, 0, 0))

    def test_one_crossing_golden(self, b2_d6):
        x = theta_via_transport(b2_d6, (-1, 0))
        assert x.den.is_one()
        expected = LaurentSeries.monomial((-1, 0), (0, 0, 0)) + LaurentSeries.monomial(
            (-1, 1), (1, 0, 0)
        )
        assert x.num == expected

    def test_doubling_squares(self, kron_d8):
        a = theta_via_transport(kron_d8, (-1, 2))
        b = theta_via_transport(kron_d8, (-2, 4))
        sq = a * a
        assert b.num == sq.num and b.den == sq.den

    def test_gap_vector_not_found(self, kron_d8):
        with pytest.raises(ValueError, match="no cluster chamber"):
            theta_via_transport(kron_d8, (1, -1), depth=8)

    def test_agrees_with_theta(self, b2_d12):
        import random

        rng = random.Random(11)
        for trial in range(8):
            p0 = (rng.randint(-3, 3), rng.randint(-3, 3))
            x = theta_via_transport(b2_d12, p0)
            assert x.den.is_one()
            assert theta(b2_d12, p0, 12, q_seed=trial) == x.num.truncate(12)

    def test_non_principal_coefficients(self):
        # the chamber walk is principal; its coefficients must be evaluated
        # at the seed's own (t1*t2, t2), not left as (t1, t2)
        data = FixedData(((0, -1), (1, 0)), (1, 1), (1, 1))
        lat = data.lattice
        coeffs = ((lat.element((1, 1)),), (lat.generator(1, 0),))
        D = complete_rank2(build_initial(initial_seed(data, coeffs, with_cluster=False, semifield=False), 6))
        for p0 in ((-1, 0), (0, -1), (-1, 1), (1, 1), (0, 1)):
            x = theta_via_transport(D, p0)
            assert x.den.is_one()
            assert theta(D, p0, 6) == x.num
        assert theta_via_transport(D, (-1, 0)).num == LaurentSeries.monomial(
            (-1, 0), (0, 0)
        ) + LaurentSeries.monomial((-1, 1), (1, 1))

    def test_requires_base_seed(self, b2_d6):
        moved = tk_transform(b2_d6, 1)
        with pytest.raises(ValueError):
            theta_via_transport(moved, (1, 0))
