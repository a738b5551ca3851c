"""Broken lines, theta functions, and chamber transport."""

import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from clusterscatter.cluster_core import (
    FixedData,
    _chamber_walk,
    chart_variables,
    g_frame_mutate,
    initial_g_frame,
    initial_seed,
    pattern_walk,
    seed_mutate,
)
from clusterscatter.monoid_ring import Exponent, LaurentSeries, _pack, series_pow, series_to_str
from clusterscatter.scattering import (
    PathSpec,
    ScatteringDiagram,
    Wall,
    _angle_key,
    _cross,
    _function,
    build_initial,
    complete_rank2,
    diagram_to_json,
    diagram_truncate,
    tk_transform,
)
from clusterscatter.semifield import block_range
from clusterscatter.theta import (
    BrokenLine,
    GenericityError,
    _assemble,
    _dot,
    _endpoint_draw,
    _EndpointOnWall,
    _RayData,
    _reachable_shifts,
    _theta_lines,
    _vadd,
    enumerate_broken_lines,
    theta,
    theta_via_transport,
)
from oracles import eq_mod_order, greedy_element, min_degree, one_generator_diagram, path_ordered_product
from test_bench_digests import _load
from test_scattering import BLOCK_IDS, RANK2, SHEARED_B2, SPECIALIZATION_CASES, WILD33, gap_directions, printed_normals

B2 = FixedData(((0, -2), (1, 0)), (1, 2), (1, 2))
KRON = FixedData(((0, -2), (2, 0)), (1, 1), (2, 2))
G2 = FixedData(((0, -3), (1, 0)), (1, 3), (1, 3))

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

    def test_initial_segment_through_origin_is_degenerate(self, b2_d6):
        with pytest.raises(GenericityError, match="^initial segment passes through the origin$"):
            enumerate_broken_lines(b2_d6, (1, 1), (Fraction(-3), Fraction(-3)), 4)

    def test_segment_through_origin_is_degenerate(self, b2_d6):
        # a candidate final exponent aims the last segment back through the origin
        with pytest.raises(GenericityError, match="^segment passes through the origin$"):
            enumerate_broken_lines(b2_d6, (0, -1), (Fraction(1), Fraction(1)), 2)

    def test_initial_segment_along_wall_line_is_degenerate(self, b2_d6):
        with pytest.raises(GenericityError, match=r"^initial segment runs along the ray \(1, -1\)$"):
            enumerate_broken_lines(b2_d6, (-1, 1), (Fraction(-2), Fraction(2)), 1)

    def test_segment_along_wall_line_is_degenerate(self, b2_d6):
        # endpoint on the reverse extension of the (1,-1) ray
        with pytest.raises(GenericityError, match=r"^segment runs along the ray \(1, -1\)$"):
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


# -- integer geometry against the Fraction route -----------------------------


def reference_broken_lines(D, p0, Q, order=None):
    """The broken-line search on ``Fraction`` points: every incidence builds
    its hit parameters as Fractions and the hits are checked pairwise for a
    shared point.  Same validation, fan, reach and assembly as the library;
    e is |<n, p>| for the acting normal n that ``diagram_to_json`` prints,
    not the library's cross(r, p), and each F^e is ``series_pow`` of the
    ray's expanded function, not the library's expansion of its atoms with
    scaled exponents."""
    if order is None:
        order = D.order
    if order < 1 or order > D.order:
        raise ValueError(f"order must lie in 1..{D.order}")
    p0 = tuple(int(x) for x in p0)
    if len(p0) != 2:
        raise ValueError("exponent must have length 2")
    Q = (Fraction(Q[0]), Fraction(Q[1]))
    if Q == (Fraction(0), Fraction(0)):
        raise ValueError("endpoint must be nonzero")
    frame = D.frame
    rays = [_RayData(ray, atoms, order) for ray, atoms in sorted(D.fan)]
    acting = {w.ray: n for w, (_, n) in zip(D.walls, printed_normals(D))}
    for rd in rays:
        if _cross(rd.ray, Q) == 0 and _dot(rd.ray, Q) > 0:
            raise _EndpointOnWall(f"endpoint {Q} lies on the wall ray {rd.ray}")
    budget = order - 1
    reach = _reachable_shifts(rays, budget)
    lines = []

    def descend(x, p, used, trail):
        if p == p0:
            if _cross(x, p) == 0 and _dot(x, p) < 0:
                raise GenericityError("initial segment passes through the origin")
            for rd in rays:
                if _cross(rd.ray, p) == 0 and _cross(rd.ray, x) == 0:
                    raise GenericityError(f"initial segment runs along the ray {rd.ray}")
            # a Fraction point is the homogeneous point (x0, x1, 1)
            lines.append(_assemble(Q, p0, [((*pt, 1), *rest) for pt, *rest in trail], frame))
            return
        hits = []
        for i, rd in enumerate(rays):
            cp = _cross(p, rd.ray)
            if cp == 0:
                if _cross(rd.ray, x) == 0:
                    raise GenericityError(f"segment runs along the ray {rd.ray}")
                continue
            s = Fraction(-_cross(x, rd.ray), cp)
            if s <= 0:
                continue
            u = Fraction(-_cross(x, p), cp)
            if u < 0:
                continue
            if u == 0:
                raise GenericityError("segment passes through the origin")
            hits.append((s, i))
        hits.sort()
        for j in range(1, len(hits)):
            if hits[j][0] == hits[j - 1][0]:
                raise GenericityError("segment meets two rays at one point")
        for s, i in hits:
            rd = rays[i]
            e = abs(_dot(acting[rd.ray], p))
            assert e >= 1
            pt = (x[0] + s * p[0], x[1] + s * p[1])
            fe = series_pow(_function(rd.atoms, order), e)
            for exp, coeff in sorted(fe.terms.items()):
                if not any(exp.t):
                    continue
                nu = used + sum(exp.t)
                prev = tuple(a - b for a, b in zip(p, exp.m))
                need = reach.get(tuple(a - b for a, b in zip(prev, p0)))
                if need is None or nu + need > budget:
                    continue
                trail.append((pt, rd.ray, coeff, exp.t, exp.m))
                descend(pt, prev, nu, trail)
                trail.pop()

    for delta in sorted(reach):
        if reach[delta] <= budget:
            descend(Q, _vadd(p0, delta), 0, [])
    key = lambda bl: (sum(bl.final[1]), bl.final[2], bl.final[1], bl.bends)
    return tuple(sorted(lines, key=key))


SMALL = {"b2": (B2, 6), "kron": (KRON, 5), "g2": (G2, 5)}


def completed(name):
    data, order = SMALL[name]
    return complete_rank2(build_initial(group_seed(data), order))


@lru_cache(maxsize=None)
def small_diagram(name):
    return completed(name)


# the endpoint seeds of the benchmark's theta workload, first draw each
Q_SEEDS = _load("workloads").Q_SEEDS
coords = st.fractions(-4, 4, max_denominator=10**4).filter(bool)


def near_axis(k, y, vertical):
    return (Fraction(k, 10**4), y) if vertical else (y, Fraction(k, 10**4))


def scaled(v, lam):
    return (lam * v[0], lam * v[1])


@st.composite
def broken_line_cases(draw):
    D = small_diagram(draw(st.sampled_from(("b2", "kron", "g2"))))
    p0 = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    Q = draw(st.one_of(
        st.tuples(coords, coords),
        st.builds(near_axis, st.integers(-3, 3), coords, st.booleans()),
        st.sampled_from(Q_SEEDS).map(lambda q: _endpoint_draw(q, 0)),
        # degenerate draws: on the line of a fan ray, on either side of the
        # origin, and parallel or antiparallel to p0 (segments with x || p)
        st.builds(scaled, st.sampled_from(sorted({w.ray for w in D.walls})), coords),
        st.builds(scaled, st.just(p0), coords),
    ))
    return D, p0, Q, draw(st.sampled_from(range(D.order, 0, -1)))  # order 1 has no bends


def outcome(route, *args):
    try:
        return route(*args)
    except (ValueError, GenericityError) as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(broken_line_cases())
def test_integer_search_matches_fraction_route(case):
    assert outcome(enumerate_broken_lines, *case) == outcome(reference_broken_lines, *case)


@pytest.mark.parametrize("name, lines, tied", [("b2", 542, 1), ("kron", 848, 6), ("g2", 922, 7)])
def test_line_order_matches_fraction_route_on_the_box(name, lines, tied):
    """Every exponent of the box |a|, |b| <= 3 at the first endpoint of the
    benchmark's first endpoint seed: the same lines, in the same order, as
    the Fraction route.  ``tied`` lines share their sort key with an earlier
    line, so their order is the one the search met them in."""
    D = small_diagram(name)
    Q = _endpoint_draw(Q_SEEDS[0], 0)
    found = ties = 0
    for p0 in BOX:
        got = enumerate_broken_lines(D, p0, Q)
        assert got == reference_broken_lines(D, p0, Q), p0
        keys = [(sum(bl.final[1]), bl.final[2], bl.final[1], bl.bends) for bl in got]
        found, ties = found + len(got), ties + len(keys) - len(set(keys))
    assert (found, ties) == (lines, tied)


def test_endpoint_on_each_ray_is_refused_like_the_fraction_route():
    """The search finds Q's gap by the stored angle keys of the fan: on
    every ray, at a Fraction or an int multiple, Q raises the same
    ``_EndpointOnWall`` as the Fraction route's cross-product test, naming
    that ray; a point just off the ray on either side is accepted, with the
    same lines as the Fraction route."""
    for D in [*map(small_diagram, SMALL), complete_rank2(build_initial(SHEARED_B2, 4))]:
        rays = [ray for ray, _ in D.fan]
        assert len(rays) >= 6
        for r0, r1 in rays:
            for Q in ((Fraction(7, 3) * r0, Fraction(7, 3) * r1), (2 * r0, 2 * r1)):
                err = outcome(enumerate_broken_lines, D, (-1, 0), Q)
                assert err == outcome(reference_broken_lines, D, (-1, 0), Q)
                assert err[0] is _EndpointOnWall and err[1].endswith(f"lies on the wall ray {(r0, r1)}")
            for eps in (Fraction(1, 997), Fraction(-1, 997)):
                Q = (3 * r0 - eps * r1, 3 * r1 + eps * r0)
                got = outcome(enumerate_broken_lines, D, (1, -2), Q, 3)
                assert got == outcome(reference_broken_lines, D, (1, -2), Q, 3)
                assert got and isinstance(got[0], BrokenLine), (r0, r1, eps)


def test_endpoints_with_denominators_beyond_2_70_find_their_gap_exactly():
    """Q's coordinates are unbounded, so its angle key may tie a ray's: the
    search then orders Q by the sign of a cross product.  On every ray, Q
    with a denominator above 2^70 raises ``_EndpointOnWall`` naming the ray;
    Q turned off the ray by about 2^-80 either way, whose key ties the ray's
    for some rays on each side, gives the theta of a small endpoint inside
    the gap it turned into."""
    big, tiny = 2**71 + 1, Fraction(1, 2**80 + 1)
    ties = set()
    for name in SMALL:
        D = small_diagram(name)
        rays = [ray for ray, _ in D.fan]
        for i, (r0, r1) in enumerate(rays):
            on = (Fraction(r0, big), Fraction(r1, big))
            assert max(q.denominator for q in on) > 1 << 70
            err = outcome(theta, D, (1, -2), None, on)
            assert err[0] is _EndpointOnWall and err[1].endswith(f"lies on the wall ray {(r0, r1)}")
            for side in (1, -1):
                Q = (r0 - side * tiny * r1, r1 + side * tiny * r0)
                scaled = (Q[0].numerator * Q[1].denominator, Q[1].numerator * Q[0].denominator)
                if _angle_key(scaled) == _angle_key((r0, r1)):
                    ties.add(side)
                small = (r0 - side * Fraction(1, 997) * r1, r1 + side * Fraction(1, 997) * r0)
                s0, s1 = rays[(i + side) % len(rays)]  # the gap's other ray
                assert side * _cross((r0, r1), small) > 0 and side * _cross(small, (s0, s1)) > 0
                for p0 in [(1, -2), (-1, 1), (2, 1)]:
                    assert theta(D, p0, Q=Q) == theta(D, p0, Q=small), (name, (r0, r1), side, p0)
    assert ties == {1, -1}


def test_endpoint_may_mix_ints_and_fractions():
    """Q given as ints, as Fractions or as a mix gives equal lines, each with
    the endpoint as Fractions, and equal theta functions."""
    D = small_diagram("kron")
    forms = [(-7, 4), (Fraction(-7), Fraction(4)), (-7, Fraction(8, 2)), (Fraction(-14, 2), 4)]
    for p0 in [(1, -2), (2, -3), (-1, -1)]:
        got = [enumerate_broken_lines(D, p0, Q) for Q in forms]
        assert got[0] and all(lines == got[0] for lines in got)
        assert all(type(q) is Fraction for bl in got[1] + got[2] for q in bl.endpoint)
        thetas = [theta(D, p0, Q=Q) for Q in forms]
        assert thetas[0].terms and all(x == thetas[0] for x in thetas)


# -- theta functions ----------------------------------------------------------


class TestTheta:
    def test_zero_exponent_is_one(self, b2_d6):
        th = theta(b2_d6, (0, 0), 6)
        assert th == LaurentSeries.one(2, 3, 6)

    def test_zero_exponent_is_the_unit_in_every_frame(self):
        """theta_0 carries the order rule of every other theta_p, so theta_0
        times theta_p is theta_p also where the frame is not the identity
        and theta_p is exact."""
        walked = pattern_walk(group_seed(KRON), (2, 1))
        for s in (walked, SHEARED_B2):
            D = complete_rank2(build_initial(s, 5))
            assert not D.frame.is_identity
            one = theta(D, (0, 0), 5)
            for p in ((-1, 0), (0, 1), (1, -1)):
                th = theta(D, p, 5)
                assert one * th == th, (s.word, p)

    def test_order_one_is_the_bare_monomial(self, b2_d6):
        th = theta(b2_d6, (-2, 1), 1)
        assert th == LaurentSeries.monomial((-2, 1), (0, 0, 0), 1, 1)

    def test_matches_cluster_variables(self, b2_d12):
        s_cl = initial_seed(B2)
        vecs = chamber_vectors(B2, 6)
        assert sorted(vecs) == [(-1, 0), (0, -1), (0, 1), (1, -1), (1, 0), (2, -1)]
        for g, (word, i) in sorted(vecs.items()):
            var = chart_variables(s_cl, word)[i]
            assert var.den.is_one()
            assert theta(b2_d12, g, 12) == var.num.truncate(12)

    def test_matches_kronecker_variables(self, kron_d8):
        s_cl = initial_seed(KRON)
        vecs = chamber_vectors(KRON, 3)
        for g, (word, i) in sorted(vecs.items()):
            var = chart_variables(s_cl, word)[i]
            assert var.den.is_one()
            assert theta(kron_d8, g, 8) == var.num.truncate(8)

    def test_a_large_bend_exponent_is_one_power(self, b2_d6):
        # (-1000, 0) is 1000 times the g-vector of x1' = A1^-1 (1 + t11 A2), so
        # theta is x1'^1000: its one bend raises the wall function to the 1000th power
        th = theta(b2_d6, (-1000, 0), 3)
        assert th == LaurentSeries({Exponent((-1000, k), (k, 0, 0)): comb(1000, k) for k in range(3)}, 3)

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

    @pytest.mark.parametrize(
        "route",
        [
            lambda D: theta(D, (-1.7, 0.2), 4),
            lambda D: enumerate_broken_lines(D, (-1.7, 0.2), Q0, 4),
            lambda D: _theta_lines(D, (-1, 0.0), 4),
            lambda D: theta_via_transport(D, (-1.7, 0.2)),
            lambda D: tk_transform(D, 1.5),
        ],
        ids=["theta", "lines", "traced", "transport", "tk"],
    )
    def test_an_entry_that_is_no_int_is_refused(self, b2_d6, route):
        """``int()`` would read (-1.7, 0.2) as (-1, 0), and 1.5 is no direction."""
        with pytest.raises(ValueError, match=r"^(exponent entries must be ints, got|direction 1\.5 must be an int)"):
            route(b2_d6)

    def test_order_checked_for_zero_exponent(self, b2_d6):
        for order in (0, -3, b2_d6.order + 1):
            with pytest.raises(ValueError, match=r"^order must lie in 1\.\.6$"):
                theta(b2_d6, (0, 0), order)


# -- the search context kept on the diagram -----------------------------------

BOX = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]


class TestSearchContext:
    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_shared_diagram_matches_fresh_ones(self, name):
        D, base = completed(name), completed(name)
        box = BOX[:]
        random.Random(name).shuffle(box)
        for i, g in enumerate(box):
            fresh = ScatteringDiagram(base.walls, base.order, base.seed)  # no context yet
            got = _theta_lines(D, g, q_seed=i)
            assert theta(D, g, q_seed=i) == got[0]
            assert got == _theta_lines(fresh, g, q_seed=i), g

    def test_orders_share_one_diagram(self):
        D = complete_rank2(build_initial(group_seed(KRON), 8))
        exponents = [(-1, 2), (3, -2), (-1, -1), (2, -3), (-2, 1)]
        for order in (5, 8):
            fresh = complete_rank2(build_initial(group_seed(KRON), 8))
            for g in exponents:
                assert _theta_lines(D, g, order) == _theta_lines(fresh, g, order), (order, g)
        assert sorted(D._search) == [5, 8]

    def test_context_is_invisible(self):
        D, fresh = completed("b2"), completed("b2")
        theta(D, (-1, 0))
        theta(D, (1, -2), 4)
        assert sorted(D._search) == [4, 6] and not fresh._search
        assert D == fresh and hash(D) == hash(fresh) and repr(D) == repr(fresh)
        assert diagram_to_json(D) == diagram_to_json(fresh)
        assert replace(D) == D and not replace(D)._search
        assert not diagram_truncate(D, 4)._search

    @pytest.mark.parametrize(
        "seed, order",
        [
            (group_seed(B2), 6),
            (group_seed(KRON), 6),
            (SHEARED_B2, 4),
            (group_seed(WILD33), 5),
            (pattern_walk(group_seed(KRON), (2, 1)), 5),
        ],
        ids=["b2", "kron", "b2-sheared", "r33", "kron-w21"],
    )
    def test_powers_expand_the_atoms_like_series_pow(self, seed, order):
        """For every ray of the completed diagram and e = 1..4, the bend
        terms of F^e come in groups of one (m, degree), the groups in the
        order of their first rows; flattened by index, the rows are the
        bend terms (c, t, m, degree) of ``series_pow`` of the ray's expanded
        function, and each row's key is its monomial packed with t in the
        initial basis."""
        D = complete_rank2(build_initial(seed, order))
        to_old = D.frame.to_old
        for ray, atoms in D.fan:
            rd = _RayData(ray, atoms, order, to_old)
            for e in range(1, 5):
                f = series_pow(_function(atoms, order), e)
                bends = tuple((c, x.t, x.m, sum(x.t)) for x, c in sorted(f.terms.items()) if any(x.t))
                groups = rd.power(e)
                assert len({(m, degree) for m, degree, _ in groups}) == len(groups), (ray, e)
                firsts = [rows[0][3] for _, _, rows in groups]
                assert firsts == sorted(firsts), (ray, e)
                flat = sorted((i, (c, t, m, degree), key) for m, degree, rows in groups for c, t, key, i in rows)
                assert [i for i, _, _ in flat] == list(range(len(bends))), (ray, e)
                assert tuple(row for _, row, _ in flat) == bends, (ray, e)
                for _, (c, t, m, degree), key in flat:
                    old = to_old(t)
                    assert key == _pack((*m, *old, sum(old))), (ray, e, t, m)


# -- the summing route against the built lines --------------------------------

THETA = sys.modules["clusterscatter.theta"]
ON_WALL = (Fraction(3), Fraction(0))  # on the incoming ray (1,0) of every base seed
DEGENERATE = [  # (p0, endpoint, order): the cases of TestBrokenLines
    ((1, 1), (Fraction(2), Fraction(0)), 4),
    ((1, 1), (Fraction(0), Fraction(0)), 4),
    ((1, 1), (Fraction(-3), Fraction(-3)), 4),
    ((0, -1), (Fraction(1), Fraction(1)), 2),
    ((-1, 1), (Fraction(-2), Fraction(2)), 1),
    ((1, -1), (Fraction(-2), Fraction(2)), 4),
]


def lines_sum(D, lines, order):
    """The final terms of the lines (initial basis) summed as ``theta`` does."""
    terms = {}
    for bl in lines:
        c, t, m = bl.final
        e = Exponent(m, t)
        terms[e] = terms.get(e, 0) + c
    return LaurentSeries(terms, order if D.frame.is_identity else None)


def both_routes(D, p0, order, monkeypatch, q_seed=0):
    """``theta`` and the traced route with drawn endpoints, the first draw
    on a wall; returns both series and the endpoint each route settled on."""
    out = []
    for route in (theta, _theta_lines):
        draws = []

        def draw(q, attempt):
            draws.append(ON_WALL if attempt == 0 else _endpoint_draw(q, attempt))
            return draws[-1]

        monkeypatch.setattr(THETA, "_endpoint_draw", draw)
        got = route(D, p0, order, q_seed=q_seed)
        assert len(draws) >= 2
        if route is _theta_lines:
            assert got[2] == draws[-1]
            got = got[0]
        out.append((got, draws[-1]))
    return out


class TestSummingRoute:
    def test_routes_agree_on_valid_rank2_data(self, monkeypatch):
        """theta against the sum of the built lines' finals, at an explicit
        endpoint and at drawn ones, on every valid rank-2 datum of the box."""
        exponents = [(-1, 0), (0, -1), (1, -1), (-1, 1), (2, -1), (-1, -1), (-2, 3)]
        for i, data in enumerate(RANK2):
            D = complete_rank2(build_initial(group_seed(data), 4))
            for g in exponents:
                for order in (2, 4):
                    lines = enumerate_broken_lines(D, g, Q0, order)
                    assert theta(D, g, order, Q=Q0) == lines_sum(D, lines, order), (data, g, order)
                (a, qa), (b, qb) = both_routes(D, g, 3, monkeypatch, q_seed=i)
                assert a == b and qa == qb, (data, g)

    def test_routes_agree_on_the_sheared_basis(self, monkeypatch):
        """B2 with coefficients p11 = t11, p21 = t11*t21, p22 = t22: a
        coefficient basis that is not the standard one."""
        coeffs = (((1, 0, 0),), ((1, 1, 0), (0, 0, 1)))
        D = complete_rank2(build_initial(initial_seed(B2, coeffs, with_cluster=False, semifield=False), 4))
        assert not D.frame.is_identity
        for g in [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]:
            for order in range(1, 5):
                lines = enumerate_broken_lines(D, g, Q0, order)
                assert theta(D, g, order, Q=Q0) == lines_sum(D, lines, order), (g, order)
            (a, qa), (b, qb) = both_routes(D, g, 4, monkeypatch)
            assert a == b and qa == qb, g
        assert "t11*t21*A1^-1*A2^-1" in series_to_str(theta(D, (0, -1), 2), ["A1", "A2"], ["t11", "t21", "t22"])

    @pytest.mark.parametrize("p0, Q, order", DEGENERATE)
    def test_degenerate_endpoints_fail_alike(self, b2_d6, p0, Q, order):
        summed = outcome(lambda: theta(b2_d6, p0, order, Q=Q))
        built = outcome(lambda: enumerate_broken_lines(b2_d6, p0, Q, order))
        assert isinstance(summed, tuple) and summed == built

    def test_a_failed_draw_leaves_no_terms(self, monkeypatch):
        """The first endpoint makes a segment pass through the origin after
        three lines have been summed; the redraw starts from nothing."""
        D = completed("b2")
        bad = (Fraction(1), Fraction(1))
        real_search, emitted, failed = THETA._search, [], []

        def search(ctx, p0, Q, emit):
            emitted.append(0)

            def counted(trail):  # a trail holds one line per choice of a row in each bend's group
                emitted[-1] += len(THETA._final(trail))
                emit(trail)

            try:
                real_search(ctx, p0, Q, counted)
            except GenericityError:
                failed.append(emitted[-1])
                raise

        monkeypatch.setattr(THETA, "_search", search)
        monkeypatch.setattr(THETA, "_endpoint_draw", lambda q, a: bad if a == 0 else _endpoint_draw(q, a))
        got = theta(D, (0, -1))
        assert failed == [3] and len(emitted) == 2
        x = theta_via_transport(D, (0, -1))
        assert x.den.is_one() and got == x.num.truncate(D.order)

    def test_atoms_beyond_the_key_bound_sum_the_built_lines(self):
        """Hand-built atoms at order 3 that put the a priori bound of a sum
        of bend keys, twice their largest slot, beyond a packed slot: theta
        sums the built lines instead, and refuses just the exponents whose
        result has a slot beyond 2^31 - 1.  With t11*t21 z^(K, K), K = 2^31
        - 2, on the ray (1,1) a line bends on the atom at most once.  With
        t = (0, K + 1, -K), K = 3 * 2^29, graded (0, 1) in the positive cone,
        on the rays (0,1) and (-1,0), a line of (0,-1) bends on both: its
        t-slots 2K + 2 and -2K would carry into the next slot of a summed key
        and read as a wrong term."""
        D0 = complete_rank2(build_initial(group_seed(B2), 3))
        K = 2**31 - 2
        D = ScatteringDiagram(D0.walls + (Wall((1, 1), (((1, 1, 0), (K, K), 1),)),), 3, D0.seed)
        refused = set()
        for p0 in [(a, b) for a in range(-2, 3) for b in range(-2, 3) if a or b]:
            try:
                x = theta(D, p0)
            except OverflowError as err:
                assert "could reach 2147483648" in str(err)
                refused.add(p0)
                continue
            assert x == lines_sum(D, enumerate_broken_lines(D, p0, _endpoint_draw(0, 0), 3), 3), p0
        assert refused == {(-2, 2), (-1, 2), (0, 2), (1, 2)}
        assert theta(D, (0, 1)).terms[Exponent((K, K + 1), (1, 1, 0))] == 1
        K, walls = 3 * 2**29, ()
        for ray, m in (((0, 1), (0, 1)), ((-1, 0), (-1, 0))):
            walls += (Wall(ray, (((0, K + 1, -K), m, 1),)),)
        D = ScatteringDiagram(D0.walls + walls, 3, D0.seed)
        with pytest.raises(OverflowError, match="could reach 3221225474"):
            theta(D, (0, -1))

    def test_a_factor_of_degree_zero_never_reaches_either_route(self):
        """A factor of coefficient degree 0 on the ray (0,1), where the line
        of (-1,0) to Q0 bends, would bend without raising the degree.  The
        diagram refuses it where it is made, so neither ``theta`` nor
        ``enumerate_broken_lines`` can meet it."""
        D = completed("b2")
        assert theta(D, (-1, 0), 3, Q=Q0) and enumerate_broken_lines(D, (-1, 0), Q0, 3)
        for t in ((0, 0, 0), (1, -1, 0)):
            with pytest.raises(ValueError, match="has degree 0 < 1 in the seed's basis"):
                ScatteringDiagram(D.walls + (Wall((0, 1), ((t, (0, 1), 1),)),), D.order, D.seed)


# -- generalized data: theta against chamber transport ------------------------


def test_theta_matches_transport_on_valid_rank2_data():
    """Every valid B = ((0,-b12),(b21,0)) with b12, b21 in 1..4 and d, r in
    1..3, completed at order 4, on the g-vectors of the depth-3 chamber walk."""
    for data in RANK2:
        D = complete_rank2(build_initial(group_seed(data), 4))
        for g in sorted({g for _, _, G in _chamber_walk(data, 3) for g in G.g}):
            x = theta_via_transport(D, g)
            assert x.den.is_one(), (data, g)
            assert theta(D, g, 4) == x.num.truncate(4), (data, g)


ENDPOINT_SEEDS = {  # name: (seeds, order, r, checks)
    "b2": ([group_seed(B2)], 4, 2, 240),
    "kron": ([group_seed(KRON)], 4, 2, 288),
    "b2-sheared": ([SHEARED_B2], 4, 2, 240),
    "kron-w21": ([pattern_walk(group_seed(KRON), (2, 1))], 4, 2, 288),
    "rank2": ([group_seed(data) for data in RANK2], 3, 1, 3232),
    "b2-o6": ([group_seed(B2)], 6, 2, 240),
    "kron-o6": ([group_seed(KRON)], 6, 2, 384),
}


@pytest.mark.parametrize("name", ENDPOINT_SEEDS)
def test_theta_moves_between_endpoints_by_the_path_ordered_product(name):
    """Consistency of broken lines (Carl-Pumperla-Siebert; GHKK section 3):
    moving the endpoint from Q to Q' along either arc of a consistent
    diagram carries theta at Q to theta at Q' by the path-ordered product
    of the arc, for every p0 with |a|, |b| <= r.  The diagrams are the
    fixtures, the sheared and the mutated seed, completed at order 4 with
    r = 2, the fixtures again at order 6 with r = 2, and the 37 valid
    rank-2 data, completed at order 3 with r = 1.
    Q lies in one gap of the fan and Q' in each other; each sits just off
    the gap's integer direction, which the path runs between, so segments
    leave rays walking either way round the fan.  Theta gives its
    coefficients in the initial basis and the product works in the seed's
    own, so on the sheared and the mutated seed theta is mapped into the
    seed's basis first; both sides are compared below the theta order."""
    seeds, order, r, expected = ENDPOINT_SEEDS[name]
    point = lambda g: (g[0] + Fraction(1, 1009), g[1] + Fraction(1, 1013))
    box = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1) if a or b]
    checks = 0
    for seed in seeds:
        D = complete_rank2(build_initial(seed, order))
        at = lambda g: {p0: in_seed_basis(D, theta(D, p0, order, Q=point(g)), order) for p0 in box}
        start, *others = gap_directions(D.walls)
        at_start = at(start)
        for end in others:
            at_end = at(end)
            for ccw in (True, False):
                # one product per arc, so that its memo of generator powers serves every p0
                P = path_ordered_product(D, PathSpec(start, end, ccw))
                for p0 in box:
                    assert eq_mod_order(P.apply(at_start[p0]), at_end[p0], order), (seed.data, p0, end, ccw)
                    checks += 1
    assert checks == expected


def in_seed_basis(D, x, order):
    """A series of ``theta`` (coefficients in the initial basis) with its
    coefficient exponents mapped into the seed's own basis, where the
    diagram counts degrees."""
    to_fresh = D.frame.to_fresh
    return LaurentSeries({Exponent(e.m, to_fresh(e.t)): c for e, c in x.terms.items()}, order)


def theta_products(D, box, order):
    """Each product theta_p theta_q, p and q in the box, peeled into theta
    functions lowest coefficient degree first: the degree-k terms c t^a z^m
    of what is left are the constants c t^a of theta_m, since t^a theta_m is
    t^a z^m below degree k + 1.  Degrees are those of the seed's own basis,
    so each theta is mapped into it first.  Yields (p, q, {(m, a): c})."""
    thetas: dict = {}

    def th(m):
        if m not in thetas:
            thetas[m] = in_seed_basis(D, theta(D, m, order), order)
        return thetas[m]

    for i, p in enumerate(box):
        for q in box[i:]:
            rest, constants = th(p) * th(q), {}
            while rest:
                for e, c in rest.degree_slice(min_degree(rest)).terms.items():
                    constants[e.m, e.t] = c
                    rest = rest - LaurentSeries.monomial((0, 0), e.t, c, order) * th(e.m)
            yield p, q, constants


def test_theta_structure_constants_are_nonnegative_integers():
    """The paper's positivity, on the multiplication of theta functions: on
    each of the 37 valid rank-2 data completed at order 3, every product of
    two theta functions with exponents in |a|, |b| <= 2 is a sum of theta
    functions with nonnegative int constants (GHKK section 6)."""
    box = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    products = 0
    for data in RANK2:
        D = complete_rank2(build_initial(group_seed(data), 3))
        for p, q, constants in theta_products(D, box, 3):
            assert all(type(c) is int and c > 0 for c in constants.values()), (data, p, q, constants)
            assert constants[tuple(map(sum, zip(p, q))), (0,) * sum(D.seed.coeff_orders)] == 1
            products += 1
    assert products == 37 * 325


@pytest.mark.parametrize(
    "seed, order, r, expected",
    [
        (group_seed(B2), 4, 3, 1225),
        (group_seed(KRON), 4, 3, 1225),
        (SHEARED_B2, 4, 3, 1225),
        (group_seed(B2), 6, 2, 325),
        (group_seed(KRON), 6, 2, 325),
    ],
    ids=["b2", "kron", "b2-sheared", "b2-o6", "kron-o6"],
)
def test_theta_structure_constants_on_a_wider_box(seed, order, r, expected):
    """The same positivity on the B2 and Kronecker fixture seeds completed at
    order 4, with |a|, |b| <= 3: a box wide enough to see the Kronecker wall
    on the ray (1,-2); and on both fixtures at order 6 with |a|, |b| <= 2.
    The sheared B2 seed peels in its own basis, which is not the initial
    one."""
    D = complete_rank2(build_initial(seed, order))
    box = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)]
    products = 0
    for p, q, constants in theta_products(D, box, order):
        assert all(type(c) is int and c > 0 for c in constants.values()), (p, q, constants)
        assert constants[tuple(map(sum, zip(p, q))), (0,) * sum(D.seed.coeff_orders)] == 1
        products += 1
    assert products == expected


def test_closed_forms_at_the_imaginary_direction():
    """B = ((0,-2),(2,0)), d = (1,1) and r in {1,2}^2, completed at order 10.
    No cluster chamber holds delta = (1,-1), so ``theta_via_transport`` has no
    route there; the multiples of delta obey theta_delta^2 - theta_2delta = 2c
    and theta_delta theta_ndelta = theta_(n+1)delta + c theta_(n-1)delta,
    where c is the product of all coefficient generators."""
    order = 10
    for r in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        D = complete_rank2(build_initial(group_seed(FixedData(((0, -2), (2, 0)), (1, 1), r)), order))
        th = [theta(D, (n, -n), order) for n in range(6)]
        c = LaurentSeries.monomial((0, 0), (1,) * sum(r), 1, order)
        assert th[1] * th[1] - th[2] == c + c, r
        for n in (2, 3, 4):
            assert th[1] * th[n] == th[n + 1] + c * th[n - 1], (r, n)


# -- greedy elements: a second route for theta at every exponent --------------


def greedy_comparison(datas, box, order):
    """Compare theta with the greedy element (``oracles.greedy_element``) for
    each datum and each g != 0 with |g_1|, |g_2| <= box: theta_g at
    ``order`` from the default endpoint, summed over t, against x[a1, a2]
    at its corner a_i = -min m_i.  The t-degree of a term z^m is u + v in
    m - g = u w_1 + v w_2, with w_i the seed's normal covectors; a g whose
    greedy support reaches degree ``order`` is skipped.  Returns the
    (datum, g) pairs compared and those skipped."""
    agreed, skipped = [], []
    for data in datas:
        D = complete_rank2(build_initial(group_seed(data), order))
        (w00, w01), (w10, w11) = D.frame.W
        det = w00 * w11 - w01 * w10
        for g in [(a, b) for a in range(-box, box + 1) for b in range(-box, box + 1) if (a, b) != (0, 0)]:
            summed: dict = {}
            for e, c in theta(D, g, order).terms.items():
                summed[e.m] = summed.get(e.m, 0) + c
            corner = tuple(-min(m[i] for m in summed) for i in (0, 1))
            greedy = greedy_element(-data.B[0][1], data.B[1][0], data.r, corner)
            degrees = []
            for m in greedy:
                d0, d1 = m[0] - g[0], m[1] - g[1]
                u, v = d0 * w11 - d1 * w10, w00 * d1 - w01 * d0
                assert u % det == 0 and v % det == 0, (data, g, m)
                degrees.append((u + v) // det)
            if max(degrees) >= order:
                skipped.append((data, g))
                continue
            assert summed == greedy, (data, g)
            agreed.append((data, g))
    return agreed, skipped


@pytest.mark.parametrize(
    "ordinary, box, order, agreed, skipped",
    [(True, 2, 8, 265, 23), (False, 1, 6, 250, 46)],
    ids=["ordinary-box2-order8", "all-box1-order6"],
)
def test_theta_summed_over_t_is_the_greedy_element(ordinary, box, order, agreed, skipped):
    """On the 12 ordinary data (r = (1,1)) at |g_i| <= 2 and order 8, and
    on all 37 data at |g_i| <= 1 and order 6.  Every skipped g lies on the
    bottom row g_2 = -box: its greedy support reaches degree ``order``."""
    datas = [data for data in RANK2 if data.r == (1, 1) or not ordinary]
    assert len(datas) == (12 if ordinary else 37)
    got, missed = greedy_comparison(datas, box, order)
    assert (len(got), len(missed)) == (agreed, skipped)
    assert all(g[1] == -box for _, g in missed)


# -- coefficient blocks: symmetry and specialization of theta -----------------

@lru_cache(maxsize=None)
def block_thetas(data, order):
    """theta_g of the completion of ``data`` at ``order``, by g != 0 with
    |g_1|, |g_2| <= 2, and the number of g skipped because the default
    endpoint's search raised ``GenericityError``."""
    D = complete_rank2(build_initial(group_seed(data), order))
    thetas, skipped = {}, 0
    for g in [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]:
        try:
            thetas[g] = theta(D, g, order)
        except GenericityError:
            skipped += 1
    return thetas, skipped


def map_t(x, f):
    """The series x with every t-exponent sent through f; colliding terms add."""
    terms = {}
    for e, c in x.terms.items():
        e2 = Exponent(e.m, f(e.t))
        terms[e2] = terms.get(e2, 0) + c
    return LaurentSeries(terms, x.order)


@pytest.mark.parametrize("data, order", SPECIALIZATION_CASES, ids=BLOCK_IDS)
def test_theta_is_invariant_under_block_permutations(data, order):
    """The completion is invariant under S_{r_1} x S_{r_2} permuting the
    generators of each block (``oracles.permute_blocks``), so each theta_g
    is too: swapping two t-slots of one block gives theta_g back.  The
    swaps of neighbours in a block generate the group."""
    thetas, skipped = block_thetas(data, order)
    assert skipped == 0 and len(thetas) == 24
    for j in (j for i in range(2) for j in block_range(data.r, i)[:-1]):
        swap = lambda t: t[:j] + (t[j + 1], t[j]) + t[j + 2 :]
        for g, th in thetas.items():
            assert map_t(th, swap) == th, (g, j)


@pytest.mark.parametrize("data, order", SPECIALIZATION_CASES, ids=BLOCK_IDS)
def test_theta_specializes_to_the_one_generator_theta(data, order):
    """t_{i,j} -> t_i maps the completion onto the completion of
    ``oracles.one_generator_diagram``, and it keeps every degree and every
    wall, so it maps each theta_g onto theta_g of that diagram."""
    thetas, skipped = block_thetas(data, order)
    assert skipped == 0 and len(thetas) == 24
    small = complete_rank2(one_generator_diagram(data, order))
    blocks = [block_range(data.r, i) for i in range(2)]
    specialize = lambda t: tuple(sum(t[j] for j in b) for b in blocks)
    for g, th in thetas.items():
        assert map_t(th, specialize) == theta(small, g, order), g


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
        assert b.num == a.num * a.num

    def test_gap_vector_not_found(self, kron_d8):
        with pytest.raises(ValueError, match="no cluster chamber"):
            theta_via_transport(kron_d8, (1, -1))

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
        coeffs = (((1, 1),), ((0, 1),))
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
