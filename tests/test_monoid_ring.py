"""Series kernel: exact truncated arithmetic, crossings, automorphisms, division."""

import re
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from clusterscatter import monoid_ring
from clusterscatter.monoid_ring import (
    Exponent,
    LaurentSeries,
    _binomial_div,
    _decode,
    _min_order,
    exponent,
    series_add,
    series_exact_div,
    series_from_json,
    series_log,
    series_mul,
    series_pow,
    series_scale,
    series_sub,
    series_to_json,
    series_to_str,
    wall_cross,
)

from oracles import Automorphism

# Two lattice variables (A1, A2) and three coefficient slots (t11; t21, t22),
# matching the rank-2 fixture with orders (1, 2).
N, D = 2, 3


def mono(m, t, c=1, order=None):
    return LaurentSeries.monomial(m, t, c, order)


def one(order=None):
    return LaurentSeries.one(N, D, order)


A1 = (1, 0)
A2 = (0, 1)
T11 = (1, 0, 0)
T21 = (0, 1, 0)
T22 = (0, 0, 1)
Z2 = (0, 0)
Z3 = (0, 0, 0)


class TestRingOps:
    def test_mul_difference_of_squares(self):
        f = one() + mono(A2, T11)
        g = one() - mono(A2, T11)
        assert f * g == one() - mono((0, 2), (2, 0, 0))

    def test_mul_unit(self):
        a = one() + mono(A1, T21, 3) + mono((-2, 1), T22, -5)
        assert a * one() == a

    def test_mul_independent(self):
        x = mono(A1, T11)
        y = mono(A2, T21)
        assert (one() + x) * (one() + y) == one() + x + y + x * y

    def test_truncation_drops_high_degree(self):
        f = one(order=2) + mono(A2, T11, order=2)
        sq = f * f
        # t11^2 term has coefficient degree 2 and is cut
        assert sq == one(order=2) + mono(A2, T11, 2, order=2)

    def test_pow_square(self):
        u = mono(A2, T11)
        assert (one() + u) ** 2 == one() + u + u + u * u

    def test_pow_negative_geometric(self):
        u = mono((-1, 0), T21)
        inv = series_pow(one(4) + u.truncate(4), -1)
        expect = one(4) - u.truncate(4) + (u * u).truncate(4) - (u * u * u).truncate(4)
        assert inv == expect

    def test_pow_negative_requires_order(self):
        with pytest.raises(ValueError):
            series_pow(one() + mono(A2, T11), -1)

    def test_figure_factor_expansion(self):
        # (1 + t21*A1^-1)(1 + t22*A1^-1) = 1 + (t21+t22)*A1^-1 + t21*t22*A1^-2
        f = (one() + mono((-1, 0), T21)) * (one() + mono((-1, 0), T22))
        assert f == one() + mono((-1, 0), T21) + mono((-1, 0), T22) + mono((-2, 0), (0, 1, 1))

    def test_monomial_unit_inverse_exact(self):
        m = mono((2, -1), (0, 1, 0))
        assert series_pow(m, -1) == mono((-2, 1), (0, -1, 0))


class TestWallCross:
    def test_b2_initial_wall(self):
        f = one(6) + mono(A2, T11, order=6)
        out = wall_cross(mono(A1, Z3, order=6), f, (1, 0), -1)
        assert out == series_mul(mono(A1, Z3, order=6), series_pow(f, -1))

    def test_tangent_monomial_fixed(self):
        f = one(6) + mono(A2, T11, order=6)
        x = mono(A2, Z3, order=6)  # <e1, e2*> = 0
        assert wall_cross(x, f, (1, 0), 1) == x

    def test_round_trip_inverse(self):
        f = (one(5) + mono((-1, 0), T21, order=5)) * (one(5) + mono((-1, 0), T22, order=5))
        x = mono((3, -2), (1, 0, 1), 4, order=5) + mono((-1, 4), Z3, order=5)
        there = wall_cross(x, f, (0, 1), 1)
        back = wall_cross(there, f, (0, 1), -1)
        assert back == x

    def test_non_int_normal_rejected(self):
        f = one(4) + mono((2, 0), T11, order=4)
        for n0 in ((Fraction(1, 2), 0), (Fraction(2), 0), (1.0, 0)):
            with pytest.raises(ValueError, match=re.escape(f"acting normal {n0} must have int entries")):
                wall_cross(mono((2, 2), Z3, order=4), f, n0, 1)


class TestExpLog:
    def test_log_basic(self):
        u = mono(A2, T11, order=3)
        assert series_log(one(3) + u) == u - (u * u) * LaurentSeries({exponent(Z2, Z3): Fraction(1, 2)})

    def test_log_of_square(self):
        f = one(6) + mono(A2, T11, order=6)
        assert series_log(f * f) == series_add(series_log(f), series_log(f))

    def test_log_requires_unit_one(self):
        with pytest.raises(ValueError):
            series_log(mono(A1, Z3, order=4) + one(4))


def crossing(f, n0, order):
    """The crossing z^m -> z^m f^<n0, m> as images of the generators."""
    ident = Automorphism.identity(N, D, order)
    return Automorphism([wall_cross(img, f, n0, 1) for img in ident.m_images], ident.t_images, order)


class TestAutomorphism:
    def test_compose_order(self):
        f = one(6) + mono(A2, T11, order=6)
        g = (one(6) + mono((-1, 0), T21, order=6)) * (one(6) + mono((-1, 0), T22, order=6))
        cross_f = crossing(f, (1, 0), 6)
        cross_g = crossing(g, (0, 1), 6)
        x = mono((1, 1), Z3, order=6)
        via_compose = cross_g.compose(cross_f).apply(x)
        direct = cross_g.apply(cross_f.apply(x))
        assert via_compose == direct

    def test_apply_negative_powers(self):
        f = one(6) + mono(A2, T11, order=6)
        aut = crossing(f, (1, 0), 6)
        image = aut.apply(mono((-1, 0), Z3, order=6))
        assert image == wall_cross(mono((-1, 0), Z3, order=6), f, (1, 0), 1)

    def test_multiplicativity(self):
        f = one(6) + mono(A2, T11, order=6)
        aut = crossing(f, (1, 0), 6)
        a = mono((2, -1), T21, order=6)
        b = mono((-3, 2), T22, 5, order=6)
        assert aut.apply(a * b) == aut.apply(a) * aut.apply(b)


class TestExactDivision:
    def test_simple_quotient(self):
        u = mono(A1, T21)
        v = mono(A2, T22)
        prod = (one() + u) * (one() + v)
        assert series_exact_div(prod, one() + u) == one() + v

    def test_laurent_shift(self):
        num = mono((1, 0), Z3) + mono((0, 1), T11)
        den = mono((3, -2), (0, 1, 1))
        q = series_exact_div(num, den)
        assert q is not None
        assert q * den == num

    def test_not_divisible(self):
        assert series_exact_div(one() + mono(A1, Z3), mono(A2, Z3) + one()) is None

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            series_exact_div(one(), LaurentSeries())

    def test_int_operands_with_a_fraction_quotient(self):
        q = series_exact_div(one() + mono(A1, Z3), mono(Z2, Z3, 2) + mono(A1, Z3, 2))
        assert q == mono(Z2, Z3, Fraction(1, 2))
        assert type(q.terms[exponent(Z2, Z3)]) is Fraction

    def test_cancelled_remainder_key_is_created_again(self):
        # (1 - 3z^2 + z^3 - z^5) / (1 - z - z^2): the first step cancels z^3
        # below its lead, the second writes z^3 again, and the heap's stale
        # copy of z^3 pops while z^2, z and 1 are still in the remainder
        def z(e, c=1):
            return mono((e, 0), Z3, c)

        den = z(0) - z(1) - z(2)
        quot = z(0) + z(1) - z(2) + z(3)
        assert den * quot == z(0) - z(2, 3) + z(3) - z(5)
        assert series_exact_div(den * quot, den) == quot


class TestSerialization:
    def test_round_trip(self):
        a = one(7) + mono((-2, 3), T21, 5, order=7) + mono(A1, (1, 0, 2), -4, order=7)
        data = series_to_json(a)
        assert series_from_json(data) == a

    def test_canonical_sort(self):
        a = mono(A1, T22) + mono(A2, T11) + one()
        data = series_to_json(a)
        assert data["terms"][0]["t"] == [0, 0, 0]
        assert data["terms"][1]["t"] == [0, 0, 1]
        assert data["order"] == "inf"

    def test_rejects_fractions(self):
        a = LaurentSeries({exponent(Z2, T11): Fraction(1, 2)})
        with pytest.raises(ArithmeticError):
            series_to_json(a)

    def test_str(self):
        a = one() + mono((-1, 0), (1, 0, 0), 2)
        s = series_to_str(a, m_names=("A1", "A2"), t_names=("t11", "t21", "t22"))
        assert s == "1 + 2*t11*A1^-1"


# -- randomized ring laws ----------------------------------------------------

exps = st.builds(
    exponent,
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
)

small_series = st.dictionaries(exps, st.integers(-5, 5).filter(bool), min_size=0, max_size=4).map(
    lambda terms: LaurentSeries(terms, 5)
)


@settings(max_examples=200, deadline=None)
@given(small_series, small_series, small_series)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert series_sub(a, a) == LaurentSeries(order=5)


@settings(max_examples=200, deadline=None)
@given(small_series)
def test_unit_mul(a):
    assert a * one(5) == a.truncate(5)


@settings(max_examples=100, deadline=None)
@given(small_series, small_series)
def test_wall_cross_multiplicative(a, b):
    f = one(5) + mono(A2, T11, order=5)
    n0 = (1, 0)
    assert wall_cross(a * b, f, n0, 1) == wall_cross(a, f, n0, 1) * wall_cross(b, f, n0, 1)


@st.composite
def unit_pairs(draw):
    """Two series with constant term 1 at a shared order in 2..6."""
    order = draw(st.integers(2, 6))
    higher = st.dictionaries(
        exps.filter(lambda e: sum(e.t)), st.integers(-5, 5).filter(bool), max_size=3
    )
    return tuple(one(order) + LaurentSeries(draw(higher), order) for _ in range(2))


@settings(max_examples=100, deadline=None)
@given(unit_pairs())
def test_log_is_additive_on_products(pair):
    f, g = pair
    assert series_log(f * g) == series_log(f) + series_log(g)


# -- binomial crossing against the bucketed reference ------------------------


def bucketed_wall_cross(x, f, n0, sign=1):
    """Reference crossing: bucket the terms of x by level h = sign*<n0, m>
    and multiply each bucket by its own power f^h."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not f.constant_slice().is_one():
        raise ValueError("wall function must have constant term exactly 1")
    buckets = {}
    for e, c in x.terms.items():
        h = sum(a * b for a, b in zip(n0, e.m))
        buckets.setdefault(sign * h, {})[e] = c
    order = _min_order(x.order, f.order)
    result = LaurentSeries(order=order)
    for h, terms in buckets.items():
        part = LaurentSeries(terms, order)
        if h:
            part = series_mul(part, series_pow(f.truncate(order), h))
        result = series_add(result, part)
    return result


coeffs = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.fractions(-3, 3, max_denominator=4).filter(bool),
)
t_positive = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)).filter(any)


@st.composite
def crossings(draw, untruncated=False):
    """(x, f, n0, sign) with an int acting normal n0."""
    n0 = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    sign = draw(st.sampled_from((1, -1)))
    order = None if untruncated else draw(st.integers(1, 8))
    x_terms = {}
    for _ in range(draw(st.integers(0, 4))):
        m = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        if untruncated and sign * (n0[0] * m[0] + n0[1] * m[1]) < 0:
            m = (-m[0], -m[1])  # keep every level >= 0
        x_terms[exponent(m, draw(t_positive | st.just(Z3)))] = draw(coeffs)
    f_terms = {exponent(Z2, Z3): 1}
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
        f_terms[exponent(m, draw(t_positive))] = draw(coeffs)
    x_order = order if draw(st.booleans()) or untruncated else None
    f_order = None if untruncated else draw(st.sampled_from((None, order, order + 2)))
    if x_order is None and f_order is None:
        f_order = order
    return LaurentSeries(x_terms, x_order), LaurentSeries(f_terms, f_order), n0, sign


@settings(max_examples=300, deadline=None)
@given(crossings())
def test_wall_cross_matches_bucketed(case):
    got = wall_cross(*case)
    want = bucketed_wall_cross(*case)
    assert got.order == want.order
    assert got.terms == want.terms


@settings(max_examples=100, deadline=None)
@given(crossings(untruncated=True))
def test_wall_cross_matches_bucketed_untruncated(case):
    got = wall_cross(*case)
    want = bucketed_wall_cross(*case)
    assert got.order == want.order is None
    assert got.terms == want.terms


class TestBinomialCrossing:
    def test_untruncated_negative_level_needs_order(self):
        f = one() + mono(A2, T11)
        for cross in (wall_cross, bucketed_wall_cross):
            with pytest.raises(ValueError, match="finite truncation order"):
                cross(mono(A1, Z3), f, (1, 0), -1)

    def test_untruncated_trivial_wall_is_identity(self):
        x = mono((-3, 1), T21, 2) + mono((2, 0), Z3, Fraction(1, 3))
        assert wall_cross(x, one(), (1, 0), 1) == x
        assert wall_cross(x, one(), (1, 0), -1) == x

    def test_untruncated_positive_level_is_exact_power(self):
        f = one() + mono(A2, T11) + mono((1, 1), T22, 2)
        x = mono((3, 0), Z3)
        assert wall_cross(x, f, (1, 0), 1) == x * f * f * f

    def test_constant_term_other_than_one_rejected(self):
        x = mono(A1, Z3, order=4)
        for f in (mono(Z2, Z3, 2, order=4) + mono(A2, T11, order=4),
                  one(4) + mono(A1, Z3, order=4)):
            for cross in (wall_cross, bucketed_wall_cross):
                with pytest.raises(ValueError, match="constant term"):
                    cross(x, f, (1, 0), 1)


# -- packed keys against Exponent-keyed reference kernels --------------------


def _exp_add(e, f):
    return Exponent(tuple(map(add, e.m, f.m)), tuple(map(add, e.t, f.t)))


def reference_mul(a, b):
    """Product over Exponent keys: every pair, cut by coefficient degree."""
    order = _min_order(a.order, b.order)
    terms = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = _exp_add(ea, eb)
            if order is None or sum(e.t) < order:
                terms[e] = terms.get(e, 0) + ca * cb
    return LaurentSeries(terms, order)


def reference_exact_div(a, b):
    """Exact quotient over flat exponent tuples shifted to their minima:
    peel the lexicographically largest remainder term until it is gone, or
    until the next quotient exponent leaves the shifted orthant (None)."""
    if not a.terms:
        return LaurentSeries()
    n = len(next(iter(a.terms)).m)

    def shifted(s):
        flat = [e.m + e.t for e in s.terms]
        mins = [min(col) for col in zip(*flat)]
        return mins, {tuple(x - y for x, y in zip(e.m + e.t, mins)): c for e, c in s.terms.items()}

    mins_a, rem = shifted(a)
    mins_b, div = shifted(b)
    lead_div = max(div)
    quot = {}
    while rem:
        lead = max(rem)
        step = tuple(x - y for x, y in zip(lead, lead_div))
        if any(x < 0 for x in step):
            return None
        q = Fraction(rem[lead]) / div[lead_div]
        quot[step] = q
        for e, ce in div.items():
            key = tuple(x + y for x, y in zip(step, e))
            rem[key] = rem.get(key, 0) - q * ce
            if rem[key] == 0:
                del rem[key]
    shift = [x - y for x, y in zip(mins_a, mins_b)]
    return LaurentSeries(
        {exponent(k[:n], k[n:]): c for k, c in ((tuple(map(add, k, shift)), c) for k, c in quot.items())},
        None,
    )


@st.composite
def packed_series(draw, count, untruncated=False, max_size=5, coefficients=coeffs):
    """``count`` series sharing random dims n in 1..3 and d in 1..4, with
    negative exponents, int and Fraction coefficients and orders None or 1..8."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    exps_nd = st.builds(
        exponent,
        st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        st.lists(st.integers(-1, 3), min_size=d, max_size=d),
    )
    orders = st.none() if untruncated else st.none() | st.integers(1, 8)
    return [
        LaurentSeries(draw(st.dictionaries(exps_nd, coefficients, max_size=max_size)), draw(orders))
        for _ in range(count)
    ]


int_coeffs = st.integers(-4, 4).filter(bool)
leads = st.sampled_from((2, -2, 3, -3)) | st.fractions(-3, 3, max_denominator=4).filter(
    lambda c: c.denominator > 1
)


@st.composite
def division_triples(draw):
    """Untruncated (p, q, r) of up to 12 terms each, with int coefficients
    only in about half the draws, and q's leading coefficient +-2, +-3 or a
    non-integral Fraction: quotient terms take both the divmod and the
    Fraction path, with and without a remainder."""
    p, q, r = draw(
        packed_series(3, untruncated=True, max_size=12, coefficients=draw(st.sampled_from((int_coeffs, coeffs))))
    )
    if q:
        terms = dict(q.terms)
        terms[max(terms)] = draw(leads)
        q = LaurentSeries(terms)
    return p, q, r


@settings(max_examples=200, deadline=None)
@given(packed_series(2))
def test_mul_matches_reference(pair):
    a, b = pair
    got, want = series_mul(a, b), reference_mul(a, b)
    assert got.order == want.order
    assert got.terms == want.terms


@settings(max_examples=150, deadline=None)
@given(division_triples())
def test_exact_div_matches_reference(triple):
    p, q, r = triple
    for num, den in ((p * q, q), (p * q + r, q), (p, q)):
        if not den:
            continue
        got, want = series_exact_div(num, den), reference_exact_div(num, den)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.order == want.order is None
            assert got.terms == want.terms


@st.composite
def binomial_divisions(draw):
    """Untruncated (p, b, r) of one dims: p and r of up to 10 terms, and b a
    binomial of two distinct monomials, about a third of them t-only (one
    lattice part) and the rest mixed.  b's coefficients are 1 in about half
    the draws, as in every exchange binomial, and otherwise +-1, +-2 or a
    non-integral Fraction."""
    p, r = draw(packed_series(2, untruncated=True, max_size=10, coefficients=draw(st.sampled_from((int_coeffs, coeffs)))))
    n, d = p.dims() or r.dims() or (draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    ms = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    ts = st.lists(st.integers(-1, 3), min_size=d, max_size=d)
    m_u = draw(ms)
    m_v = m_u if draw(st.integers(0, 2)) == 0 else draw(ms)
    u, v = exponent(m_u, draw(ts)), exponent(m_v, draw(ts))
    if u == v:
        v = exponent(m_v, [x + 1 for x in v.t])
    cs = st.just(1) if draw(st.booleans()) else st.sampled_from((1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 2)))
    return p, LaurentSeries({u: draw(cs), v: draw(cs)}), r


@settings(max_examples=200, deadline=None)
@given(binomial_divisions())
def test_binomial_division_matches_exact_division(triple):
    """The chain walk of ``_binomial_div`` against ``series_exact_div``, its
    oracle, on exact products, on products plus a drawn remainder and on the
    bare dividend: the same quotient or the same None, a normalized quotient,
    and every quotient key inside the carried bound a._bound + b._bound."""
    p, b, r = triple
    for num in (p * b, p * b + r, p):
        bound = num._bound + b._bound  # read first: the oracle re-derives both bounds
        got, want = _binomial_div(num, b), series_exact_div(num, b)
        assert (got is None) == (want is None), (num, b)
        if got is not None:
            assert got == want
            assert all(map(_is_normalized, got._packed.values()))
            assert got._bound <= bound
            assert all(abs(x) <= got._bound for e in got.terms for x in (*e.m, *e.t, sum(e.t)))


class TestBinomialDivision:
    def z(self, e, t=Z3, c=1):
        return mono((e, 0), t, c)

    def test_chain_with_interior_gaps(self):
        # (1 + z^3) / (1 + z): the chain 3, 2, 1, 0 of a holds keys at its ends only
        z = self.z
        assert _binomial_div(z(0) + z(3), z(0) + z(1)) == z(0) - z(1) + z(2)
        assert _binomial_div(z(0) - z(6), z(0) - z(2)) == z(0) + z(2) + z(4)
        assert _binomial_div(z(0) + z(4), z(0) + z(1)) is None

    def test_t_only_and_mixed_binomials(self):
        t_only = mono(Z2, T11) + mono(Z2, T21)
        mixed = mono(Z2, T21) + mono((0, -2), T22)  # t^{p^-} + t^{p^+} z^w
        for b in (t_only, mixed, t_only * mixed):
            for q in (one(), mono((3, -1), T11) + mono(A1, Z3, -2), mono(A2, T22) * mono(A1, Z3) + one()):
                if len(b) == 2:
                    assert _binomial_div(q * b, b) == series_exact_div(q * b, b) == q
                    assert _binomial_div(q * b + mono((9, 9), Z3), b) is None
        assert _binomial_div(t_only * mixed, mixed) == t_only

    def test_keys_that_share_a_residue_lie_on_different_chains(self):
        # (z0 + 1) / (1 + z1): z0 and 1 differ by 2^32 z1 as packed ints, so
        # grouping by k % delta would join them and walk about 2^32 positions;
        # each is a chain of one key, so the division fails at once
        b = one() + mono(A2, Z3)
        assert _binomial_div(mono(A1, Z3) + one(), b) is None
        assert _binomial_div(mono((1000, 0), Z3) + one(), b) is None
        assert _binomial_div((mono(A1, Z3) + one()) * b, b) == mono(A1, Z3) + one()

    def test_dividend_at_the_slot_limit_is_refused(self):
        top = 2**31 - 1
        b = one() + mono(A2, Z3)
        a = mono((top, 0), Z3) + mono((top, 1), Z3)  # z0^top (1 + z1), each slot inside the limit
        for div in (_binomial_div, series_exact_div):
            with pytest.raises(OverflowError, match=r"could reach 4294967296; slots hold at most 2147483647"):
                div(a, b)

    def test_monomial_divisor_goes_to_exact_division(self):
        # t^0 + t^0 is 2, as an exchange binomial with w = 0 and p = 0 is
        a = mono(A1, T11, 4) + mono(A2, Z3, 3)
        assert _binomial_div(a, mono(Z2, Z3, 2)) == series_exact_div(a, mono(Z2, Z3, 2))


def _is_normalized(c):
    return type(c) is int or type(c) is Fraction and c.denominator != 1


@settings(max_examples=50, deadline=None)
@given(packed_series(3, untruncated=True), st.integers(1, 8))
def test_every_kernel_stores_normalized_coefficients(triple, order):
    """An int, or a Fraction whose denominator is not 1: series_add relies on
    it and normalizes only the sums it writes."""
    p, q, r = triple
    n, d = p.dims() or q.dims() or r.dims() or (1, 1)
    unit = LaurentSeries.one(n, d, order) + LaurentSeries(
        {e: c for e, c in r.terms.items() if sum(e.t) > 0}, order
    )
    half = series_scale(p, Fraction(1, 2))
    results = [
        LaurentSeries(dict(p.terms), order), half + half, p + q, series_sub(p, q), p * q,
        series_pow(unit, 2), series_pow(unit, -2), series_log(unit),
        wall_cross(p.truncate(order), unit, (1,) * n, -1),
    ]
    if q:
        results += [series_exact_div(p * q, q), series_exact_div(p, q)]
    for s in results:
        assert s is None or all(map(_is_normalized, s._packed.values())), s


@settings(max_examples=100, deadline=None)
@given(packed_series(1))
def test_packed_key_order_is_exponent_order(one_series):
    s, = one_series
    n, d = s.dims() or (0, 0)
    assert [_decode(k, n, d) for k in sorted(s._packed)] == sorted(s.terms)


class TestDims:
    """Operands of different (n, d) are rejected, never truncated."""

    a = mono((1, 0), (1, 0, 0), order=5)
    b = mono((0, 1), (0, 1, 0, 0), order=5)

    def test_mul(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) and \(2, 4\)"):
            series_mul(self.a, self.b)

    def test_add(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) and \(2, 4\)"):
            series_add(self.a, self.b)

    def test_wall_cross(self):
        x = mono((1, 0), (0, 0), order=5)
        f = one(5) + mono((0, 1), (1, 0, 0), order=5)
        with pytest.raises(ValueError, match=r"\(2, 2\) and \(2, 3\)"):
            wall_cross(x, f, (1, 0), 1)

    def test_exact_div(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) and \(2, 4\)"):
            series_exact_div(mono((1, 0), Z3), mono((0, 1), (0, 0, 0, 0)) + mono((1, 1), (0, 0, 0, 1)))

    def test_constructor(self):
        with pytest.raises(ValueError, match="different dims"):
            LaurentSeries({exponent(A1, T11): 1, exponent(A1, (1, 0)): 1})

    def test_empty_series_adopts_the_other_dims(self):
        zero = LaurentSeries(order=5)
        assert (zero + self.b).dims() == (2, 4)
        assert (self.b - self.b + self.a).dims() == (2, 3)
        assert not zero * self.b and (zero * self.b).dims() is None


class TestOverflow:
    """Every slot of a packed key stays inside (-2^31, 2^31)."""

    top = 2**31 - 1

    def test_largest_slot_round_trips(self):
        x = LaurentSeries.monomial((self.top, -self.top), (self.top, 0, 0), order=None)
        assert x.terms == {exponent((self.top, -self.top), (self.top, 0, 0)): 1}
        assert (x * mono(Z2, Z3)).terms == x.terms

    def test_one_past_the_largest_slot_is_rejected(self):
        for m, t in (((self.top + 1, 0), Z3), ((0, -self.top - 1), Z3), (A1, (self.top, 1, 0))):
            with pytest.raises(OverflowError):
                LaurentSeries.monomial(m, t)

    def test_square_past_the_limit_decodes_no_exponent(self, monkeypatch):
        x = mono((2**30, 0), T11)
        y = mono((2**30 - 1, 1), Z3)
        assert (y * y).terms == {exponent((self.top - 1, 2), Z3): 1}

        def no_decoding(*args):
            raise AssertionError("an exponent was decoded")

        monkeypatch.setattr(monoid_ring, "_decode", no_decoding)
        with pytest.raises(OverflowError):
            x * x
        with pytest.raises(OverflowError):
            series_pow(x, 2)

    def test_bounds_inside_the_limit_scan_no_keys(self, monkeypatch):
        def no_scan(*args):
            raise AssertionError("keys were scanned for a bound")

        monkeypatch.setattr(monoid_ring, "_box", no_scan)
        y = mono((2**30 - 1, 1), Z3)
        assert (y * y).terms == {exponent((self.top - 1, 2), Z3): 1}
        f = one(6) + mono((3, -1), T11)
        assert series_pow(f, 5) == f * f * f * f * f

    def test_loose_bounds_are_re_derived_from_the_keys(self):
        # the quotient by a monomial carries the sum of both bounds, 3 * 2^29,
        # while its one key has slot 2^29; its square still fits
        a = mono((2**29, 0), Z3)
        q = series_exact_div(a * a, a)
        assert q == a
        assert (q * q).terms == {exponent((2**30, 0), Z3): 1}

    def test_exact_quotient_bound_is_its_support_box(self):
        f = one() + mono((5, -7), T11)
        g = mono(A1, Z3) + mono((-2, 3), T21)
        q = series_exact_div(f * g, g)
        assert q == f and q._bound == 7
