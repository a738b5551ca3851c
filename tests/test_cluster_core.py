"""Seed mutation, patterns, c/g-vectors, chart variables."""

import json
import random
from dataclasses import replace
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from clusterscatter import cluster_core
from clusterscatter.cluster_core import (
    FixedData,
    GVectorFrame,
    InvariantViolation,
    Seed,
    _beta,
    _chamber_walk,
    _pull_back,
    _transport,
    chart_variables,
    distinct_cluster_variables,
    explore_pattern,
    g_frame_mutate,
    initial_g_frame,
    initial_seed,
    matrix_mutate,
    pattern_walk,
    reduce_word,
    seed_from_json,
    seed_key,
    seed_mutate,
    seed_to_json,
    seeds_equal,
    unimodular_inverse_transpose,
)
from clusterscatter.fixtures import load_fixture
from clusterscatter.monoid_ring import LaurentSeries, series_exact_div, series_pow
from clusterscatter.semifield import block_range, p_minus, p_plus

from oracles import CMatrix, c_matrix_mutate, frame_matrix, initial_c_matrix
from test_scattering import G2, RANK2

B2 = FixedData(((0, -2), (1, 0)), (1, 2), (1, 2))
KRON = FixedData(((0, -2), (2, 0)), (1, 1), (2, 2))
R3 = FixedData(((0, -2, 1), (1, 0, -1), (-1, 2, 0)), (1, 2, 1), (1, 2, 1))
A2CL = FixedData(((0, 1), (-1, 0)), (1, 1), (1, 1))
CATALOG = [B2, KRON, R3, A2CL]


def walk_words(n, max_len):
    return st.lists(st.integers(1, n), max_size=max_len).map(tuple)


# -- matrix layer ------------------------------------------------------------


class TestMatrixMutation:
    def test_involution_b2(self):
        B = B2.B
        for k in (1, 2):
            assert matrix_mutate(matrix_mutate(B, k), k) == B

    def test_b2_values(self):
        assert matrix_mutate(B2.B, 1) == ((0, 2), (-1, 0))
        assert matrix_mutate(B2.B, 2) == ((0, 2), (-1, 0))

    def test_rank3_preserves_structure(self):
        B = R3.B
        for word in [(1,), (2, 3), (1, 2, 3, 1), (3, 2, 1, 2)]:
            M = B
            for k in word:
                M = matrix_mutate(M, k)
            FixedData(M, R3.d, R3.r)  # validates skew-symmetrizability and divisibility

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            matrix_mutate(B2.B, 0)
        with pytest.raises(IndexError):
            matrix_mutate(B2.B, 3)

    @given(walk_words(3, 8))
    def test_involution_along_walks(self, word):
        M = R3.B
        trace = [M]
        for k in word:
            M = matrix_mutate(M, k)
            trace.append(M)
        for k in reversed(word):
            M = matrix_mutate(M, k)
            trace.pop()
            assert M == trace[-1]


class TestFixedData:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            FixedData(((0, 1),), (1,), (1,))

    def test_rejects_bad_skew(self):
        with pytest.raises(ValueError):
            FixedData(((0, 1), (1, 0)), (1, 1), (1, 1))

    def test_rejects_bad_divisibility(self):
        with pytest.raises(ValueError):
            FixedData(((0, -1), (1, 0)), (1, 1), (1, 2))

    def test_rejects_bad_gcd(self):
        with pytest.raises(ValueError):
            FixedData(((0, -1), (1, 0)), (2, 2), (1, 1))

    def test_beta(self):
        assert _beta(B2.B, B2.r, 0, 1) == -1
        assert _beta(B2.B, B2.r, 1, 0) == 1


# -- golden chart ------------------------------------------------------------


def _b2_symbols():
    mono = LaurentSeries.monomial
    return (
        mono((1, 0), (0, 0, 0)),
        mono((0, 1), (0, 0, 0)),
        mono((0, 0), (1, 0, 0)),
        mono((0, 0), (0, 1, 0)),
        mono((0, 0), (0, 0, 1)),
        LaurentSeries.one(2, 3),
    )


class TestChart:
    """The full alternating walk of the degree-(1,2) rank-2 pattern, with all
    coefficient tuples and cluster variables checked against hand values."""

    def test_full_walk(self):
        A1, A2, t11, t21, t22, one = _b2_symbols()
        s = initial_seed(B2)
        assert s.matrix == ((0, -2), (1, 0))
        assert [list(tup) for tup in s.coeffs] == [
            [(1, 0, 0)],
            [(0, 1, 0), (0, 0, 1)],
        ]
        assert s.cluster[0].num == A1 and s.cluster[1].num == A2

        s = seed_mutate(s, 1)  # t1
        assert s.matrix == ((0, 2), (-1, 0))
        assert [list(tup) for tup in s.coeffs] == [
            [(-1, 0, 0)],
            [(0, 1, 0), (0, 0, 1)],
        ]
        x1_t1 = series_pow(A1, -1) * (one + t11 * A2)
        assert s.cluster[0].num == x1_t1
        assert s.cluster[1].num == A2

        s = seed_mutate(s, 2)  # t2
        assert s.matrix == ((0, -2), (1, 0))
        assert [list(tup) for tup in s.coeffs] == [
            [(-1, 0, 0)],
            [(0, -1, 0), (0, 0, -1)],
        ]
        inner = series_pow(A1, -1) * (one + t11 * A2)
        x2_t2 = series_pow(A2, -1) * (one + t21 * inner) * (one + t22 * inner)
        assert s.cluster[1].num == x2_t2
        assert s.cluster[0].num == x1_t1

        s = seed_mutate(s, 1)  # t3
        assert s.matrix == ((0, 2), (-1, 0))
        assert [list(tup) for tup in s.coeffs] == [
            [(1, 0, 0)],
            [(-1, -1, 0), (-1, 0, -1)],
        ]
        x1_t3 = (
            A1
            * series_pow(A2, -1)
            * (
                (one + t21 * series_pow(A1, -1)) * (one + t22 * series_pow(A1, -1))
                + t11 * t21 * t22 * series_pow(A1, -2) * A2
            )
        )
        assert s.cluster[0].num == x1_t3
        assert s.cluster[1].num == x2_t2

        s = seed_mutate(s, 2)  # t4
        assert s.matrix == ((0, -2), (1, 0))
        assert [list(tup) for tup in s.coeffs] == [
            [(-1, -1, -1)],
            [(1, 1, 0), (1, 0, 1)],
        ]
        x2_t4 = series_pow(A2, -1) * (t21 + A1) * (t22 + A1)
        assert s.cluster[1].num == x2_t4
        assert s.cluster[0].num == x1_t3

        s = seed_mutate(s, 1)  # t5
        assert s.matrix == ((0, 2), (-1, 0))
        assert [list(tup) for tup in s.coeffs] == [
            [(1, 1, 1)],
            [(0, 0, -1), (0, -1, 0)],  # tuple indices come back swapped
        ]
        assert s.cluster[0].num == A1
        assert s.cluster[1].num == x2_t4

        s = seed_mutate(s, 2)  # t6
        assert s.matrix == ((0, -2), (1, 0))
        assert [list(tup) for tup in s.coeffs] == [
            [(1, 0, 0)],
            [(0, 0, 1), (0, 1, 0)],
        ]
        assert s.cluster[0].num == A1
        assert s.cluster[1].num == A2

        s0 = initial_seed(B2)
        assert seeds_equal(s, s0)
        assert not seeds_equal(s, s0, strict=True)

    def test_cluster_entries_stored_reduced(self):
        s = pattern_walk(initial_seed(B2), (1, 2, 1))
        for x in s.cluster:
            assert x.den.is_one()
            assert all(c > 0 for _e, c in x.num.terms.items())

    def test_pattern_walk_cancellation(self):
        s0 = initial_seed(B2)
        assert pattern_walk(s0, (1, 1)) is s0
        assert pattern_walk(s0, (1, 2, 2, 1)) is s0
        memo = {}
        s = pattern_walk(s0, (1, 2, 1), memo)
        assert seeds_equal(pattern_walk(s0, (1, 2, 2, 2, 1, 1, 1), memo), s, strict=True)

    def test_memo_of_another_start_seed_is_refused(self):
        """The memo is keyed by word alone, so it holds for one start seed:
        reusing it with that seed hits it, with another seed raises."""
        b2, kron = initial_seed(B2), initial_seed(KRON)
        memo = {}
        s = pattern_walk(b2, (1, 2), memo)
        assert pattern_walk(initial_seed(B2), (1, 2), memo) is s
        for word in ((), (1, 2)):
            with pytest.raises(ValueError, match="another start seed"):
                pattern_walk(kron, word, memo)

    def test_cancelled_pair_costs_no_mutation(self):
        s0 = initial_seed(B2)
        memo = {}
        assert pattern_walk(s0, (1, 2, 2, 1), memo) is s0
        assert list(memo) == [()]

    @pytest.mark.parametrize("word", [(3, 3), (0,), (1, 3, 3, 1)])
    def test_letter_out_of_range_fails_even_when_it_cancels(self, word):
        with pytest.raises(IndexError, match=r"direction \d out of range 1\.\.2"):
            pattern_walk(initial_seed(B2), word)

    @pytest.mark.parametrize("word", [(3, 3), (0,), (1, 3, 3, 1)])
    def test_chart_checks_every_letter_first(self, word):
        """As ``pattern_walk`` does: a letter out of range is refused before
        any step, even when it cancels, and never passes for a false
        invariant violation."""
        with pytest.raises(IndexError, match=r"direction \d out of range 1\.\.2"):
            chart_variables(initial_seed(B2), word)

    def test_reduce_word(self):
        assert reduce_word((1, 2, 2, 1)) == ()
        assert reduce_word((1, 2, 2, 3)) == (1, 3)
        assert reduce_word((1, 2, 1)) == (1, 2, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FixedData(((0, -2.7), (1.2, 0)), (1, 2.9), (1, 2)),
        lambda: FixedData(((0, -2), (1, 0)), (1, 2), (1.0, 2)),
        lambda: initial_seed(B2, coeffs=(((1.9, 0, 0),), ((0, 1, 0), (0, 0, 1)))),
        lambda: initial_seed(B2, (((1, 0, 0),), ((0, 1, 0), (0, 0, 1))), False, coeff_orders=(1.5, 2)),
        lambda: initial_seed(B2, coeff_orders=(1.5, 2)),
        lambda: pattern_walk(initial_seed(B2), (1.5, 2)),
        lambda: chart_variables(initial_seed(B2), (1.5,)),
        lambda: seed_mutate(initial_seed(B2), 1.5),
        lambda: matrix_mutate(B2.B, 2.0),
    ],
    ids=["B-and-d", "r", "coefficient", "orders", "orders-default", "walk", "chart", "mutate", "matrix"],
)
def test_an_entry_that_is_no_int_is_refused(build):
    """``int()`` would truncate it, and a letter 1.5 would pass the range
    check: each is refused as ``Wall`` refuses a factor entry."""
    with pytest.raises(ValueError, match=r"entries must be ints, got|direction [\d.]+ must be an int"):
        build()


# -- general seed properties -------------------------------------------------


def random_coeff_seed(data, rng_exps, with_cluster=True):
    it = iter(rng_exps)
    coeffs = tuple(
        tuple(tuple(next(it) for _ in range(3)) for _ in range(data.r[i]))
        for i in range(data.n)
    )
    return initial_seed(data, coeffs=coeffs, with_cluster=with_cluster, coeff_orders=(2, 1))


class TestSeedMutation:
    @given(
        st.integers(0, len(CATALOG) - 1),
        st.lists(st.integers(-2, 2), min_size=24, max_size=24),
        st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_involution(self, ci, exps, k):
        data = CATALOG[ci]
        if k > data.n:
            k = data.n
        s = random_coeff_seed(data, exps)
        again = seed_mutate(seed_mutate(s, k), k)
        assert again == s

    @given(st.integers(0, len(CATALOG) - 1), st.data())
    @settings(max_examples=25, deadline=None)
    def test_laurent_positive_polynomial_coeffs(self, ci, draw):
        data = CATALOG[ci]
        word = draw.draw(walk_words(data.n, 5))
        s = pattern_walk(initial_seed(data), word)
        for x in s.cluster:
            assert x.den.is_one()
            for e, c in x.num.terms.items():
                assert isinstance(c, int) and c > 0
                assert all(v >= 0 for v in e.t)

    def test_group_mode_skips_cluster_and_uses_plus_rule(self):
        s = initial_seed(B2, with_cluster=False, semifield=False)
        s1 = seed_mutate(s, 1)
        assert s1.cluster is None
        # direction 1: inverted; direction 2: exponent [beta_12]_+ = 0, unchanged
        assert s1.coeffs[0][0] == (-1, 0, 0)
        assert s1.coeffs[1] == ((0, 1, 0), (0, 0, 1))
        # direction 2 mutation multiplies t_{1,1} by t_{2,1} t_{2,2}
        s2 = seed_mutate(s, 2)
        assert s2.coeffs[0][0] == (1, 1, 1)
        # group rule and semifield rule diverge deeper in the pattern
        sa = pattern_walk(initial_seed(B2, with_cluster=False), (1, 2, 1))
        sb = pattern_walk(initial_seed(B2, with_cluster=False, semifield=False), (1, 2, 1))
        assert sa.coeffs != sb.coeffs

    @pytest.mark.parametrize("data", [B2, KRON], ids=["b2", "kronecker"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_group_mode_twice_is_not_an_involution(self, data, k):
        # twice in direction k: p_i -> p_i * t_k^(b_ki / r_i) for i != k, with
        # t_k the product of the direction-k coefficients; the word keeps both
        # letters, so that the seed's frame replays both steps
        s = initial_seed(data, with_cluster=False, semifield=False)
        twice = seed_mutate(seed_mutate(s, k), k)
        a = k - 1
        t_k = tuple(map(sum, zip(*s.coeffs[a])))
        expected = tuple(
            tup if i == a else tuple(tuple(x + data.B[a][i] // data.r[i] * y for x, y in zip(p, t_k)) for p in tup)
            for i, tup in enumerate(s.coeffs)
        )
        assert twice.coeffs == expected != s.coeffs
        assert twice.word == (k, k) and twice.matrix == s.matrix
        # pattern_walk mutates both letters in group mode
        assert pattern_walk(s, (k, k)) == twice

    @pytest.mark.parametrize("semifield", [True, False], ids=["semifield", "group"])
    @pytest.mark.parametrize("data", [B2, KRON], ids=["b2", "kronecker"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_pattern_walk_mutates_twice_as_seed_mutate_does(self, data, k, semifield):
        s = initial_seed(data, with_cluster=semifield, semifield=semifield)
        twice = seed_mutate(seed_mutate(s, k), k)
        assert pattern_walk(s, (k, k)) == twice
        assert twice.word == (() if semifield else (k, k))

    def test_group_mode_seed_carries_no_cluster(self):
        with pytest.raises(ValueError, match="carry no cluster"):
            initial_seed(B2, with_cluster=True, semifield=False)
        doc = seed_to_json(initial_seed(B2))
        assert "cluster" in doc
        assert seed_from_json(doc, semifield=False).cluster is None

    def test_exchange_outside_the_pattern_is_an_invariant_violation(self):
        # cluster (z0 + z1, z1): x1' = (z1 + t0) / (z0 + z1) is no Laurent polynomial
        doc = seed_to_json(initial_seed(A2CL))
        doc["cluster"][0]["num"].append({"m": [0, 1], "t": [0, 0], "c": 1})
        s = seed_from_json(doc)
        with pytest.raises(InvariantViolation, match="Laurent"):
            seed_mutate(s, 1)

    def test_group_mode_twice_on_b2(self):
        s = initial_seed(B2, with_cluster=False, semifield=False)
        twice = seed_mutate(seed_mutate(s, 1), 1)
        assert [list(tup) for tup in twice.coeffs] == [
            [(1, 0, 0)],
            [(-1, 1, 0), (-1, 0, 1)],
        ]

    def test_kronecker_first_exchange(self):
        s = seed_mutate(initial_seed(KRON), 1)
        mono = LaurentSeries.monomial
        A1 = mono((1, 0), (0, 0, 0, 0))
        A2 = mono((0, 1), (0, 0, 0, 0))
        s1 = mono((0, 0), (1, 0, 0, 0))
        s2 = mono((0, 0), (0, 1, 0, 0))
        one = LaurentSeries.one(2, 4)
        assert s.cluster[0].num == series_pow(A1, -1) * (one + s1 * A2) * (one + s2 * A2)


def _reference_prod(items):
    """Product in the coefficient group: the componentwise sum of exponents."""
    items = list(items)
    return tuple(sum(x[j] for x in items) for j in range(len(items[0])))


def _reference_pow(p, e):
    return tuple(e * x for x in p)


def _reference_inv(p):
    return _reference_pow(p, -1)


def reference_coeffs_normalized(coeffs, B, r, a):
    """The normalized rule, stated on its own: the coefficient rule of
    semifield-mode seeds."""
    pk_plus = _reference_prod(p_plus(p) for p in coeffs[a])
    pk_minus = _reference_prod(p_minus(p) for p in coeffs[a])
    out = []
    for i, tup in enumerate(coeffs):
        if i == a:
            out.append(tuple(_reference_inv(p) for p in tup))
            continue
        b_ik = _beta(B, r, i, a)
        b_ki = _beta(B, r, a, i)
        fac = _reference_pow(pk_minus if b_ik > 0 else pk_plus, b_ki)
        out.append(tuple(_reference_prod((p, fac)) for p in tup))
    return tuple(out)


def reference_coeffs_group(coeffs, B, r, a):
    """The plus-signed rule, stated on its own: the coefficient rule of
    group-mode seeds."""
    tk = _reference_prod(coeffs[a])
    out = []
    for i, tup in enumerate(coeffs):
        if i == a:
            out.append(tuple(_reference_inv(p) for p in tup))
            continue
        e = max(_beta(B, r, a, i), 0)
        fac = _reference_pow(tk, e)
        out.append(tuple(_reference_prod((p, fac)) for p in tup))
    return tuple(out)


def test_one_coefficient_rule_matches_both_reference_rules():
    """seed_mutate's coefficients, in both modes, against the normalized and
    the plus-signed rule stated apart: all 37 valid rank-2 data of the box,
    every reduced word up to length 5 (each prefix of the two alternating
    words), principal and drawn coefficients.  The drawn ones have mixed
    signs, where the two modes part."""
    rng = random.Random(19)
    for data in RANK2:
        exps = [rng.randint(-2, 2) for _ in range(3 * sum(data.r))]
        for s0 in (initial_seed(data, with_cluster=False), random_coeff_seed(data, exps, with_cluster=False)):
            for semifield, rule in ((True, reference_coeffs_normalized), (False, reference_coeffs_group)):
                for word in ((1, 2, 1, 2, 1), (2, 1, 2, 1, 2)):
                    s = replace(s0, semifield=semifield)
                    B, coeffs = s.matrix, s.coeffs
                    for k in word:
                        coeffs = rule(coeffs, B, data.r, k - 1)
                        B = matrix_mutate(B, k)
                        s = seed_mutate(s, k)
                        assert s.coeffs == coeffs, (data, s0.coeffs, semifield, s.word)


def test_cluster_variables_are_positive_laurent_polynomials():
    """Positivity, on every valid rank-2 datum of the box: each distinct
    cluster variable that ``explore_pattern`` reaches in three mutations from
    the principal-coefficient seed is a Laurent polynomial in the initial
    cluster with positive int coefficients.  (Depth 4 is out of reach for
    the wild data.)"""
    count = 0
    for data in RANK2:
        for x in distinct_cluster_variables(explore_pattern(initial_seed(data), 3).values()):
            assert x.num.order is None, (data, str(x))
            assert all(type(c) is int and c > 0 for c in x.num.terms.values()), (data, str(x))
            count += 1
    assert count == 285


class TestFiniteType:
    def test_b2_counts(self):
        seeds = explore_pattern(initial_seed(B2), 8)
        assert len(seeds) == 12  # labeled, strict coefficient tuples
        assert len({seed_key(s, strict=False) for s in seeds.values()}) == 6
        assert len(distinct_cluster_variables(seeds.values())) == 6

    def test_b2_period_twelve(self):
        s0 = initial_seed(B2)
        s = pattern_walk(s0, (1, 2) * 3)
        assert seeds_equal(s, s0) and not seeds_equal(s, s0, strict=True)
        s = pattern_walk(s0, (1, 2) * 6)
        assert seeds_equal(s, s0, strict=True)

    def test_b2_long_walk_stays_periodic(self):
        # ten trips round the period: nothing carried along the word may grow
        s0 = initial_seed(B2)
        memo = {}
        for trips in range(1, 11):
            assert seeds_equal(pattern_walk(s0, (1, 2) * 6 * trips, memo), s0, strict=True)

    def test_kronecker_long_walk_follows_the_exchange_recurrence(self):
        # principal coefficients at t = 1 and (A1, A2) = (2, 3): letter j makes
        # the variable y_{j+1} with y_{j+1} * y_{j-1} = y_j^2 + 1
        s0 = initial_seed(FixedData(KRON.B, (1, 1), (1, 1)))
        word = (1, 2) * 20
        memo = {}
        pattern_walk(s0, word, memo)
        ys = [Fraction(2), Fraction(3)]
        for j in range(1, len(word) + 1):
            ys.append((ys[-1] ** 2 + 1) / ys[-2])
            x = memo[word[:j]].cluster[word[j - 1] - 1].num
            assert sum(c * ys[0] ** e.m[0] * ys[1] ** e.m[1] for e, c in x.terms.items()) == ys[-1]

    def test_kronecker_keeps_growing(self):
        # infinite type: every mutation step reaches a new seed and variable
        seeds = explore_pattern(initial_seed(KRON), 6)
        assert len(seeds) == 13
        assert len(distinct_cluster_variables(seeds.values())) == 14


# -- c-matrices --------------------------------------------------------------


class TestCMatrix:
    def test_initial(self):
        C = initial_c_matrix((1, 2))
        assert C.blocks == (((1, 0, 0),), ((0, 1, 0), (0, 0, 1)))

    @given(st.sampled_from([B2, KRON, R3]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_tracks_seed_coefficients(self, data, draw):
        word = draw.draw(walk_words(data.n, 8))
        C = initial_c_matrix(data.r)
        s = initial_seed(data, with_cluster=False)
        for k in word:
            C = c_matrix_mutate(C, s.matrix, k)
            s = seed_mutate(s, k)
        assert C == CMatrix(s.data.r, s.coeffs)
        assert C.is_sign_coherent()
        assert C.block_structure_ok()

    def test_involution(self):
        C = initial_c_matrix(B2.r)
        s = initial_seed(B2, with_cluster=False)
        C1 = c_matrix_mutate(C, s.matrix, 2)
        s1 = seed_mutate(s, 2)
        assert c_matrix_mutate(C1, s1.matrix, 2) == C

    def test_column_reading(self):
        s = pattern_walk(initial_seed(B2, with_cluster=False), (1, 2))
        C = CMatrix(s.data.r, s.coeffs)
        assert C.column(1, 1) == (-1, 0, 0)
        assert C.column(2, 1) == (0, -1, 0)


# -- g-vector frames ---------------------------------------------------------


HEXAGON = [
    (((-1, 0), (0, 1)), ((-1, 0), (0, 1))),
    (((-1, 0), (0, -1)), ((-1, 0), (0, -1))),
    (((1, -1), (0, -1)), ((1, 0), (-1, -1))),
    (((1, -1), (2, -1)), ((-1, -2), (1, 1))),
    (((1, 0), (2, -1)), ((1, 2), (0, -1))),
    (((1, 0), (0, 1)), ((1, 0), (0, 1))),
]


class TestGVectorFrame:
    def test_hexagon(self):
        G = initial_g_frame(B2)
        s = initial_seed(B2, with_cluster=False)
        for step, k in enumerate((1, 2, 1, 2, 1, 2)):
            G = g_frame_mutate(G, s, k)
            s = seed_mutate(s, k)
            assert (G.g, G.gstar) == HEXAGON[step]
            assert frame_matrix(G) == s.matrix

    def test_double_mutation_restores(self):
        G = initial_g_frame(B2)
        s = initial_seed(B2, with_cluster=False)
        G1 = g_frame_mutate(G, s, 1)
        s1 = seed_mutate(s, 1)
        assert g_frame_mutate(G1, s1, 1) == G

    def test_duality_enforced(self):
        with pytest.raises(InvariantViolation):
            GVectorFrame(B2, ((1, 0), (0, 1)), ((1, 1), (0, 1)))

    @given(st.sampled_from([B2, KRON, R3]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_dual_basis_and_coefficient_identity(self, data, draw):
        word = draw.draw(walk_words(data.n, 8))
        G = initial_g_frame(data)
        C = initial_c_matrix(data.r)
        s = initial_seed(data, with_cluster=False)
        for k in word:
            G = g_frame_mutate(G, s, k)
            C = c_matrix_mutate(C, s.matrix, k)
            s = seed_mutate(s, k)
        # d_i r_a (g*_i)_a = d_a * (sum of block-row a of the i-th block)
        for i in range(data.n):
            for a in range(data.n):
                lhs = data.d[i] * data.r[a] * G.gstar[i][a]
                rhs = data.d[a] * sum(
                    col[row] for col in C.blocks[i] for row in block_range(data.r, a)
                )
                assert lhs == rhs

    def test_normal_covectors_initial(self):
        G = initial_g_frame(B2)
        assert G.w(1) == (0, 1)
        assert G.w(2) == (-1, 0)

    @pytest.mark.parametrize("method", ["w", "epsilon"])
    @pytest.mark.parametrize(
        "i, error, message",
        [(0, IndexError, r"^direction 0 out of range 1\.\.2$"), (3, IndexError, r"^direction 3 out of range 1\.\.2$"), (1.5, ValueError, r"^direction 1\.5 must be an int$")],
        ids=["zero", "beyond", "float"],
    )
    def test_a_direction_out_of_range_is_refused(self, method, i, error, message):
        # index 0 would read gstar[-1], direction 2's covector
        with pytest.raises(error, match=message):
            getattr(initial_g_frame(B2), method)(i)

    def test_chamber_walk_yields_each_pair_once(self):
        walk = list(_chamber_walk(B2, 9))
        assert walk[0][0] == () and walk[0][2] == initial_g_frame(B2)
        keys = [(seed_key(sd), G.g, G.gstar) for _, sd, G in walk]
        assert len(set(keys)) == len(keys) == 12  # finite type: closed by depth 6
        # breadth first, and every word extends one yielded before it
        words = [w for w, _, _ in walk]
        assert [len(w) for w in words] == sorted(len(w) for w in words)
        assert all(w[:-1] in words[:i] for i, w in enumerate(words) if w)


# -- chart variables ---------------------------------------------------------


def exchange_walk(s0, word):
    """The seeds of ``seed_mutate`` letter by letter, the start seed first.
    It runs the exchange relation, one exact division per letter, and is the
    reference of the chart variables and of walks from the initial chart,
    which pull back instead."""
    seeds = [s0]
    for k in word:
        seeds.append(seed_mutate(seeds[-1], k))
    return seeds


class TestPullbacks:
    def test_chart_replay_on_chart_prefixes(self):
        s0 = initial_seed(B2)
        word = (1, 2) * 3
        for wl, s in enumerate(exchange_walk(s0, word)):
            assert chart_variables(s0, word[:wl]) == s.cluster

    @given(st.sampled_from([B2, KRON, R3]), st.data())
    @settings(max_examples=15, deadline=None)
    def test_chart_replay_matches_walk(self, data, draw):
        word = draw.draw(walk_words(data.n, 4))
        s0 = initial_seed(data)
        want = exchange_walk(s0, word)[-1]
        assert chart_variables(s0, word) == want.cluster
        assert pattern_walk(s0, word) == want

    def test_chart_runs_no_exchange_relation(self, monkeypatch):
        # the chart variables and a walk from the initial chart pull back, so
        # they stay independent of the exchange relation that checks them
        s0 = initial_seed(KRON)
        words = [(1, 2, 1, 2), (2, 1, 2)]
        want = [exchange_walk(s0, w)[-1] for w in words]

        def fail(s, a):
            raise AssertionError("the exchange relation ran")

        monkeypatch.setattr(cluster_core, "_exchange_variable", fail)
        assert [chart_variables(s0, w) for w in words] == [s.cluster for s in want]
        assert [pattern_walk(s0, w) for w in words] == want
        with pytest.raises(AssertionError, match="exchange relation ran"):
            pattern_walk(want[0], (1,))

    def test_group_mode_seed_has_no_chart_variables(self):
        # the plus-signed group rule is no Y-pattern: at (1, 2, 1, 2) its
        # crossings would leave the Laurent ring
        with pytest.raises(ValueError, match="group-mode seeds carry no cluster"):
            chart_variables(initial_seed(B2, with_cluster=False, semifield=False), (1, 2, 1, 2))

    def test_crossing_that_leaves_the_laurent_ring(self):
        # one step f = 1 + z1, g*_k = e_1: the lone z0 has level -1, and z0 / (1 + z1) is no Laurent polynomial
        f = LaurentSeries.one(2, 1) + LaurentSeries.monomial((0, 1), (0,))
        steps, x = [(f, (1, 0), [LaurentSeries.one(2, 1), f])], LaurentSeries.monomial((1, 0), (0,))
        for pull_back in (_pull_back, reference_pull_back):
            with pytest.raises(InvariantViolation, match=r"^a crossing left the Laurent ring \(Laurent phenomenon\)$"):
                pull_back(steps, x)
        assert _pull_back(steps, f * x) == reference_pull_back(steps, f * x) == x

    def test_a_step_whose_factor_is_not_tangent_is_refused(self, monkeypatch):
        """A crossing keeps the level of every term only when f is tangent to
        its wall; otherwise the union of the crossed levels could overwrite
        colliding terms.  Direction 2's covector is tilted by g*_2, and the
        transport refuses that step before any level is crossed."""
        real = GVectorFrame.w
        tilted = lambda G, i: real(G, i) if i == 1 else tuple(x + y for x, y in zip(real(G, i), G.gstar[i - 1]))
        monkeypatch.setattr(GVectorFrame, "w", tilted)
        crossed = []
        monkeypatch.setattr(cluster_core, "_pull_back", lambda *args: crossed.append(args))
        s0 = initial_seed(B2)
        for run in (lambda: chart_variables(s0, (1, 2)), lambda: pattern_walk(s0, (1, 2)), lambda: _transport(s0, (1, 2), True)):
            with pytest.raises(InvariantViolation, match=r"^step 2 \(direction 2\): the exchange factor is not tangent to its wall$"):
                run()
        assert crossed == []
        assert len(_transport(s0, (1,), False)[0]) == 1  # direction 1 is not tilted

    def test_unimodular_inverse_transpose(self):
        M = ((1, 2), (0, 1))
        X = unimodular_inverse_transpose(M)
        # rows of X pair with rows of M to the identity
        for i in range(2):
            for j in range(2):
                assert sum(M[i][a] * X[j][a] for a in range(2)) == (1 if i == j else 0)
        with pytest.raises(ValueError):
            unimodular_inverse_transpose(((2, 0), (0, 1)))


def cheap_at_four_letters(data) -> bool:
    """|b12 b21| r1 r2 <= 18.  Within it, four letters of ``seed_mutate``
    took 0.07 s or less from either start letter.  Beyond it, nine data: six
    took 0.5-2.7 s from the costlier start letter, B = ((0,-3),(3,0)) about
    4.3 s with r = (1,3) or (3,1) and over 90 s with r = (3,3), and
    B = ((0,-4),(4,0)) with r = (2,2) was not timed."""
    return abs(data.B[0][1] * data.B[1][0]) * data.r[0] * data.r[1] <= 18


def test_walk_from_the_chart_matches_the_exchange_relation_on_every_prefix():
    """Every prefix of a walk from the initial chart, which pulls back,
    equals ``seed_mutate`` letter by letter, which divides: matrix,
    coefficients, word and cluster.  On all 37 valid rank-2 data of the box
    from both start letters, to 4 letters where the exchange route is cheap
    and to 3 elsewhere; on the Kronecker fixture to 6; and with drawn
    tropical coefficients on B2, the Kronecker datum and a rank-3 datum."""
    cases = [(initial_seed(data), 4 if cheap_at_four_letters(data) else 3) for data in RANK2]
    cases.append((seed_from_json(load_fixture("kronecker.json")), 6))
    rng = random.Random(5)
    cases += [(random_coeff_seed(data, [rng.randint(-2, 2) for _ in range(24)]), 4) for data in (B2, KRON, R3)]
    for s0, longest in cases:
        n = s0.data.n
        for k in range(1, n + 1):
            word = tuple((k - 1 + i) % n + 1 for i in range(longest))
            memo = {}
            pattern_walk(s0, word, memo)
            assert [memo[word[:i]] for i in range(longest + 1)] == exchange_walk(s0, word), (s0.data, word)


def test_only_a_walk_from_a_chart_pulls_back(monkeypatch):
    """A spy on both routes: a semifield seed whose cluster is the generator
    monomials, whatever its matrix, runs one ``_transport`` and no exchange
    relation, and every other start seed runs ``seed_mutate``, whose
    exchange relation needs a cluster.  Both give the seeds of
    ``seed_mutate`` letter by letter."""
    ran = []

    def spy(name):
        real = getattr(cluster_core, name)
        return lambda *args, **kwargs: ran.append(name) or real(*args, **kwargs)

    for name in ("_transport", "_exchange_variable"):
        monkeypatch.setattr(cluster_core, name, spy(name))

    def route(s, word):
        ran.clear()
        got = pattern_walk(s, word)
        taken = list(ran)
        assert got == exchange_walk(s, word)[-1]
        return taken

    s0, word = initial_seed(B2), (2, 1, 2)
    moved = pattern_walk(s0, (1,))
    for s in (s0, replace(s0, matrix=matrix_mutate(B2.B, 1)), replace(moved, cluster=s0.cluster)):
        assert route(s, word) == ["_transport"], s.matrix
    others = {
        "group mode": initial_seed(B2, with_cluster=False, semifield=False),
        "no cluster": initial_seed(B2, with_cluster=False),
        "a cluster that is not the chart": moved,
        "a cluster from JSON that is not the chart": seed_from_json(seed_to_json(moved)),
    }
    for why, s in others.items():
        exchanges = ["_exchange_variable"] * len(word) if s.cluster is not None else []
        assert route(s, word) == exchanges, why


def test_every_seed_is_the_origin_of_its_own_chart():
    """Start seeds one and two letters from the base, walked without their
    cluster, on all 37 valid rank-2 data of the box (B2, the Kronecker datum
    and G2 among them).  For every reduced word of up to 3 letters the chart
    variables equal ``seed_mutate`` letter by letter from the initial seed
    of the start seed's own matrix and coefficients, and a walk from the
    start seed with the generator monomials as its cluster, which pulls
    back, reaches the same seeds.  Words stop at 2 letters where
    ``cheap_at_four_letters`` fails: on those ten data the 3-letter exchange
    walks from these start seeds took 0.05-1.6 s per datum, 2.6 s in all."""
    assert {B2, KRON, G2} <= set(RANK2)
    for data in RANK2:
        longest = 3 if cheap_at_four_letters(data) else 2
        for start in ((1,), (2,), (1, 2), (2, 1)):
            s = pattern_walk(initial_seed(data, with_cluster=False), start)
            rebased = initial_seed(FixedData(s.matrix, data.d, data.r), coeffs=s.coeffs)
            for k in (1, 2):
                word = (k, 3 - k, k)[:longest]
                want = exchange_walk(rebased, word)
                memo = {}
                pattern_walk(replace(s, cluster=rebased.cluster), word, memo)
                for i in range(len(word) + 1):
                    assert chart_variables(s, word[:i]) == want[i].cluster, (data, start, word[:i])
                    assert seed_key(memo[word[:i]]) == seed_key(want[i]), (data, start, word[:i])


def reference_pull_back(steps, x):
    """``_pull_back`` before the level split, kept as its oracle: every term
    is crossed over the common denominator f^D, and the whole sum comes back
    out of one exact division by f^D."""
    for f, gstar, *_ in reversed(steps):
        levels: dict = {}
        for e, c in x.terms.items():
            levels.setdefault(-sum(map(mul, gstar, e.m)), {})[e] = c
        D = max(0, -min(levels))
        powers = {e: series_pow(f, e) for e in {D, *(lv + D for lv in levels)}}
        x = LaurentSeries()
        for lv, terms in levels.items():
            x = x + LaurentSeries(terms, None) * powers[lv + D]
        if D:
            x = series_exact_div(x, powers[D])
            if x is None:
                raise InvariantViolation("a crossing left the Laurent ring (Laurent phenomenon)")
    return x


def pull_back_outcome(pull_back, steps, x):
    """The pulled-back series, or the type and message of the error."""
    try:
        return pull_back(steps, x)
    except (InvariantViolation, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def drawn_laurent(rng, d: int, terms: int) -> LaurentSeries:
    """Up to ``terms`` terms c z^m t^a, m in [-1, 1]^2, a in {0, 1}^d, c in
    -2..3 but 0."""
    draw = lambda: (tuple(rng.randint(-1, 1) for _ in range(2)), tuple(rng.randint(0, 1) for _ in range(d)))
    return LaurentSeries({draw(): rng.choice((-2, -1, 1, 2, 3)) for _ in range(terms)}, None)


def test_level_split_matches_the_common_denominator_oracle():
    """``_pull_back`` against ``reference_pull_back`` on all 37 valid rank-2
    data of the box, both replays of each reduced word (chart variables and
    chamber transport).  The inputs are the chart monomials z^g of every
    word and, on words up to length 2, a drawn monomial and two small drawn
    Laurent polynomials, about half of which leave the Laurent ring.  Words
    run to length 5 where b12 b21 <= 4; wild data stop at length 3, since
    with principal coefficients their length-5 chart variables reach about
    3e5 terms."""
    rng = random.Random(17)
    outcomes = {True: 0, False: 0}  # raised or not, over the drawn inputs
    for data in RANK2:
        s = initial_seed(data, with_cluster=False)
        d = sum(s.coeff_orders)
        longest = 5 if data.B[0][1] * data.B[1][0] >= -4 else 3
        words = [()] + [tuple((k, 3 - k)[i % 2] for i in range(n)) for n in range(1, longest + 1) for k in (1, 2)]
        for word in words:
            for signed in (False, True):
                steps, trail = _transport(s, word, signed)
                G = trail[-1][0]
                charts = [LaurentSeries.monomial(g, (0,) * d) for g in G.g]
                drawn = [drawn_laurent(rng, d, terms) for terms in (1, 2, 3)] if len(word) <= 2 else []
                for i, x in enumerate(charts + drawn):
                    got = pull_back_outcome(_pull_back, steps, x)
                    assert got == pull_back_outcome(reference_pull_back, steps, x), (data, word, signed, x)
                    if i >= len(charts):
                        outcomes[isinstance(got, tuple)] += 1
    assert all(outcomes.values()), outcomes  # drawn inputs take both ends of the Laurent-ring check


# -- serialization -----------------------------------------------------------


class TestSerialization:
    def test_round_trip_initial(self):
        s0 = initial_seed(B2)
        s0b = seed_from_json(json.loads(json.dumps(seed_to_json(s0))))
        assert seeds_equal(s0, s0b, strict=True)

    def test_round_trip_mutated(self):
        s = pattern_walk(initial_seed(B2), (1, 2, 1))
        sb = seed_from_json(json.loads(json.dumps(seed_to_json(s))))
        assert seeds_equal(s, sb, strict=True)

    def test_round_trip_without_cluster(self):
        s = pattern_walk(initial_seed(KRON, with_cluster=False), (2, 1))
        sb = seed_from_json(json.loads(json.dumps(seed_to_json(s))))
        assert sb.cluster is None
        assert seeds_equal(s, sb, strict=True)

    def test_non_laurent_cluster_entry_rejected(self):
        doc = seed_to_json(initial_seed(B2))
        # z0 / (1 + z1)
        doc["cluster"][0]["den"] = [{"m": [0, m], "t": [0, 0, 0], "c": 1} for m in (0, 1)]
        with pytest.raises(ValueError, match="Laurent"):
            seed_from_json(doc)
        # a quotient that reduces is accepted, and stored reduced: (z0 + z0 z1) / (1 + z1)
        doc["cluster"][0]["num"] = [{"m": [1, m], "t": [0, 0, 0], "c": 1} for m in (0, 1)]
        assert seeds_equal(seed_from_json(doc), initial_seed(B2), strict=True)

    def test_schema_keys(self):
        js = seed_to_json(initial_seed(B2))
        assert set(js) == {"B", "d", "r", "coeffs", "cluster"}
        js2 = seed_to_json(initial_seed(B2, with_cluster=False))
        assert set(js2) == {"B", "d", "r", "coeffs"}
