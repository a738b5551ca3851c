"""Seed mutation, patterns, c/g-vectors, Y-seeds, separation, pullbacks."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clusterscatter.cluster_core import (
    CMatrix,
    FixedData,
    GVectorFrame,
    InvariantViolation,
    RationalFunction,
    Seed,
    TropMap,
    _chamber_walk,
    a_mutation_pullback,
    c_matrix_mutate,
    c_matrix_of,
    chart_variables,
    chart_y_variables,
    distinct_cluster_variables,
    explore_pattern,
    f_function,
    g_frame_mutate,
    initial_c_matrix,
    initial_g_frame,
    initial_seed,
    initial_y_seed,
    matrix_mutate,
    pattern_walk,
    rational,
    reduce_word,
    rf_coeff,
    rf_monomial,
    rf_one,
    seed_from_json,
    seed_key,
    seed_mutate,
    seed_to_json,
    seeds_equal,
    separation_evaluate,
    unimodular_inverse_transpose,
    x_function,
    x_mutation_pullback,
    y_seed_mutate,
)
from clusterscatter.monoid_ring import LaurentSeries
from clusterscatter.semifield import CoeffLattice

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
        assert B2.beta(1, 2) == -1
        assert B2.beta(2, 1) == 1


# -- golden chart ------------------------------------------------------------


def _b2_symbols():
    n, dd = 2, 3
    A1 = rf_monomial(n, dd, (1, 0))
    A2 = rf_monomial(n, dd, (0, 1))
    t11 = rf_monomial(n, dd, None, (1, 0, 0))
    t21 = rf_monomial(n, dd, None, (0, 1, 0))
    t22 = rf_monomial(n, dd, None, (0, 0, 1))
    one = rf_one(n, dd)
    return A1, A2, t11, t21, t22, one


class TestChart:
    """The full alternating walk of the degree-(1,2) rank-2 pattern, with all
    coefficient tuples and cluster variables checked against hand values."""

    def test_full_walk(self):
        A1, A2, t11, t21, t22, one = _b2_symbols()
        s = initial_seed(B2)
        assert s.matrix == ((0, -2), (1, 0))
        assert [[p.exponents for p in tup] for tup in s.coeffs] == [
            [(1, 0, 0)],
            [(0, 1, 0), (0, 0, 1)],
        ]
        assert s.cluster[0].equivalent(A1) and s.cluster[1].equivalent(A2)

        s = seed_mutate(s, 1)  # t1
        assert s.matrix == ((0, 2), (-1, 0))
        assert [[p.exponents for p in tup] for tup in s.coeffs] == [
            [(-1, 0, 0)],
            [(0, 1, 0), (0, 0, 1)],
        ]
        x1_t1 = A1 ** -1 * (one + t11 * A2)
        assert s.cluster[0].equivalent(x1_t1)
        assert s.cluster[1].equivalent(A2)

        s = seed_mutate(s, 2)  # t2
        assert s.matrix == ((0, -2), (1, 0))
        assert [[p.exponents for p in tup] for tup in s.coeffs] == [
            [(-1, 0, 0)],
            [(0, -1, 0), (0, 0, -1)],
        ]
        inner = A1 ** -1 * (one + t11 * A2)
        x2_t2 = A2 ** -1 * (one + t21 * inner) * (one + t22 * inner)
        assert s.cluster[1].equivalent(x2_t2)
        assert s.cluster[0].equivalent(x1_t1)

        s = seed_mutate(s, 1)  # t3
        assert s.matrix == ((0, 2), (-1, 0))
        assert [[p.exponents for p in tup] for tup in s.coeffs] == [
            [(1, 0, 0)],
            [(-1, -1, 0), (-1, 0, -1)],
        ]
        x1_t3 = (
            A1
            * A2 ** -1
            * (
                (one + t21 * A1 ** -1) * (one + t22 * A1 ** -1)
                + t11 * t21 * t22 * A1 ** -2 * A2
            )
        )
        assert s.cluster[0].equivalent(x1_t3)
        assert s.cluster[1].equivalent(x2_t2)

        s = seed_mutate(s, 2)  # t4
        assert s.matrix == ((0, -2), (1, 0))
        assert [[p.exponents for p in tup] for tup in s.coeffs] == [
            [(-1, -1, -1)],
            [(1, 1, 0), (1, 0, 1)],
        ]
        x2_t4 = A2 ** -1 * (t21 + A1) * (t22 + A1)
        assert s.cluster[1].equivalent(x2_t4)
        assert s.cluster[0].equivalent(x1_t3)

        s = seed_mutate(s, 1)  # t5
        assert s.matrix == ((0, 2), (-1, 0))
        assert [[p.exponents for p in tup] for tup in s.coeffs] == [
            [(1, 1, 1)],
            [(0, 0, -1), (0, -1, 0)],  # tuple indices come back swapped
        ]
        assert s.cluster[0].equivalent(A1)
        assert s.cluster[1].equivalent(x2_t4)

        s = seed_mutate(s, 2)  # t6
        assert s.matrix == ((0, -2), (1, 0))
        assert [[p.exponents for p in tup] for tup in s.coeffs] == [
            [(1, 0, 0)],
            [(0, 0, 1), (0, 1, 0)],
        ]
        assert s.cluster[0].equivalent(A1)
        assert s.cluster[1].equivalent(A2)

        s0 = initial_seed(B2)
        assert seeds_equal(s, s0)
        assert not seeds_equal(s, s0, strict=True)

    def test_cluster_entries_stored_reduced(self):
        s = pattern_walk(initial_seed(B2), (1, 2, 1))
        for x in s.cluster:
            assert x.is_laurent
            assert all(c > 0 for _e, c in x.num.terms.items())

    def test_pattern_walk_cancellation(self):
        s0 = initial_seed(B2)
        assert pattern_walk(s0, (1, 1)) is s0
        assert pattern_walk(s0, (1, 2, 2, 1)) is s0
        memo = {}
        s = pattern_walk(s0, (1, 2, 1), memo)
        assert seeds_equal(pattern_walk(s0, (1, 2, 2, 2, 1, 1, 1), memo), s, strict=True)

    def test_reduce_word(self):
        assert reduce_word((1, 2, 2, 1)) == ()
        assert reduce_word((1, 2, 2, 3)) == (1, 3)
        assert reduce_word((1, 2, 1)) == (1, 2, 1)


# -- general seed properties -------------------------------------------------


def random_coeff_seed(data, rng_exps, with_cluster=True):
    lat = CoeffLattice((2, 1))
    it = iter(rng_exps)
    coeffs = tuple(
        tuple(lat.element([next(it) for _ in range(3)]) for _ in range(data.r[i]))
        for i in range(data.n)
    )
    return initial_seed(data, coeffs=coeffs, with_cluster=with_cluster)


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
            assert x.is_laurent
            for e, c in x.num.terms.items():
                assert isinstance(c, int) and c > 0
                assert all(v >= 0 for v in e.t)

    def test_group_mode_skips_cluster_and_uses_plus_rule(self):
        lat = CoeffLattice(B2.r)
        s = initial_seed(B2, with_cluster=False, semifield=False)
        s1 = seed_mutate(s, 1)
        assert s1.cluster is None
        # direction 1: inverted; direction 2: exponent [beta_12]_+ = 0, unchanged
        assert s1.coeffs[0][0] == lat.generator(0, 0).inv()
        assert s1.coeffs[1] == (lat.generator(1, 0), lat.generator(1, 1))
        # direction 2 mutation multiplies t_{1,1} by t_{2,1} t_{2,2}
        s2 = seed_mutate(s, 2)
        assert s2.coeffs[0][0] == lat.generator(0, 0) * lat.generator(1, 0) * lat.generator(1, 1)
        # group rule and semifield rule diverge deeper in the pattern
        sa = pattern_walk(initial_seed(B2, with_cluster=False), (1, 2, 1))
        sb = pattern_walk(initial_seed(B2, with_cluster=False, semifield=False), (1, 2, 1))
        assert sa.coeffs != sb.coeffs

    def test_kronecker_first_exchange(self):
        s = seed_mutate(initial_seed(KRON), 1)
        n, dd = 2, 4
        A1 = rf_monomial(n, dd, (1, 0))
        A2 = rf_monomial(n, dd, (0, 1))
        s1 = rf_monomial(n, dd, None, (1, 0, 0, 0))
        s2 = rf_monomial(n, dd, None, (0, 1, 0, 0))
        one = rf_one(n, dd)
        assert s.cluster[0].equivalent(A1 ** -1 * (one + s1 * A2) * (one + s2 * A2))


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
            x = memo[word[:j]].cluster[word[j - 1] - 1].series
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
        assert C == c_matrix_of(s)
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
        C = c_matrix_of(s)
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
            assert G.matrix() == s.matrix

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
        lat = CoeffLattice(data.r)
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
                    col[row] for col in C.blocks[i] for row in lat.block_range(a)
                )
                assert lhs == rhs

    def test_normal_covectors_initial(self):
        G = initial_g_frame(B2)
        assert G.w(1) == (0, 1)
        assert G.w(2) == (-1, 0)

    def test_chamber_walk_yields_each_pair_once(self):
        walk = list(_chamber_walk(B2, 9))
        assert walk[0][0] == () and walk[0][2] == initial_g_frame(B2)
        keys = [(seed_key(sd), G.g, G.gstar) for _, sd, G in walk]
        assert len(set(keys)) == len(keys) == 12  # finite type: closed by depth 6
        # breadth first, and every word extends one yielded before it
        words = [w for w, _, _ in walk]
        assert [len(w) for w in words] == sorted(len(w) for w in words)
        assert all(w[:-1] in words[:i] for i, w in enumerate(words) if w)


# -- Y-seeds -----------------------------------------------------------------


class TestYSeed:
    @given(
        st.sampled_from([B2, KRON, R3, A2CL]),
        st.lists(st.integers(-2, 2), min_size=24, max_size=24),
        st.integers(1, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_involution(self, data, exps, k):
        if k > data.n:
            k = data.n
        lat = CoeffLattice((2, 1))
        it = iter(exps)
        q = tuple(
            tuple(lat.element([next(it) for _ in range(3)]) for _ in range(data.r[i]))
            for i in range(data.n)
        )
        ys = initial_y_seed(data, qcoeffs=q)
        again = y_seed_mutate(y_seed_mutate(ys, k), k)
        assert again.matrix == ys.matrix and again.qcoeffs == ys.qcoeffs
        for a, b in zip(again.y, ys.y):
            assert a.equivalent(b)

    def test_classical_a2_values(self):
        lat = CoeffLattice((1, 1))
        triv = ((lat.one(),), (lat.one(),))
        ys = y_seed_mutate(initial_y_seed(A2CL, qcoeffs=triv), 1)
        y1 = rf_monomial(2, 2, (1, 0))
        y2 = rf_monomial(2, 2, (0, 1))
        one = rf_one(2, 2)
        assert ys.y[0].equivalent(y1 ** -1)
        assert ys.y[1].equivalent(y1 * y2 / (one + y1))

    def test_principal_b2_first_step(self):
        ys = y_seed_mutate(initial_y_seed(B2), 1)
        # beta_21 = 1 > 0: y'_2 = y_2 * (t11 y_1 + 1)
        y1 = rf_monomial(2, 3, (1, 0))
        y2 = rf_monomial(2, 3, (0, 1))
        t11 = rf_monomial(2, 3, None, (1, 0, 0))
        assert ys.y[1].equivalent(y2 * (t11 * y1 + rf_one(2, 3)))


# -- separation --------------------------------------------------------------


class TestSeparation:
    def test_identity_map_recovers_stored_variable(self):
        s0 = initial_seed(B2)
        lam = TropMap.identity(s0.coeff_lattice)
        for word, l in [((1,), 1), ((1, 2), 2), ((1, 2, 1, 2), 2), ((1, 2, 1), 1)]:
            sep = separation_evaluate(s0, word, l, lam)
            assert sep.equivalent(x_function(s0, word, l))

    def test_trivial_coefficients_at_t4(self):
        s0 = initial_seed(B2)
        one_lat = CoeffLattice((1,))
        lam = TropMap(s0.coeff_lattice, one_lat, (one_lat.one(),) * 3)
        sep = separation_evaluate(s0, (1, 2, 1, 2), 2, lam)
        A1 = rf_monomial(2, 1, (1, 0))
        A2 = rf_monomial(2, 1, (0, 1))
        assert sep.equivalent(A2 ** -1 * (rf_one(2, 1) + A1) ** 2)

    def test_f_polynomial_at_t4(self):
        s0 = initial_seed(B2)
        F = f_function(s0, (1, 2, 1, 2), 2)
        # (t21 + 1)(t22 + 1) after setting both cluster variables to 1
        t21 = LaurentSeries.monomial((0, 0), (0, 1, 0))
        t22 = LaurentSeries.monomial((0, 0), (0, 0, 1))
        one = LaurentSeries.one(2, 3)
        assert F == (t21 + one) * (t22 + one)

    @given(
        st.sampled_from([B2, KRON]),
        st.data(),
        st.lists(st.integers(-2, 2), min_size=12, max_size=12),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_direct_mutation_over_image_semifield(self, data, draw, exps):
        word = draw.draw(walk_words(data.n, 5))
        l = draw.draw(st.integers(1, data.n))
        s0 = initial_seed(data)
        target = CoeffLattice((3,))
        src = s0.coeff_lattice
        it = iter(exps)
        images = tuple(
            target.element([next(it) for _ in range(3)]) for _ in range(src.d)
        )
        lam = TropMap(src, target, images)
        sep = separation_evaluate(s0, word, l, lam)
        mapped = tuple(
            tuple(lam.of(p) for p in tup) for tup in s0.coeffs
        )
        direct = pattern_walk(initial_seed(data, coeffs=mapped), word)
        assert sep.equivalent(direct.cluster[l - 1])


# -- pullbacks ---------------------------------------------------------------


class TestPullbacks:
    def test_one_step_images(self):
        s0 = initial_seed(B2)
        m = a_mutation_pullback(s0, 1)
        A1 = rf_monomial(2, 3, (1, 0))
        A2 = rf_monomial(2, 3, (0, 1))
        t11 = rf_monomial(2, 3, None, (1, 0, 0))
        f = rf_one(2, 3) + t11 * A2
        assert m.apply(A1).equivalent(A1 / f)
        assert m.apply(A2).equivalent(A2)

    def test_inverse_composes_to_identity(self):
        s0 = initial_seed(B2)
        m = a_mutation_pullback(s0, 2)
        mi = a_mutation_pullback(s0, 2, inverse=True)
        for i in range(2):
            gen = rf_monomial(2, 3, tuple(1 if a == i else 0 for a in range(2)))
            assert mi.apply(m.apply(gen)).equivalent(gen)

    def test_classical_x_pullback(self):
        lat = CoeffLattice((1, 1))
        triv = ((lat.one(),), (lat.one(),))
        ys = initial_y_seed(A2CL, qcoeffs=triv)
        m = x_mutation_pullback(ys, 1)
        y1 = rf_monomial(2, 2, (1, 0))
        y12 = rf_monomial(2, 2, (1, 1))
        assert m.apply(y12).equivalent(y12 / (rf_one(2, 2) + y1))

    def test_chart_replay_on_chart_prefixes(self):
        s0 = initial_seed(B2)
        memo = {}
        for wl in range(7):
            word = tuple((1, 2)[i % 2] for i in range(wl))
            sv = pattern_walk(s0, word, memo)
            cv = chart_variables(s0, word)
            for i in range(2):
                assert cv[i].equivalent(sv.cluster[i])

    @given(st.sampled_from([B2, KRON, R3]), st.data())
    @settings(max_examples=15, deadline=None)
    def test_chart_replay_matches_walk(self, data, draw):
        word = draw.draw(walk_words(data.n, 4))
        s0 = initial_seed(data)
        sv = pattern_walk(s0, word)
        cv = chart_variables(s0, word)
        for i in range(data.n):
            assert cv[i].equivalent(sv.cluster[i])

    @given(st.sampled_from([B2, KRON, R3]), st.data())
    @settings(max_examples=15, deadline=None)
    def test_y_replay_matches_y_walk(self, data, draw):
        word = draw.draw(walk_words(data.n, 4))
        ys0 = initial_y_seed(data)
        ys = ys0
        for k in word:
            ys = y_seed_mutate(ys, k)
        yv = chart_y_variables(ys0, word)
        for i in range(data.n):
            assert yv[i].equivalent(ys.y[i])

    def test_unimodular_inverse_transpose(self):
        M = ((1, 2), (0, 1))
        X = unimodular_inverse_transpose(M)
        # rows of X pair with rows of M to the identity
        for i in range(2):
            for j in range(2):
                assert sum(M[i][a] * X[j][a] for a in range(2)) == (1 if i == j else 0)
        with pytest.raises(ValueError):
            unimodular_inverse_transpose(((2, 0), (0, 1)))


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

    def test_schema_keys(self):
        js = seed_to_json(initial_seed(B2))
        assert set(js) == {"B", "d", "r", "coeffs", "cluster"}
        js2 = seed_to_json(initial_seed(B2, with_cluster=False))
        assert set(js2) == {"B", "d", "r", "coeffs"}
