"""Seeds and mutations for cluster algebras with polynomial exchange relations.

A seed carries an exchange matrix B (skew-symmetrizable by diag(d), column i
divisible by the exchange-polynomial degree r_i), a tuple of r_i normalized
coefficients per direction, and n cluster variables stored as exact Laurent
polynomials (the Laurent phenomenon) in the chart a walk starts from.  Each
seed is the origin of its own chart: there its cluster is the generator
monomials z_1..z_n, and its own matrix steps the frames.  A coefficient is
an element of a tropical semifield, held as its int exponent tuple over the
semifield's generators, whose shape the seed stores once as
``coeff_orders``; the same tuples are the t-exponents of series and wall
functions.  Coefficients mutate by one normalized rule with the split
p = p^+/p^-, integer arithmetic on the tuples; group-mode seeds, whose
coefficients are bare group elements, use the same rule with the split
(p, 1), which is the plus-signed rule of the scattering frames, whose
``to_old`` evaluates principal coefficient exponents at a seed's own
coefficients.  On top of seed mutation this module provides pattern
walks, g-vector frames with signed mutation, and the chart variables: the
cluster variables at the end of a mutation path, computed by composing
wall-crossing substitutions in the start seed's chart instead of one exact
division per exchange.
One g-frame step moves every frame: ``g_frame_mutate`` takes its sign from
g*_k, while chart variables (and the seed frames of ``scattering``) replay
it with sign +1.  Chart variables, walks from a chart and theta's
chamber transport share one replay of the word and one pull-back.  A
crossing z^m -> z^m f^h, h = -<g*_k, m>, keeps the level of every term,
as the exchange factor f is tangent to the wall, so each step crosses
level by level: a positive level by powers of f that every pull-back
through it shares, a negative one by dividing by each binomial
t^{p^-} + t^{p^+} z^w of f in turn.

Directions k are 1-based in the public API, matching the usual edge labels
of the regular tree.  All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd

from .monoid_ring import (
    _LIMIT,
    LaurentSeries,
    _binomial_div,
    _by_level,
    _disjoint_sum,
    _guard,
    _key,
    _unit,
    series_exact_div,
    series_from_json,
    series_mul,
    series_pow,
    series_to_json,
)
from .semifield import generator_blocks, p_minus, p_plus

Matrix = tuple[tuple[int, ...], ...]


class InvariantViolation(RuntimeError):
    """A structural invariant that should be unreachable failed."""


def _as_ints(what: str, values) -> tuple[int, ...]:
    """``values`` as a tuple of ints, returned as it is when it already is
    one; ValueError naming ``what`` when an entry is no int, which ``int()``
    would silently truncate."""
    if type(values) is tuple and all(type(x) is int for x in values):
        return values
    values = tuple(values)
    if not all(isinstance(x, int) for x in values):
        raise ValueError(f"{what} entries must be ints, got {values!r}")
    return tuple(map(int, values))


def _as_matrix(rows, what: str = "matrix") -> Matrix:
    return tuple(_as_ints(what, row) for row in rows)


def validate_exchange_matrix(B: Matrix, d, r) -> None:
    """ValueError unless diag(d) B is skew-symmetric and column j of B is
    divisible by r_j.  A triple that passes is remembered
    (``_exchange_matrix_ok``), so a seed built from a checked one, as every
    mutation builds, costs a lookup; a failing triple is checked again."""
    _exchange_matrix_ok(tuple(map(tuple, B)), tuple(d), tuple(r))


@lru_cache(maxsize=1024)
def _exchange_matrix_ok(B: Matrix, d, r) -> None:
    n = len(B)
    for i in range(n):
        for j in range(n):
            if d[i] * B[i][j] + d[j] * B[j][i] != 0:
                raise ValueError(
                    f"matrix is not skew-symmetrizable by diag{tuple(d)} at ({i + 1},{j + 1})"
                )
            if B[i][j] % r[j] != 0:
                raise ValueError(f"column {j + 1} is not divisible by r_{j + 1} = {r[j]}")


def _check_direction(k: int, n: int) -> None:
    if not isinstance(k, int):
        raise ValueError(f"direction {k!r} must be an int")
    if not 1 <= k <= n:
        raise IndexError(f"direction {k} out of range 1..{n}")


def matrix_mutate(B, k: int) -> Matrix:
    """Exchange-matrix mutation in direction k."""
    B = _as_matrix(B)
    n = len(B)
    _check_direction(k, n)
    a = k - 1
    return tuple(
        tuple(
            -B[i][j]
            if i == a or j == a
            else B[i][j]
            + max(B[i][a], 0) * max(B[a][j], 0)
            - max(-B[i][a], 0) * max(-B[a][j], 0)
            for j in range(n)
        )
        for i in range(n)
    )


def _beta(B: Matrix, r, i: int, j: int) -> int:
    # b_{ij}/r_j; integral by the column-divisibility requirement
    q, rem = divmod(B[i][j], r[j])
    if rem:
        raise InvariantViolation(f"b_{i + 1}{j + 1} = {B[i][j]} not divisible by {r[j]}")
    return q


@dataclass(frozen=True)
class FixedData:
    """Exchange matrix with its skew-symmetrizer diag(d) and polynomial degrees r."""

    B: Matrix
    d: tuple[int, ...]
    r: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "B", _as_matrix(self.B, "B"))
        object.__setattr__(self, "d", _as_ints("d", self.d))
        object.__setattr__(self, "r", _as_ints("r", self.r))
        n = len(self.B)
        if any(len(row) != n for row in self.B):
            raise ValueError("exchange matrix must be square")
        if len(self.d) != n or len(self.r) != n:
            raise ValueError("d and r need one entry per direction")
        if any(x <= 0 for x in self.d + self.r):
            raise ValueError("d and r entries must be positive")
        if reduce(gcd, self.d) != 1:
            raise ValueError("gcd of the d_i must be 1")
        validate_exchange_matrix(self.B, self.d, self.r)

    @property
    def n(self) -> int:
        return len(self.B)


# -- cluster variables -------------------------------------------------------


@dataclass(frozen=True)
class RationalFunction:
    """A cluster variable as results and JSON carry it: ``num / den``.  The
    library builds Laurent polynomials only, so ``den`` is one."""

    num: LaurentSeries

    @property
    def den(self) -> LaurentSeries:
        return LaurentSeries.one(*self.num.dims())

    def __str__(self) -> str:
        return str(self.num)


def rational(num: LaurentSeries, den: LaurentSeries) -> RationalFunction:
    """num / den reduced to a Laurent polynomial; ValueError if it is none."""
    q = series_exact_div(num, den)
    if q is None:
        raise ValueError("rational function does not reduce to a Laurent polynomial")
    return RationalFunction(q)


# -- seeds and mutation ------------------------------------------------------


@dataclass(frozen=True)
class Seed:
    """Labeled seed: matrix, coefficient tuples, and optional cluster.

    ``coeffs[i]`` holds the r_i coefficients of direction i, each an int
    exponent tuple over the generators of the coefficient semifield, whose
    shape (one block of generators per direction) is ``coeff_orders``.
    Both modes mutate coefficients by the one normalized rule
    (``_coeffs_mutate``).  ``semifield=True`` splits each coefficient
    tropically, p = p^+/p^-; ``semifield=False`` treats coefficients as bare
    group elements, each its own plus part (the split (p, 1)), which gives
    the plus-signed rule of the scattering frame changes.  That rule is no
    Y-pattern, so a group-mode seed carries no cluster; the cluster is None
    for coefficient-only patterns as well.
    """

    data: FixedData
    matrix: Matrix
    coeffs: tuple[tuple[tuple[int, ...], ...], ...]
    coeff_orders: tuple[int, ...]
    cluster: tuple[RationalFunction, ...] | None
    word: tuple[int, ...] = ()
    semifield: bool = True

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(self.matrix))
        object.__setattr__(self, "coeffs", tuple(_as_matrix(tup, "coefficient exponent") for tup in self.coeffs))
        object.__setattr__(self, "coeff_orders", _as_ints("coefficient order", self.coeff_orders))
        validate_exchange_matrix(self.matrix, self.data.d, self.data.r)
        if not self.coeff_orders or min(self.coeff_orders) < 1:
            raise ValueError("coefficient orders must be positive integers")
        if len(self.coeffs) != self.data.n:
            raise ValueError("one coefficient tuple per direction required")
        dim = sum(self.coeff_orders)
        for i, tup in enumerate(self.coeffs):
            if len(tup) != self.data.r[i]:
                raise ValueError(f"direction {i + 1} needs {self.data.r[i]} coefficients")
            if any(len(p) != dim for p in tup):
                raise ValueError(f"direction {i + 1}: coefficient exponent vectors need length {dim}")
        if self.cluster is not None:
            if not self.semifield:
                raise ValueError("group-mode seeds (semifield=False) carry no cluster")
            if len(self.cluster) != self.data.n:
                raise ValueError("cluster size mismatch")
            nd = (self.data.n, dim)
            for i, x in enumerate(self.cluster, 1):
                if x.num.dims() != nd:
                    raise ValueError(f"cluster entry {i} has dims (n, d) {x.num.dims()}, the seed needs {nd}")


def initial_seed(
    data: FixedData,
    coeffs=None,
    with_cluster: bool = True,
    semifield: bool = True,
    coeff_orders=None,
) -> Seed:
    """Seed at the basepoint.  Default coefficients are the semifield
    generators themselves (principal); pass explicit exponent tuples for
    other coefficient patterns.  ``coeff_orders`` defaults to ``data.r``."""
    orders = data.r if coeff_orders is None else _as_ints("coefficient order", coeff_orders)
    if coeffs is None:
        coeffs = generator_blocks(orders)
    cluster = _chart(data.n, sum(orders)) if with_cluster else None
    return Seed(data, data.B, coeffs, orders, cluster, (), semifield)


def _chart(n: int, d: int) -> tuple[RationalFunction, ...]:
    """The cluster of the initial chart: the generator monomials z_1..z_n."""
    return tuple(RationalFunction(LaurentSeries.monomial(_unit(n, i), (0,) * d)) for i in range(n))


def _coeffs_mutate(coeffs, B: Matrix, r, a: int, split):
    """Coefficients after mutation in direction a, by the normalized rule.

    ``split(p)`` is the pair (p^+, p^-) of a direction-a coefficient, and P^+
    and P^- are the products of those parts.  p_a goes to 1/p_a, and every
    other p_i is multiplied by (P^- if b_ia > 0 else P^+)^(b_ai), with
    b_ij = B[i][j]/r_j.  Group mode splits p as (p, 1): b_ia and b_ai are zero
    together and otherwise of opposite signs, so its factor is
    (prod p_a)^max(b_ai, 0), the plus-signed rule.  On exponent tuples a
    product is a componentwise sum and a power a scaling."""
    plus, minus = zip(*map(split, coeffs[a]))
    pk_plus, pk_minus = (tuple(map(sum, zip(*parts))) for parts in (plus, minus))
    out = []
    for i, tup in enumerate(coeffs):
        if i == a:
            out.append(tuple(tuple(-x for x in p) for p in tup))
            continue
        e = _beta(B, r, a, i)
        fac = pk_minus if _beta(B, r, i, a) > 0 else pk_plus
        out.append(tuple(tuple(x + e * y for x, y in zip(p, fac)) for p in tup))
    return tuple(out)


def _exchange_variable(s: Seed, a: int) -> RationalFunction:
    # x_k' = x_k^{-1} * prod_l (p_{k,l}^+ u_+ + p_{k,l}^- u_-), one exact division
    n = s.data.n
    r = s.data.r
    d = sum(s.coeff_orders)
    x = [v.num for v in s.cluster]
    u_plus = LaurentSeries.one(n, d)
    u_minus = LaurentSeries.one(n, d)
    for i in range(n):
        b = s.matrix[i][a]
        if b > 0:
            u_plus = u_plus * series_pow(x[i], b // r[a])
        elif b < 0:
            u_minus = u_minus * series_pow(x[i], -(b // r[a]))
    num = LaurentSeries.one(n, d)
    zero = (0,) * n
    for p in s.coeffs[a]:
        num = num * (
            LaurentSeries.monomial(zero, p_plus(p)) * u_plus
            + LaurentSeries.monomial(zero, p_minus(p)) * u_minus
        )
    q = series_exact_div(num, x[a])
    if q is None:
        raise InvariantViolation(
            f"exchange in direction {a + 1} is not a Laurent polynomial (Laurent property): "
            "the cluster does not belong to the pattern"
        )
    if not q.is_integral():
        raise InvariantViolation(
            f"exchange in direction {a + 1} has a non-integer coefficient (integrality): "
            "the cluster does not belong to the pattern"
        )
    return RationalFunction(q)


def seed_mutate(s: Seed, k: int) -> Seed:
    """Mutation in direction k.  In semifield mode it is an involution, and
    the word drops a repeated last letter.  In group mode, mutating twice in
    direction k multiplies each other p_i by t_k^{b_ki/r_i} (t_k: the product
    of the direction-k coefficients), so the word keeps both letters and
    ``seed_frame`` replays both steps."""
    matrix = matrix_mutate(s.matrix, k)
    a = k - 1
    one = (0,) * sum(s.coeff_orders)
    split = (lambda p: (p_plus(p), p_minus(p))) if s.semifield else (lambda p: (p, one))
    coeffs = _coeffs_mutate(s.coeffs, s.matrix, s.data.r, a, split)
    cluster = None
    if s.cluster is not None:
        entries = list(s.cluster)
        entries[a] = _exchange_variable(s, a)
        cluster = tuple(entries)
    word = s.word[:-1] if s.semifield and s.word and s.word[-1] == k else s.word + (k,)
    return Seed(s.data, matrix, coeffs, s.coeff_orders, cluster, word, s.semifield)


def reduce_word(word) -> tuple[int, ...]:
    out: list[int] = []
    for k in word:
        if out and out[-1] == k:
            out.pop()
        else:
            out.append(int(k))
    return tuple(out)


def pattern_walk(s0: Seed, word, memo: dict | None = None) -> Seed:
    """Apply a mutation word of directions, memoizing seeds by prefix.  In
    semifield mode, where mutation is an involution, consecutive equal letters
    cancel before any work is done, so a cancelled pair costs no mutation.
    In group mode every letter is mutated, so the result is always that of
    ``seed_mutate`` letter by letter.  Every letter is checked first, and a
    memo filled from another start seed is refused.

    Two routes reach the same seeds.  A walk from a chart (a semifield-mode
    seed whose cluster is the generator monomials) pulls each new cluster
    variable back instead of dividing: at letter i it is z^g, g the new row
    of the frame, carried to the start seed's chart through the first i
    steps (``_chart_variable``), and one ``_transport`` of the word gives
    every step, frame, matrix and coefficient tuple.  Every other start
    seed, and every seed of ``explore_pattern``, takes ``seed_mutate``'s
    exchange relation, one exact division by the old variable per letter."""
    for k in word:
        _check_direction(k, s0.data.n)
    if memo is None:
        memo = {}
    s = memo.setdefault((), s0)
    if s != s0:
        raise ValueError("the memo holds the walk of another start seed")
    word = reduce_word(word) if s0.semifield else tuple(word)
    if word in memo or not _at_chart(s0):
        step = lambda s, i: seed_mutate(s, word[i - 1])
    else:
        steps, trail = _transport(s0, word, signed=False)
        d = sum(s0.coeff_orders)

        def step(s, i):
            G, t = trail[i]
            a = word[i - 1] - 1
            x = _chart_variable(steps[:i], G.g[a], d)
            return replace(t, cluster=s.cluster[:a] + (x,) + s.cluster[a + 1 :])

    for i in range(1, len(word) + 1):
        hit = memo.get(word[:i])
        if hit is None:
            hit = memo[word[:i]] = step(s, i)
        s = hit
    return s


def _at_chart(s: Seed) -> bool:
    """Whether s is the origin of its own chart, its cluster the generator
    monomials, where ``pattern_walk`` pulls back.  Every semifield-mode seed
    is the origin of one chart: ``_transport`` builds its frames on the
    seed's own matrix."""
    return s.semifield and s.cluster == _chart(s.data.n, sum(s.coeff_orders))


def seed_key(s: Seed, strict: bool = True):
    """Hashable identity of a seed; with ``strict=False`` the coefficients of
    each direction are compared as a multiset (relabeling of the tuple index)."""
    coeffs = s.coeffs if strict else tuple(tuple(sorted(tup)) for tup in s.coeffs)
    return (s.matrix, s.data.d, s.data.r, coeffs, s.cluster)


def seeds_equal(s1: Seed, s2: Seed, strict: bool = False) -> bool:
    return seed_key(s1, strict) == seed_key(s2, strict)


def _bfs(start, n: int, depth: int, step, key):
    """Breadth first over reduced words up to length ``depth``, yielding
    ``(word, state)`` for the first word that reaches each distinct
    ``key(state)``, the empty word first; ``step(state, k)`` moves one letter."""
    seen = {key(start)}
    frontier = [((), start)]
    yield frontier[0]
    for _ in range(depth):
        nxt = []
        for word, state in frontier:
            for k in range(1, n + 1):
                if word and word[-1] == k:
                    continue
                state2 = step(state, k)
                key2 = key(state2)
                if key2 not in seen:
                    seen.add(key2)
                    nxt.append((word + (k,), state2))
                    yield nxt[-1]
        frontier = nxt


def explore_pattern(s0: Seed, depth: int) -> dict[tuple[int, ...], Seed]:
    """Breadth-first over reduced words up to the given length, keeping the
    first word that reaches each distinct labeled seed."""
    return dict(_bfs(s0, s0.data.n, depth, seed_mutate, seed_key))


def distinct_cluster_variables(seeds) -> list[RationalFunction]:
    return list(dict.fromkeys(x for s in seeds if s.cluster is not None for x in s.cluster))


# -- g-vector frames ---------------------------------------------------------


def _vector_sign(v) -> int:
    has_pos = any(x > 0 for x in v)
    has_neg = any(x < 0 for x in v)
    if has_pos and has_neg:
        raise InvariantViolation(f"mixed-sign vector {tuple(v)}")
    if not has_pos and not has_neg:
        raise InvariantViolation("zero vector has no sign")
    return 1 if has_pos else -1


@dataclass(frozen=True)
class GVectorFrame:
    """The chamber frame of a vertex: rows g_i in dual coordinates, rows
    g*_i in basis coordinates, dual to each other."""

    data: FixedData
    g: tuple[tuple[int, ...], ...]
    gstar: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "g", _as_matrix(self.g))
        object.__setattr__(self, "gstar", _as_matrix(self.gstar))
        n = self.data.n
        for i in range(n):
            for j in range(n):
                pair = sum(self.gstar[i][a] * self.g[j][a] for a in range(n))
                if pair != (1 if i == j else 0):
                    raise InvariantViolation("g and g* are not dual bases")

    def epsilon(self, i: int) -> int:
        _check_direction(i, self.data.n)
        return _vector_sign(self.gstar[i - 1])

    def w(self, i: int) -> tuple[int, ...]:
        """Normal covector omega(-, (d_i/r_i) g*_i) in dual coordinates: as
        b_ab/d_b = -b_ba/d_a, entry a is -d_i (B^T g*_i)_a / (r_i d_a), exactly."""
        _check_direction(i, self.data.n)
        B, d, g = self.data.B, self.data.d, self.gstar[i - 1]
        out = []
        for a in range(self.data.n):
            q, rem = divmod(-d[i - 1] * sum(B[b][a] * x for b, x in enumerate(g)), self.data.r[i - 1] * d[a])
            if rem:
                raise InvariantViolation("normal covector is not integral")
            out.append(q)
        return tuple(out)


def initial_g_frame(data: FixedData) -> GVectorFrame:
    ident = tuple(_unit(data.n, i) for i in range(data.n))
    return GVectorFrame(data, ident, ident)


def _frame_step(G: GVectorFrame, B: Matrix, k: int, eps: int) -> GVectorFrame:
    """Frame mutation in direction k with sign eps under the matrix B:
    g*_k -> -g*_k and g*_i -> g*_i + [-eps b_ik]_+ g*_k, with g moved dually."""
    n = G.data.n
    a = k - 1
    coef = [max(-eps * B[i][a], 0) for i in range(n)]
    gstar = [
        tuple(-x for x in G.gstar[a])
        if i == a
        else tuple(x + coef[i] * y for x, y in zip(G.gstar[i], G.gstar[a]))
        for i in range(n)
    ]
    gk = [-x for x in G.g[a]]
    for i in range(n):
        if i != a and coef[i]:
            gk = [x + coef[i] * y for x, y in zip(gk, G.g[i])]
    g = [tuple(gk) if i == a else G.g[i] for i in range(n)]
    return GVectorFrame(G.data, tuple(g), tuple(gstar))


def g_frame_mutate(G: GVectorFrame, s: Seed, k: int) -> GVectorFrame:
    """Signed mutation in direction k under s's matrix, the sign read off
    g*_k; ``epsilon`` checks k."""
    return _frame_step(G, s.matrix, k, G.epsilon(k))


def _chamber_walk(data: FixedData, depth: int):
    """Breadth-first walk over the cluster chambers within ``depth``
    mutations of the base chamber, which comes first.

    Yields ``(word, tropical seed, g-frame)`` once per distinct (seed, frame)
    pair, with the first word that reaches it.  The walk is principal: the
    tropical seeds start from the principal generators whatever the
    coefficients of the caller's seed, and callers push the coefficient
    exponents they emit through that seed's frame (``SeedFrame.to_old``).
    """
    start = (initial_seed(data, with_cluster=False, semifield=True), initial_g_frame(data))
    step = lambda st, k: (seed_mutate(st[0], k), g_frame_mutate(st[1], st[0], k))
    key = lambda st: (seed_key(st[0]), st[1].g, st[1].gstar)
    for word, (sd, G) in _bfs(start, data.n, depth, step, key):
        yield word, sd, G


# -- chart variables by composed crossings -----------------------------------


def _exchange_factor(coeffs, w, n: int, d: int) -> tuple[list[LaurentSeries], LaurentSeries]:
    """The binomials t^{p^-} + t^{p^+} z^w over the tropical coefficients p of
    one direction, built from packed keys, and f, their product."""
    binomials, zero = [], (0,) * n
    for p in coeffs:
        lo, hi = p_minus(p), p_plus(p)
        u, v = _key(zero, lo), _key(w, hi)
        # guarded term by term, as the monomial constructor did, so an overflow names the same figure
        bound = _guard(max(map(abs, (*lo, sum(lo)))))
        bound = _guard(max(bound, *map(abs, (*w, *hi, sum(hi)))))
        binomials.append(LaurentSeries._make({u: 2} if u == v else {u: 1, v: 1}, None, (n, d), bound))
    return binomials, reduce(series_mul, binomials)


def unimodular_inverse_transpose(rows: Matrix) -> Matrix:
    """Inverse transpose of an integer matrix with determinant +-1."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    aug = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                fac = aug[r][col]
                aug[r] = [x - fac * y for x, y in zip(aug[r], aug[col])]
    out = []
    for j in range(n):
        row = []
        for i in range(n):
            v = aug[i][n + j]
            if v.denominator != 1:
                raise ValueError("matrix is not unimodular")
            row.append(int(v))
        out.append(tuple(row))
    return tuple(out)


def _transport(s: Seed, word, signed: bool):
    """Replay the reduced word on a coefficient-only copy of s from the
    initial frame at s's own matrix, so that s is the origin of the chart;
    every letter is checked first.
    Each letter k steps the frame with eps = epsilon(k) if ``signed`` (chamber transport), else +1 (chart variables).

    Returns the steps ``(g*_k, binomials, powers)`` in order, with the
    binomials t^{p^-} + t^{p^+} z^{eps w_k} and their product f, the
    exchange factor, that ``_exchange_factor`` builds from the coefficients
    p^eps and the normal covector eps w_k, which must be tangent to the
    wall, <g*_k, eps w_k> = 0, or InvariantViolation is raised; ``powers``
    is the list [1, f, f^2, ...] that ``_pull_back`` grows by one product
    per new power for the positive levels, and the binomials divide the
    negative ones; and the trail: the pairs (frame, coefficient-only seed)
    at the start and after each letter.
    """
    n = s.data.n
    for k in word:
        _check_direction(k, n)
    d = sum(s.coeff_orders)
    s = replace(s, cluster=None)
    G = initial_g_frame(replace(s.data, B=s.matrix))
    steps, trail = [], [(G, s)]
    for i, k in enumerate(reduce_word(word), 1):
        a = k - 1
        eps = G.epsilon(k) if signed else 1
        w = tuple(eps * x for x in G.w(k))
        if sum(x * y for x, y in zip(G.gstar[a], w)):
            raise InvariantViolation(f"step {i} (direction {k}): the exchange factor is not tangent to its wall")
        p_eps = [tuple(eps * x for x in p) for p in s.coeffs[a]]
        binomials, f = _exchange_factor(p_eps, w, n, d)
        steps.append((G.gstar[a], binomials, [LaurentSeries.one(n, d), f]))
        G = _frame_step(G, s.matrix, k, eps)
        s = seed_mutate(s, k)
        trail.append((G, s))
    return steps, trail


def _pull_back(steps, x: LaurentSeries) -> LaurentSeries:
    """Write x, a Laurent polynomial in the last chart of ``steps``, in the
    first: each step, last first, crosses z^m -> z^m f^h, h = -<g*_k, m>.

    f is tangent to the wall, so it has level 0 and x is crossed level by
    level: the part of level h > 0 is multiplied by f^h, the part of level
    0 is kept, and the part of level h < 0 is divided -h times by each
    binomial of f (``_binomial_div``).  Over a common denominator f^D the
    level-h part of the numerator is part * f^(h + D), so the image is
    Laurent exactly when every negative level divides on its own, and a
    level divides by f^-h exactly when each of those binomial divisions is
    exact.  On the library's monomials each is, by the Laurent phenomenon;
    when one is not, InvariantViolation is raised.  The images keep their
    levels, so the image of x is their union."""
    for gstar, binomials, powers in reversed(steps):
        parts = []
        for h, part in _by_level(x, [-v for v in gstar]).items():
            if h > 0:
                while len(powers) <= h:
                    powers.append(series_mul(powers[-1], powers[1]))
                part = series_mul(part, powers[h])
            elif h < 0:
                for b in binomials:
                    for _ in range(-h):
                        part = _binomial_div(part, b)
                        if part is None:
                            raise InvariantViolation("a crossing left the Laurent ring (Laurent phenomenon)")
            parts.append(part)
        x = _disjoint_sum(parts)
    return x


def _chart_variable(steps, g, d: int) -> RationalFunction:
    """z^g of the last chart of ``steps`` (``_transport``), pulled back to the first."""
    return RationalFunction(_pull_back(steps, LaurentSeries.monomial(g, (0,) * d)))


def chart_variables(s0: Seed, word) -> tuple[RationalFunction, ...]:
    """Cluster variables at the end of the word in the chart of s0, where
    s0's cluster is the generator monomials, whatever it carries: one
    wall-crossing substitution per step composed in that chart instead of
    iterated exchange relations.  The frame starts at s0's own matrix and
    replays the g-frame step with sign +1; its dual rows g give the
    monomials to pull back (``_chart_variable``).  A group-mode seed has no
    cluster variables and raises ValueError."""
    if not s0.semifield:
        raise ValueError("chart variables need a semifield-mode seed: group-mode seeds carry no cluster")
    steps, trail = _transport(s0, word, signed=False)
    d = sum(s0.coeff_orders)
    return tuple(_chart_variable(steps, g, d) for g in trail[-1][0].g)


# -- serialization -----------------------------------------------------------


def rational_to_json(x: RationalFunction) -> dict:
    return {
        "num": series_to_json(x.num)["terms"],
        "den": series_to_json(x.den)["terms"],
    }


def _json_ints(field: str, values) -> tuple[int, ...]:
    """The entries of a seed document's field, which must be JSON integers:
    ValueError naming the field for a float, a bool or a string."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{field} must hold integers, got {v!r}")
    return values


def _fit_slots(what: str, exponents) -> None:
    big = max((abs(int(e)) for e in exponents), default=0)
    if big > _LIMIT:
        raise ValueError(f"{what}: the exponent magnitude {big} exceeds the packed-slot limit {_LIMIT} (2^31 - 1)")


def _cluster_entry(i: int, data: dict) -> RationalFunction:
    """Cluster entry i of a seed document; ValueError unless its exponents fit
    a packed slot and it is a nonzero Laurent polynomial with integer
    coefficients >= 0."""
    for term in data["num"] + data["den"]:
        for key in ("m", "t"):
            _json_ints(f"cluster entry {i} {key}", term[key])
        _json_ints(f"cluster entry {i} c", [term["c"]])
    _fit_slots(f"cluster entry {i}", [e for term in data["num"] + data["den"] for e in (*term["m"], *term["t"])])
    num, den = (series_from_json({"terms": data[k], "order": "inf"}) for k in ("num", "den"))
    if not num or not den:
        raise ValueError(f"cluster entry {i} " + ("is zero" if den else "has a zero denominator"))
    x = rational(num, den)
    if not x.num.is_integral():
        raise ValueError(f"cluster entry {i} has a non-integer coefficient (integrality)")
    c = min(x.num.terms.values())
    if c < 0:
        raise ValueError(f"cluster entry {i} has the coefficient {c} < 0 (positivity)")
    return x


def seed_to_json(s: Seed) -> dict:
    out = {
        "B": [list(row) for row in s.matrix],
        "d": list(s.data.d),
        "r": list(s.data.r),
        "coeffs": [[{"orders": list(s.coeff_orders), "exponents": list(p)} for p in tup] for tup in s.coeffs],
    }
    if s.cluster is not None:
        out["cluster"] = [rational_to_json(x) for x in s.cluster]
    return out


def seed_from_json(data: dict, semifield: bool = True) -> Seed:
    """The seed of a JSON document.  A group-mode seed (``semifield=False``)
    ignores the document's cluster.  An exponent beyond a packed slot, and a
    cluster entry that is zero, has a zero denominator, does not reduce to a
    Laurent polynomial or has a coefficient that is no integer or below 0,
    coefficient entries that disagree on their ``orders``, and a number that
    is no JSON integer in ``B``, ``d``, ``r``, ``orders``, ``exponents`` or a
    cluster entry, raise ValueError."""
    B = tuple(_json_ints("B", row) for row in data["B"])
    fixed = FixedData(B, _json_ints("d", data["d"]), _json_ints("r", data["r"]))
    orders = {_json_ints("orders", p["orders"]) for tup in data["coeffs"] for p in tup}
    if len(orders) != 1:
        raise ValueError(f"the coefficient entries must share one orders list, got {sorted(orders)}")
    coeffs = tuple(tuple(_json_ints("exponents", p["exponents"]) for p in tup) for tup in data["coeffs"])
    _fit_slots("coefficients", [e for tup in coeffs for p in tup for e in p])
    cluster = None
    if semifield and data.get("cluster") is not None:
        cluster = tuple(_cluster_entry(i, x) for i, x in enumerate(data["cluster"], 1))
    return Seed(fixed, fixed.B, coeffs, orders.pop(), cluster, (), semifield)
