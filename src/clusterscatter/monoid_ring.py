"""Exact sparse Laurent series over the monoid M + Z^d, truncated by coefficient degree.

Monomials are pairs ``z^m * t^a`` with ``m`` an integer vector of length ``n``
(the lattice part, basis ``e_1*, ..., e_n*``) and ``a`` an integer vector of
length ``d`` (the coefficient part, one slot per semifield generator).  The
*coefficient degree* of a term is the sum of its t-entries; truncation is
always by coefficient degree, never by the lattice part.  A series of order
``k`` is known modulo terms of coefficient degree >= k; ``order=None`` means an
exact Laurent polynomial.

Inside a series every monomial is one packed int (Kronecker substitution with
balanced signed 32-bit slots).  The slots hold, most significant first,
``m_0 .. m_{n-1}, a_0 .. a_{d-1}`` and then the coefficient degree, so that
multiplying monomials is adding keys, the degree is the lowest slot
``((k + 2^31) & (2^32 - 1)) - 2^31``, and the int order of keys is the tuple
order of ``Exponent(m, a)``.  A key decodes under one ``(n, d)`` only, so the
binary kernels reject operands of different dims.  Each series carries a bound
on its slot magnitudes; every kernel that forms new keys derives the bound of
its result from its operands' bounds and raises OverflowError before a slot
could leave ``(-2^31, 2^31)``.  Carried bounds only grow through products, so
when a sum of bounds would trip the guard, both operands' bounds are first
re-derived from their keys; an exact quotient takes its bound from the slot box
of its support.  ``LaurentSeries.terms`` is the read-only ``{Exponent:
coefficient}`` view, decoded once when first read.

Coefficients are exact integers.  Rationals appear transiently inside
``series_log`` and ``series_pow`` of negative powers and are normalized back
to ``int`` whenever the denominator clears; callers that need integrality
assert it via ``assert_integral``.  ``wall_cross`` never inverts:
it expands ``(1 + g)^h`` binomially, with integer ``C(h, j)`` for any ``h``.

Wall-crossing automorphisms ``z^p -> z^p * f^{sign*<n0, m(p)>}`` and their
compositions are materialized as images of the ``n + d`` generators
(`Automorphism`); the t-generators are fixed by crossings but move under the
piecewise-linear transforms defined elsewhere.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence


class Exponent(NamedTuple):
    m: tuple[int, ...]
    t: tuple[int, ...]


def exponent(m: Sequence[int], t: Sequence[int]) -> Exponent:
    return Exponent(tuple(int(a) for a in m), tuple(int(a) for a in t))


# -- packed keys ----------------------------------------------------------------

_SLOT = 32
_HALF = 1 << (_SLOT - 1)
_MASK = (1 << _SLOT) - 1
_LIMIT = _HALF - 1  # largest slot magnitude a key may hold


def _deg(k: int) -> int:
    """Coefficient degree of a packed key: its lowest slot."""
    return ((k + _HALF) & _MASK) - _HALF


def _pack(slots: Iterable[int]) -> int:
    k = 0
    for v in slots:
        k = (k << _SLOT) + v
    return k


def _unpack(k: int, count: int) -> list[int]:
    """The ``count`` slots of a key, most significant first."""
    out = [0] * count
    for i in range(count - 1, -1, -1):
        u = k + _HALF
        out[i] = (u & _MASK) - _HALF
        k = u >> _SLOT
    return out


def _decode(k: int, n: int, d: int) -> Exponent:
    v = _unpack(k, n + d + 1)
    return Exponent(tuple(v[:n]), tuple(v[n:-1]))


def _guard(bound: int) -> int:
    if bound > _LIMIT:
        raise OverflowError(f"a packed exponent slot could reach {bound}; slots hold at most {_LIMIT}")
    return bound


def _box_bound(low: int, high: int, count: int) -> int:
    """Largest slot magnitude of the box between two packed keys."""
    return max(map(abs, _unpack(low, count) + _unpack(high, count)))


def _tight_bound(s: "LaurentSeries") -> int:
    """Re-derive the slot bound of a nonempty series from its keys."""
    count = s._nd[0] + s._nd[1] + 1
    s._bound = _box_bound(*_box(s._packed, count), count)
    return s._bound


def _sum_bound(a: "LaurentSeries", b: "LaurentSeries") -> int:
    """Slot bound of sums of a key of ``a`` and a key of ``b`` (nonempty)."""
    bound = a._bound + b._bound
    if bound > _LIMIT:
        bound = _tight_bound(a) + _tight_bound(b)
    return _guard(bound)


def _norm_coeff(c):
    """An exact coefficient as an int whenever its denominator is 1."""
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    return int(c)


def _normalized(terms: dict) -> dict:
    """`_norm_coeff` on every Fraction coefficient, in place."""
    for k, c in terms.items():
        if type(c) is Fraction:
            terms[k] = _norm_coeff(c)
    return terms


def _inverse_coeff(c):
    return _norm_coeff(1 / Fraction(c))


def _min_order(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _dims(a: "LaurentSeries", b: "LaurentSeries") -> tuple[int, int] | None:
    """The shared (n, d) of two operands; an empty series adopts the other's."""
    if a._nd is None:
        return b._nd
    if b._nd is not None and a._nd != b._nd:
        raise ValueError(f"series of different dims (n, d): {a._nd} and {b._nd}")
    return a._nd


class LaurentSeries:
    """Finite map monomial -> nonzero coefficient, plus a truncation order.

    The constructor takes an ``{Exponent: coefficient}`` dict; ``terms`` gives
    the same view back.  ``dims()`` is ``(n, d)``, or None for the zero series.
    """

    __slots__ = ("_packed", "order", "_nd", "_bound", "_view")

    def __init__(self, terms: Mapping[Exponent, int | Fraction] | None = None, order: int | None = None):
        packed: dict[int, int | Fraction] = {}
        nd = None
        bound = 0
        for (m, t), c in (terms or {}).items():
            if nd is None:
                nd = (len(m), len(t))
            elif nd != (len(m), len(t)):
                raise ValueError(f"exponents of different dims (n, d): {nd} and {(len(m), len(t))}")
            deg = sum(t)
            if order is not None and deg >= order:
                continue
            c = _norm_coeff(c)
            if c != 0:
                bound = _guard(max(bound, abs(deg), *map(abs, m), *map(abs, t)))
                packed[_pack((*m, *t, deg))] = c
        self._packed = packed
        self.order = order
        self._nd = nd if packed else None
        self._bound = bound
        self._view = None

    @staticmethod
    def _make(packed: dict, order: int | None, nd: tuple[int, int] | None, bound: int) -> "LaurentSeries":
        """A series from packed keys the caller has already truncated and
        cleaned (nonzero, normalized coefficients)."""
        s = object.__new__(LaurentSeries)
        s._packed = packed
        s.order = order
        s._nd = nd if packed else None
        s._bound = bound
        s._view = None
        return s

    @property
    def terms(self) -> Mapping[Exponent, int | Fraction]:
        if self._view is None:
            n, d = self._nd or (0, 0)
            self._view = MappingProxyType({_decode(k, n, d): c for k, c in self._packed.items()})
        return self._view

    # -- constructors -------------------------------------------------------

    @staticmethod
    def monomial(m: Sequence[int], t: Sequence[int], coeff=1, order: int | None = None) -> "LaurentSeries":
        return LaurentSeries({exponent(m, t): coeff}, order)

    @staticmethod
    def one(n: int, d: int, order: int | None = None) -> "LaurentSeries":
        return LaurentSeries._make({0: 1} if order is None or order > 0 else {}, order, (n, d), 0)

    @staticmethod
    def zero(order: int | None = None) -> "LaurentSeries":
        return LaurentSeries._make({}, order, None, 0)

    # -- basic queries ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._packed)

    def __len__(self) -> int:
        return len(self._packed)

    def coefficient(self, e: Exponent):
        return self.terms.get(e, 0)

    def dims(self) -> tuple[int, int] | None:
        return self._nd

    def is_one(self) -> bool:
        return len(self._packed) == 1 and self._packed.get(0) == 1

    def min_coeff_degree(self) -> int | None:
        return min(map(_deg, self._packed), default=None)

    def degree_slice(self, k: int) -> "LaurentSeries":
        packed = {key: c for key, c in self._packed.items() if _deg(key) == k}
        return LaurentSeries._make(packed, self.order, self._nd, self._bound)

    def constant_slice(self) -> "LaurentSeries":
        return self.degree_slice(0)

    def truncate(self, order: int | None) -> "LaurentSeries":
        order = _min_order(self.order, order)
        packed = self._packed
        if order is not None and order != self.order:
            packed = {k: c for k, c in packed.items() if _deg(k) < order}
        return LaurentSeries._make(packed, order, self._nd, self._bound)

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self._packed.values())

    def assert_integral(self, context: str = "") -> "LaurentSeries":
        if not self.is_integral():
            e, c = next((e, c) for e, c in self.terms.items() if not isinstance(c, int))
            raise ArithmeticError(
                f"non-integer coefficient {c} at exponent {e}" + (f" ({context})" if context else "")
            )
        return self

    def eq_mod_order(self, other: "LaurentSeries", order: int | None = None) -> bool:
        order = _min_order(order, _min_order(self.order, other.order))
        a, b = self.truncate(order), other.truncate(order)
        return a._nd == b._nd and a._packed == b._packed

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.order == other.order and self._nd == other._nd and self._packed == other._packed

    def __hash__(self):
        return hash((self.order, frozenset(self._packed.items())))

    # -- canonical form -----------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponent, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda item: (item[0].t, item[0].m))

    def __str__(self) -> str:
        return series_to_str(self)

    def __repr__(self) -> str:
        return f"LaurentSeries({series_to_str(self)!r}, order={self.order})"

    # -- arithmetic (operator sugar over the series_* functions) ------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return series_add(self, other)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return series_sub(self, other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        return series_mul(self, other)

    def __pow__(self, e: int) -> "LaurentSeries":
        return series_pow(self, e)

    def __neg__(self) -> "LaurentSeries":
        return series_scale(self, -1)


def series_add(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    nd = _dims(a, b)
    order = _min_order(a.order, b.order)
    a, b = a.truncate(order), b.truncate(order)
    terms = dict(a._packed)
    for k, c in b._packed.items():
        s = terms.get(k, 0) + c
        if s:
            terms[k] = s
        else:
            del terms[k]
    return LaurentSeries._make(_normalized(terms), order, nd, max(a._bound, b._bound))


def series_sub(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    return series_add(a, series_scale(b, -1))


def series_scale(a: LaurentSeries, c) -> LaurentSeries:
    if c == 0:
        return LaurentSeries.zero(a.order)
    terms = {k: cc * c for k, cc in a._packed.items()}
    return LaurentSeries._make(_normalized(terms), a.order, a._nd, a._bound)


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Product; with a finite order the larger operand is sorted by degree
    once, so each term of the other stops at the first pair it would cut."""
    nd = _dims(a, b)
    order = _min_order(a.order, b.order)
    if not a._packed or not b._packed:
        return LaurentSeries.zero(order)
    bound = _sum_bound(a, b)
    if len(a._packed) > len(b._packed):
        a, b = b, a
    terms: dict[int, int | Fraction] = {}
    get = terms.get
    if order is None:
        b_items = list(b._packed.items())
        for ka, ca in a._packed.items():
            for kb, cb in b_items:
                k = ka + kb
                s = get(k, 0) + ca * cb
                if s:
                    terms[k] = s
                else:
                    del terms[k]
    else:
        b_items = sorted((((kb + _HALF) & _MASK) - _HALF, kb, cb) for kb, cb in b._packed.items())
        for ka, ca in a._packed.items():
            room = order - ((ka + _HALF) & _MASK) + _HALF
            for db, kb, cb in b_items:
                if db >= room:
                    break
                k = ka + kb
                s = get(k, 0) + ca * cb
                if s:
                    terms[k] = s
                else:
                    del terms[k]
    return LaurentSeries._make(_normalized(terms), order, nd, bound)


def series_pow(a: LaurentSeries, e: int) -> LaurentSeries:
    """a**e, with negative powers via the truncated geometric series.

    Negative exponents need the coefficient-degree-0 slice of ``a`` to be a
    single monomial (a unit modulo the truncation ideal) and a finite order.
    """
    e = int(e)
    dims = a.dims()
    if dims is None:
        if e == 0:
            raise ValueError("0**0 of a dimensionless zero series")
        if e > 0:
            return LaurentSeries.zero(a.order)
        raise ZeroDivisionError("negative power of the zero series")
    n, d = dims
    if e == 0:
        return LaurentSeries.one(n, d, a.order)
    if e > 0:
        result = LaurentSeries.one(n, d, a.order)
        base = a
        k = e
        while k:
            if k & 1:
                result = series_mul(result, base)
            k >>= 1
            if k:
                base = series_mul(base, base)
        return result
    inv = series_unit_inverse(a)
    return series_pow(inv, -e)


def series_unit_inverse(a: LaurentSeries) -> LaurentSeries:
    """Inverse of a unit: single degree-0 monomial times (1 + higher degree)."""
    if a.order is None:
        if len(a._packed) == 1:
            # pure monomial: exact inverse without truncation
            (k, c), = a._packed.items()
            return LaurentSeries._make({-k: _inverse_coeff(c)}, None, a._nd, a._bound)
        raise ValueError("inverting a non-monomial series requires a finite truncation order")
    const = a.constant_slice()
    if len(const._packed) != 1:
        raise ValueError(
            f"series is not a unit: degree-0 part has {len(const._packed)} terms (need exactly 1)"
        )
    (k0, c0), = const._packed.items()
    u_inv = LaurentSeries._make({-k0: _inverse_coeff(c0)}, a.order, a._nd, a._bound)
    g = series_mul(u_inv, series_sub(a, const))  # degree >= 1
    n, d = a._nd
    # (1+g)^{-1} = sum (-g)^j, finite because deg(g^j) >= j
    result = LaurentSeries.one(n, d, a.order)
    power = LaurentSeries.one(n, d, a.order)
    neg_g = series_scale(g, -1)
    for _ in range(1, a.order):
        power = series_mul(power, neg_g)
        if not power:
            break
        result = series_add(result, power)
    return series_mul(u_inv, result)


def series_log(f: LaurentSeries) -> LaurentSeries:
    """log f for f = 1 + (degree >= 1); exact rational coefficients."""
    if f.order is None:
        raise ValueError("series_log requires a finite truncation order")
    if not f.constant_slice().is_one():
        raise ValueError("series_log requires constant term exactly 1")
    n, d = f._nd
    g = series_sub(f, LaurentSeries.one(n, d, f.order))
    result = LaurentSeries.zero(f.order)
    power = LaurentSeries.one(n, d, f.order)
    for j in range(1, f.order):
        power = series_mul(power, g)
        if not power:
            break
        result = series_add(result, series_scale(power, Fraction((-1) ** (j + 1), j)))
    return result


def wall_cross(x: LaurentSeries, f: LaurentSeries, n0: Sequence, sign: int = 1) -> LaurentSeries:
    """Monomial-wise z^p -> z^p * f^h, h = sign*<n0, m(p)>; t-monomials are fixed.

    ``f = 1 + g`` must have constant term 1, so ``g`` has coefficient degree
    >= 1 and ``f^h = sum_{j < order} C(h, j) g^j`` exactly, with integer
    generalized binomials ``C(h, j)`` also for ``h < 0``: nothing is inverted,
    and each ``g^j`` is formed once per call.  With ``order=None`` the sum ends
    at ``j = h`` for ``h >= 0``; ``h < 0`` raises ValueError unless ``f == 1``.
    ``n0`` is the acting normal, a vector of ints.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not all(isinstance(v, int) for v in n0):
        raise ValueError(f"acting normal {tuple(n0)} must have int entries")
    if not f.constant_slice().is_one():
        raise ValueError("wall function must have constant term exactly 1")
    nd = _dims(x, f)
    order = _min_order(x.order, f.order)
    g = LaurentSeries._make(
        {k: c for k, c in f._packed.items() if _deg(k) and (order is None or _deg(k) < order)},
        order, nd, f._bound,
    )
    if not x._packed:
        return LaurentSeries.zero(order)
    n, d = nd
    low = _pack([_HALF] * (d + 1))  # lifts the t and degree slots to [0, 2^32)
    ys: dict[int, dict[int, int | Fraction]] = {}  # j -> sum C(h, j) c z^p
    for k, c in x._packed.items():
        m = _unpack((k + low) >> (_SLOT * (d + 1)), n)
        h = sign * sum(map(mul, n0, m))
        if order is None and h < 0 and g:
            raise ValueError("inverting a non-monomial series requires a finite truncation order")
        binom = 1
        for j in range(order - _deg(k) if order is not None else max(h, 0) + 1):
            ys.setdefault(j, {})[k] = binom * c
            binom = binom * (h - j) // (j + 1)  # exact: C(h, j + 1)
            if not binom:
                break
    result = LaurentSeries._make(_normalized(ys.get(0, {})), order, nd, x._bound)
    power = g
    for j in range(1, len(ys)):
        if j > 1:
            power = series_mul(power, g)
        if not power:
            break
        y = LaurentSeries._make(_normalized(ys[j]), order, nd, x._bound)
        result = series_add(result, series_mul(power, y))
    return result


# -- derivations ------------------------------------------------------------


class Derivation:
    """Record of defect terms ``c * z^p * d_n``: coefficient, exponent and
    exact rational normal, one triple per term.

    It is what a consistency check reports as the leading failure of a loop
    (``ConsistencyReport.discrepancy``); it does not act on series.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int | Fraction, Exponent, tuple]] = ()):  # (coeff, exponent, normal)
        self.terms = [(c, e, tuple(n)) for c, e, n in terms if c != 0]

    def __bool__(self) -> bool:
        return bool(self.terms)


# -- automorphisms ----------------------------------------------------------


class Automorphism:
    """Ring map determined by the images of the n + d generators.

    ``m_images[i]`` is the image of z^{e_i*}; ``t_images[j]`` the image of the
    j-th coefficient generator.  Application substitutes images (negative
    generator powers go through unit inversion), so every image must be a unit
    modulo the truncation ideal.
    """

    __slots__ = ("m_images", "t_images", "order", "_power_cache")

    def __init__(self, m_images: Sequence[LaurentSeries], t_images: Sequence[LaurentSeries], order: int | None):
        self.m_images = list(m_images)
        self.t_images = list(t_images)
        self.order = order
        self._power_cache: dict[tuple[int, int], LaurentSeries] = {}

    @property
    def n(self) -> int:
        return len(self.m_images)

    @property
    def d(self) -> int:
        return len(self.t_images)

    @staticmethod
    def identity(n: int, d: int, order: int | None) -> "Automorphism":
        m_images = [LaurentSeries.monomial(_unit(n, i), (0,) * d, order=order) for i in range(n)]
        t_images = [LaurentSeries.monomial((0,) * n, _unit(d, j), order=order) for j in range(d)]
        return Automorphism(m_images, t_images, order)

    def _gen_power(self, i: int, e: int) -> LaurentSeries:
        """e-th power of the image of generator i: z^{e_i*} for i < n, else t_{i-n}."""
        key = (i, e)
        cached = self._power_cache.get(key)
        if cached is None:
            base = self.m_images[i] if i < self.n else self.t_images[i - self.n]
            cached = self._power_cache[key] = series_pow(base, e)
        return cached

    def apply(self, x: LaurentSeries) -> LaurentSeries:
        count = self.n + self.d
        if x._nd is not None and x._nd != (self.n, self.d):
            raise ValueError(f"series of dims (n, d) {x._nd} under an automorphism of {(self.n, self.d)}")
        order = _min_order(self.order, x.order)
        result = LaurentSeries.zero(order)
        for k, c in x._packed.items():
            image: LaurentSeries | None = None
            for i, e in enumerate(_unpack((k + _HALF) >> _SLOT, count)):  # all slots but the degree
                if e:
                    p = self._gen_power(i, e)
                    image = p if image is None else series_mul(image, p)
            if image is None:
                image = LaurentSeries.one(self.n, self.d, order)
            result = series_add(result, series_scale(image.truncate(order), c))
        return result

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: (self.compose(other)).apply(x) == self.apply(other.apply(x))."""
        order = _min_order(self.order, other.order)
        return Automorphism(
            [self.apply(img) for img in other.m_images],
            [self.apply(img) for img in other.t_images],
            order,
        )

    def eq_mod_order(self, other: "Automorphism", order: int | None = None) -> bool:
        if self.n != other.n or self.d != other.d:
            return False
        order = _min_order(order, _min_order(self.order, other.order))
        return all(
            a.eq_mod_order(b, order)
            for a, b in zip(self.m_images + self.t_images, other.m_images + other.t_images)
        )

    def is_identity(self, order: int | None = None) -> bool:
        return self.eq_mod_order(Automorphism.identity(self.n, self.d, self.order), order)


def _unit(length: int, idx: int) -> tuple[int, ...]:
    v = [0] * length
    v[idx] = 1
    return tuple(v)


# -- exact division ---------------------------------------------------------


def series_exact_div(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries | None:
    """Exact quotient a/b in the Laurent ring, or None if b does not divide a.

    Both operands must be exact polynomials (order None).  Works over exact
    rationals; the caller decides whether an integral result is required.
    Slot by slot, the support of an exact quotient spans ``[min a - min b,
    max a - max b]``; a leading quotient term outside that box proves there
    is none, and inside it the remainder stays in the box of ``a``.  The
    quotient's bound is read off that box, so it is tight.
    """
    if a.order is not None or b.order is not None:
        raise ValueError("exact division is defined for untruncated polynomials only")
    if not b._packed:
        raise ZeroDivisionError("division by the zero series")
    nd = _dims(a, b)
    if not a._packed:
        return LaurentSeries.zero(None)
    if len(b._packed) == 1:
        (kb, cb), = b._packed.items()
        inv = _inverse_coeff(cb)
        bound = _sum_bound(a, b)
        return LaurentSeries._make(_normalized({k - kb: c * inv for k, c in a._packed.items()}), None, nd, bound)
    count = nd[0] + nd[1] + 1
    (low_a, high_a), (low_b, high_b) = _box(a._packed, count), _box(b._packed, count)
    a._bound, b._bound = _box_bound(low_a, high_a, count), _box_bound(low_b, high_b, count)
    # the box tests subtract keys whose slots are within a._bound + b._bound
    _guard(2 * (a._bound + b._bound))
    lead_div = max(b._packed)
    lead_div_c = b._packed[lead_div]
    # step = lead - lead_div must lie in [low_a - low_b, high_a - high_b] slot by slot
    lo = lead_div + low_a - low_b
    hi = lead_div + high_a - high_b
    top_bits = _pack([_HALF] * count)  # a key with every slot >= 0 has none of these

    def nonneg(k: int) -> bool:
        return k >= 0 and not k & top_bits

    div = list(b._packed.items())
    rem = dict(a._packed)
    quot: dict[int, int | Fraction] = {}
    while rem:
        lead = max(rem)
        if not (nonneg(lead - lo) and nonneg(hi - lead)):
            return None
        step = lead - lead_div
        q = quot[step] = _norm_coeff(Fraction(rem[lead]) / lead_div_c)
        for kb, cb in div:
            k = step + kb
            s = rem.get(k, 0) - q * cb
            if s == 0:
                rem.pop(k, None)
            else:
                rem[k] = s
    return LaurentSeries._make(quot, None, nd, _box_bound(low_a - low_b, high_a - high_b, count))


def _box(keys, count: int) -> tuple[int, int]:
    """Packed slot-wise minimum and maximum of nonempty keys with ``count`` slots."""
    low = high = lift = 0
    for i in range(count):
        shift = _SLOT * i
        lift += _HALF << shift  # lifts slots 0..i to [0, 2^32)
        col = [((k + lift) >> shift) & _MASK for k in keys]
        low += (min(col) - _HALF) << shift
        high += (max(col) - _HALF) << shift
    return low, high


# -- serialization and rendering --------------------------------------------


def series_to_json(a: LaurentSeries) -> dict:
    a.assert_integral("JSON serialization")
    return {
        "terms": [{"m": list(e.m), "t": list(e.t), "c": c} for e, c in a.sorted_terms()],
        "order": "inf" if a.order is None else a.order,
    }


def series_from_json(data: dict) -> LaurentSeries:
    order = data.get("order", "inf")
    order = None if order == "inf" else int(order)
    terms = {exponent(t["m"], t["t"]): int(t["c"]) for t in data["terms"]}
    return LaurentSeries(terms, order)


def series_to_str(
    a: LaurentSeries,
    m_names: Sequence[str] | None = None,
    t_names: Sequence[str] | None = None,
) -> str:
    if not a.terms:
        return "0"

    def var(name: str, e: int) -> str:
        return name if e == 1 else f"{name}^{e}"

    parts = []
    for e, c in a.sorted_terms():
        factors = []
        for j, ej in enumerate(e.t):
            if ej:
                factors.append(var(t_names[j] if t_names else f"t{j}", ej))
        for i, ei in enumerate(e.m):
            if ei:
                factors.append(var(m_names[i] if m_names else f"z{i}", ei))
        body = "*".join(factors)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out
