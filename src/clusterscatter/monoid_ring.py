"""Exact sparse Laurent series over the monoid M + Z^d, truncated by coefficient degree.

Monomials are pairs ``z^m * t^a`` with ``m`` an integer vector of length ``n``
(the lattice part, basis ``e_1*, ..., e_n*``) and ``a`` an integer vector of
length ``d`` (the coefficient part, one slot per semifield generator).  The
*coefficient degree* of a term is the sum of its t-entries; truncation is
always by coefficient degree, never by the lattice part.  A series of order
``k`` is known modulo terms of coefficient degree >= k; ``order=None`` means an
exact Laurent polynomial.

Coefficients are exact integers.  Rationals appear transiently inside
``series_log`` and ``series_pow`` of negative powers and are normalized back
to ``int`` whenever the denominator clears; callers that need integrality
assert it via ``assert_integral``.  ``wall_cross`` never inverts:
it expands ``(1 + g)^h`` binomially, with integer ``C(h, j)`` for any ``h``.

Wall-crossing automorphisms ``z^p -> z^p * f^{sign*<n0, m(p)>}`` and their
compositions are materialized as images of the ``n + d`` generators
(`Automorphism`); the t-generators are fixed by crossings but move under the
piecewise-linear transforms and specializations defined elsewhere.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence


class Exponent(NamedTuple):
    m: tuple[int, ...]
    t: tuple[int, ...]

    def __add__(self, other: "Exponent") -> "Exponent":  # type: ignore[override]
        return Exponent(
            tuple(a + b for a, b in zip(self.m, other.m)),
            tuple(a + b for a, b in zip(self.t, other.t)),
        )

    def __neg__(self) -> "Exponent":
        return Exponent(tuple(-a for a in self.m), tuple(-a for a in self.t))

    @property
    def coeff_degree(self) -> int:
        return sum(self.t)


def exponent(m: Sequence[int], t: Sequence[int]) -> Exponent:
    return Exponent(tuple(int(a) for a in m), tuple(int(a) for a in t))


def _norm_coeff(c):
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    return int(c)


def _min_order(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


_SENTINEL = object()


class LaurentSeries:
    """Finite map Exponent -> nonzero coefficient, plus a truncation order."""

    __slots__ = ("terms", "order")

    def __init__(self, terms: dict[Exponent, int | Fraction] | None = None, order: int | None = None):
        cleaned: dict[Exponent, int | Fraction] = {}
        if terms:
            for e, c in terms.items():
                if order is not None and e.coeff_degree >= order:
                    continue
                c = _norm_coeff(c)
                if c != 0:
                    cleaned[e] = c
        self.terms = cleaned
        self.order = order

    # -- constructors -------------------------------------------------------

    @staticmethod
    def monomial(m: Sequence[int], t: Sequence[int], coeff=1, order: int | None = None) -> "LaurentSeries":
        return LaurentSeries({exponent(m, t): coeff}, order)

    @staticmethod
    def one(n: int, d: int, order: int | None = None) -> "LaurentSeries":
        return LaurentSeries({exponent((0,) * n, (0,) * d): 1}, order)

    @staticmethod
    def zero(order: int | None = None) -> "LaurentSeries":
        return LaurentSeries({}, order)

    # -- basic queries ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def coefficient(self, e: Exponent):
        return self.terms.get(e, 0)

    def dims(self) -> tuple[int, int] | None:
        for e in self.terms:
            return len(e.m), len(e.t)
        return None

    def is_one(self) -> bool:
        if len(self.terms) != 1:
            return False
        (e, c), = self.terms.items()
        return c == 1 and all(a == 0 for a in e.m) and all(a == 0 for a in e.t)

    def min_coeff_degree(self) -> int | None:
        if not self.terms:
            return None
        return min(e.coeff_degree for e in self.terms)

    def max_coeff_degree(self) -> int | None:
        if not self.terms:
            return None
        return max(e.coeff_degree for e in self.terms)

    def degree_slice(self, k: int) -> "LaurentSeries":
        return LaurentSeries({e: c for e, c in self.terms.items() if e.coeff_degree == k}, self.order)

    def constant_slice(self) -> "LaurentSeries":
        return self.degree_slice(0)

    def truncate(self, order: int | None) -> "LaurentSeries":
        return LaurentSeries(self.terms, _min_order(self.order, order))

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.terms.values())

    def assert_integral(self, context: str = "") -> "LaurentSeries":
        for e, c in self.terms.items():
            if not isinstance(c, int):
                raise ArithmeticError(
                    f"non-integer coefficient {c} at exponent {e}"
                    + (f" ({context})" if context else "")
                )
        return self

    def eq_mod_order(self, other: "LaurentSeries", order: int | None = None) -> bool:
        order = _min_order(order, _min_order(self.order, other.order))
        return self.truncate(order).terms == other.truncate(order).terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __hash__(self):
        return hash((self.order, frozenset(self.terms.items())))

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
    order = _min_order(a.order, b.order)
    terms = dict(a.terms)
    for e, c in b.terms.items():
        s = terms.get(e, 0) + c
        if s == 0:
            terms.pop(e, None)
        else:
            terms[e] = s
    return LaurentSeries(terms, order)


def series_sub(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    return series_add(a, series_scale(b, -1))


def series_scale(a: LaurentSeries, c) -> LaurentSeries:
    if c == 0:
        return LaurentSeries({}, a.order)
    return LaurentSeries({e: cc * c for e, cc in a.terms.items()}, a.order)


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    order = _min_order(a.order, b.order)
    if not a.terms or not b.terms:
        return LaurentSeries({}, order)
    # iterate over the smaller operand's terms in the outer loop
    if len(a.terms) > len(b.terms):
        a, b = b, a
    terms: dict[Exponent, int | Fraction] = {}
    b_items = [(e, e.coeff_degree, c) for e, c in b.terms.items()]
    for ea, ca in a.terms.items():
        da = ea.coeff_degree
        for eb, db, cb in b_items:
            if order is not None and da + db >= order:
                continue
            e = ea + eb
            s = terms.get(e, 0) + ca * cb
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
    return LaurentSeries(terms, order)


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
            return LaurentSeries({}, a.order)
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
        if len(a.terms) == 1:
            # pure monomial: exact inverse without truncation
            (e, c), = a.terms.items()
            coeff = 1 if c == 1 else (-1 if c == -1 else Fraction(1, c) if isinstance(c, int) else 1 / c)
            return LaurentSeries({-e: coeff}, None)
        raise ValueError("inverting a non-monomial series requires a finite truncation order")
    const = a.constant_slice()
    if len(const.terms) != 1:
        raise ValueError(
            f"series is not a unit: degree-0 part has {len(const.terms)} terms (need exactly 1)"
        )
    (e0, c0), = const.terms.items()
    u_inv_coeff = 1 if c0 == 1 else (-1 if c0 == -1 else Fraction(1, c0) if isinstance(c0, int) else 1 / c0)
    u_inv = LaurentSeries({-e0: u_inv_coeff}, a.order)
    g = series_mul(u_inv, series_sub(a, LaurentSeries({e0: c0}, a.order)))  # degree >= 1
    n, d = len(e0.m), len(e0.t)
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
    g = series_sub(f, LaurentSeries.one(*f.dims(), f.order))  # type: ignore[misc]
    n, d = f.dims()  # type: ignore[misc]
    result = LaurentSeries.zero(f.order)
    power = LaurentSeries.one(n, d, f.order)
    for j in range(1, f.order):
        power = series_mul(power, g)
        if not power:
            break
        result = series_add(result, series_scale(power, Fraction((-1) ** (j + 1), j)))
    return result


def pairing(n0: Sequence, m: Sequence[int]):
    """<n0, m> with exact rational normals; result may be a Fraction."""
    total = sum((x * y for x, y in zip(n0, m)), start=Fraction(0))
    if total.denominator == 1:
        return int(total)
    return total


def wall_cross(x: LaurentSeries, f: LaurentSeries, n0: Sequence, sign: int = 1) -> LaurentSeries:
    """Monomial-wise z^p -> z^p * f^h, h = sign*<n0, m(p)>; t-monomials are fixed.

    ``f = 1 + g`` must have constant term 1, so ``g`` has coefficient degree
    >= 1 and ``f^h = sum_{j < order} C(h, j) g^j`` exactly, with integer
    generalized binomials ``C(h, j)`` also for ``h < 0``: nothing is inverted,
    and each ``g^j`` is formed once per call.  With ``order=None`` the sum ends
    at ``j = h`` for ``h >= 0``; ``h < 0`` raises ValueError unless ``f == 1``.
    ``n0`` is the acting normal; every pairing with the support must be integral.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not f.constant_slice().is_one():
        raise ValueError("wall function must have constant term exactly 1")
    order = _min_order(x.order, f.order)
    g = LaurentSeries({e: c for e, c in f.terms.items() if e.coeff_degree}, order)
    ys: dict[int, dict[Exponent, int | Fraction]] = {}  # j -> sum C(h, j) c z^p
    for e, c in x.terms.items():
        h = pairing(n0, e.m)
        if not isinstance(h, int):
            raise ArithmeticError(f"non-integral crossing exponent <{tuple(n0)}, {e.m}> = {h}")
        h *= sign
        if order is None and h < 0 and g:
            raise ValueError("inverting a non-monomial series requires a finite truncation order")
        binom = 1
        for j in range(order - e.coeff_degree if order is not None else max(h, 0) + 1):
            ys.setdefault(j, {})[e] = binom * c
            binom = binom * (h - j) // (j + 1)  # exact: C(h, j + 1)
            if not binom:
                break
    result = LaurentSeries(ys.get(0), order)
    power = g
    for j in range(1, len(ys)):
        if j > 1:
            power = series_mul(power, g)
        if not power:
            break
        result = series_add(result, series_mul(power, LaurentSeries(ys[j], order)))
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
        self._power_cache: dict[tuple[int, int, int], LaurentSeries] = {}

    @property
    def n(self) -> int:
        return len(self.m_images)

    @property
    def d(self) -> int:
        return len(self.t_images)

    @staticmethod
    def identity(n: int, d: int, order: int | None) -> "Automorphism":
        m_images = [LaurentSeries.monomial(_unit_vec(n, i), (0,) * d, order=order) for i in range(n)]
        t_images = [LaurentSeries.monomial((0,) * n, _unit_vec(d, j), order=order) for j in range(d)]
        return Automorphism(m_images, t_images, order)

    def _gen_power(self, kind: int, idx: int, e: int) -> LaurentSeries:
        key = (kind, idx, e)
        cached = self._power_cache.get(key)
        if cached is not None:
            return cached
        base = self.m_images[idx] if kind == 0 else self.t_images[idx]
        value = series_pow(base, e)
        self._power_cache[key] = value
        return value

    def apply(self, x: LaurentSeries) -> LaurentSeries:
        order = _min_order(self.order, x.order)
        result = LaurentSeries.zero(order)
        for e, c in x.terms.items():
            image: LaurentSeries | None = None
            for i, ei in enumerate(e.m):
                if ei == 0:
                    continue
                p = self._gen_power(0, i, ei)
                image = p if image is None else series_mul(image, p)
            for j, ej in enumerate(e.t):
                if ej == 0:
                    continue
                p = self._gen_power(1, j, ej)
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


def _unit_vec(length: int, idx: int) -> tuple[int, ...]:
    v = [0] * length
    v[idx] = 1
    return tuple(v)


# -- exact division ---------------------------------------------------------


def series_exact_div(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries | None:
    """Exact quotient a/b in the Laurent ring, or None if b does not divide a.

    Both operands must be exact polynomials (order None).  Works over exact
    rationals; the caller decides whether an integral result is required.
    """
    if a.order is not None or b.order is not None:
        raise ValueError("exact division is defined for untruncated polynomials only")
    if not b.terms:
        raise ZeroDivisionError("division by the zero series")
    if not a.terms:
        return LaurentSeries.zero(None)
    if len(b.terms) == 1:
        (eb, cb), = b.terms.items()
        inv = 1 if cb == 1 else (-1 if cb == -1 else Fraction(1, cb) if isinstance(cb, int) else 1 / cb)
        return LaurentSeries({e + (-eb): c * inv for e, c in a.terms.items()}, None)

    def flat(e: Exponent) -> tuple[int, ...]:
        return e.m + e.t

    nm = len(next(iter(a.terms)).m)
    mins_a = _support_min(a)
    mins_b = _support_min(b)
    shift_a = [x - y for x, y in zip(mins_a, mins_b)]  # quotient lives at this offset

    rem: dict[tuple[int, ...], int | Fraction] = {
        tuple(x - y for x, y in zip(flat(e), mins_a)): c for e, c in a.terms.items()
    }
    div: dict[tuple[int, ...], int | Fraction] = {
        tuple(x - y for x, y in zip(flat(e), mins_b)): c for e, c in b.terms.items()
    }
    lead_div = max(div)
    lead_div_c = div[lead_div]
    quot: dict[tuple[int, ...], int | Fraction] = {}
    while rem:
        lead = max(rem)
        step = tuple(x - y for x, y in zip(lead, lead_div))
        if any(x < 0 for x in step):
            return None
        c = rem[lead]
        q = c / lead_div_c if isinstance(c, Fraction) or isinstance(lead_div_c, Fraction) else Fraction(c, lead_div_c)
        q = _norm_coeff(q)
        quot[step] = q
        for e, ce in div.items():
            key = tuple(x + y for x, y in zip(step, e))
            s = rem.get(key, 0) - q * ce
            if s == 0:
                rem.pop(key, None)
            else:
                rem[key] = s
    return LaurentSeries(
        {
            Exponent(
                tuple(x + y for x, y in zip(k[:nm], shift_a[:nm])),
                tuple(x + y for x, y in zip(k[nm:], shift_a[nm:])),
            ): c
            for k, c in quot.items()
        },
        None,
    )


def _support_min(a: LaurentSeries) -> list[int]:
    vecs = [e.m + e.t for e in a.terms]
    return [min(v[i] for v in vecs) for i in range(len(vecs[0]))]


# -- serialization and rendering --------------------------------------------


def series_to_json(a: LaurentSeries) -> dict:
    a.assert_integral("JSON serialization")
    return {
        "terms": [{"m": list(e.m), "t": list(e.t), "c": c} for e, c in a.sorted_terms()],
        "order": "inf" if a.order is None else a.order,
    }


def series_from_json(data: dict | str) -> LaurentSeries:
    if isinstance(data, str):
        data = json.loads(data)
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
