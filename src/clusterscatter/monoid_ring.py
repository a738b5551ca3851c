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
order of ``Exponent(m, a)``; ``_key(m, a)`` is the one packer of a monomial.
A key decodes under one ``(n, d)`` only, so the binary kernels reject
operands of different dims.  Each series carries a bound on its slot
magnitudes; every kernel that forms new keys derives the bound of its result
from its operands' bounds and raises OverflowError before a slot could leave
``(-2^31, 2^31)``.  Carried bounds only grow through products, so when a sum
of bounds would trip the guard, both operands' bounds are first re-derived
from their keys; an exact quotient takes its bound from the slot box of its
support.  ``LaurentSeries.terms`` is the read-only ``{Exponent:
coefficient}`` view, decoded once when first read.

Coefficients are exact integers.  Rationals appear transiently inside
``series_log``, ``series_pow`` of negative powers and exact division; every
kernel stores them normalized back to ``int`` whenever the denominator clears,
so ``series_add`` normalizes only the sums it writes.  Callers that need
integrality assert it via ``assert_integral``.  Every crossing of the
library goes one wall factor ``(1 + t z^m)^c`` at a time through one kernel,
``_Factor``, on images held as slices by coefficient degree; it never
inverts, since it expands ``(1 + y)^(c h)`` binomially, with integer
``C(c h, q)`` for any ``h``; a factor of degree delta reads no slice at or
above order - delta.  Two loops call it: ``_cross_in_place`` crosses a whole
image at once (the one-shot loop), and ``_OnlineFan`` crosses a fan of
factors one coefficient degree at a time, so that completion can insert
factors between degrees without crossing the fan again; the slices an
insert makes stale are rebuilt once, before the fan is next read.
``wall_cross`` is the kernel's reference form, kept as its test oracle: it
crosses with an expanded function level by level, and inverts it for a
negative level.  ``series_exact_div`` pops each leading term from a
max-heap of packed keys and divides int coefficients with ``divmod``.
``_by_level`` splits a polynomial by the level <n0, m> of its terms, read
off the m-slots of the packed keys, for ``wall_cross`` and for the seed
layer's pull-back, which crosses each level on its own and joins the
images with ``_disjoint_sum``, a union of terms.  The pull-back divides a
negative level by one binomial of its exchange factor at a time with
``_binomial_div``, which walks the chains k, k - delta, ... of the
dividend top down with no heap and no slot box; ``series_exact_div`` is
its oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
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


def _key(m: Sequence[int], t: Sequence[int]) -> int:
    """The packed key of the monomial z^m t^t."""
    return _pack((*m, *t, sum(t)))


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
    the same view back.  Without terms it builds the zero series of the
    order.  ``dims()`` is ``(n, d)``, or None for the zero series.
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
                packed[_key(m, t)] = c
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

    # -- basic queries ------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._packed)

    def __len__(self) -> int:
        return len(self._packed)

    def dims(self) -> tuple[int, int] | None:
        return self._nd

    def is_one(self) -> bool:
        return len(self._packed) == 1 and self._packed.get(0) == 1

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
    terms = dict(a._packed)  # stored coefficients are normalized: only a written sum needs it
    for k, c in b._packed.items():
        s = terms.get(k, 0) + c
        if s:
            terms[k] = _norm_coeff(s) if type(s) is Fraction else s
        else:
            del terms[k]
    return LaurentSeries._make(terms, order, nd, max(a._bound, b._bound))


def series_sub(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    return series_add(a, series_scale(b, -1))


def series_scale(a: LaurentSeries, c) -> LaurentSeries:
    if c == 0:
        return LaurentSeries(order=a.order)
    terms = {k: cc * c for k, cc in a._packed.items()}
    return LaurentSeries._make(_normalized(terms), a.order, a._nd, a._bound)


def series_mul(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """Product; with a finite order the larger operand is sorted by degree
    once, so each term of the other stops at the first pair it would cut."""
    nd = _dims(a, b)
    order = _min_order(a.order, b.order)
    if not a._packed or not b._packed:
        return LaurentSeries(order=order)
    bound = _sum_bound(a, b)
    if len(a._packed) > len(b._packed):
        a, b = b, a
    terms: dict[int, int | Fraction] = {}
    if order is None:
        _mul_into(terms, a._packed, b._packed)
    else:
        get = terms.get
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
            return LaurentSeries(order=a.order)
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
    result = LaurentSeries(order=f.order)
    power = LaurentSeries.one(n, d, f.order)
    for j in range(1, f.order):
        power = series_mul(power, g)
        if not power:
            break
        result = series_add(result, series_scale(power, Fraction((-1) ** (j + 1), j)))
    return result


def wall_cross(x: LaurentSeries, f: LaurentSeries, n0: Sequence, sign: int = 1) -> LaurentSeries:
    """Monomial-wise z^p -> z^p * f^h, h = sign*<n0, m(p)>; t-monomials are fixed.

    The reference form of the crossing kernel `_Factor`: the terms of x are
    split by level h, and the part at level h is multiplied by ``f^h``, all
    below the smaller of the two orders.  ``f`` must have constant term 1; a
    negative level inverts it, which with ``order=None`` raises ValueError
    unless ``f == 1``.  ``n0`` is the acting normal, a vector of ints.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not all(isinstance(v, int) for v in n0):
        raise ValueError(f"acting normal {tuple(n0)} must have int entries")
    if not f.constant_slice().is_one():
        raise ValueError("wall function must have constant term exactly 1")
    _dims(x, f)  # rejects an f of other dims even when x is empty
    order = _min_order(x.order, f.order)
    f, result = f.truncate(order), LaurentSeries(order=order)
    for h, part in _by_level(x, [sign * v for v in n0]).items():
        result = series_add(result, series_mul(part, series_pow(f, h)))
    return result


def _generator_slices(n: int, d: int, order: int) -> list[list[dict]]:
    """Each generator z^{e_i} as packed slices by coefficient degree below ``order``."""
    return [[{_key(_unit(n, i), (0,) * d): 1}] + [{} for _ in range(order - 1)] for i in range(n)]


def _shifted_slices(
    images: Sequence[list[dict]], k: int, order: int, nd: tuple[int, int], bound: int
) -> list[LaurentSeries]:
    """Slice k >= 1 of z^{-e_i} times the image of each generator z^{e_i},
    from images held as slices by coefficient degree.  Crossings add terms of
    degree >= 1 only, so slice 0 of an image is its generator."""
    out = []
    for slices in images:
        (gen,) = slices[0]
        out.append(LaurentSeries._make({key - gen: c for key, c in slices[k].items()}, order, nd, bound))
    return out


def _by_level(x: LaurentSeries, n0: Sequence[int]) -> dict[int, LaurentSeries]:
    """The terms c z^p of x split by level h = <n0, m(p)>: h -> the part of x
    at level h, with x's order, dims and slot bound.  It serves the seed
    layer's pull-back and the reference crossing ``wall_cross``."""
    if not x._packed:
        return {}
    n, d = x._nd
    lift, shift = _pack([_HALF] * (d + 1)), _SLOT * (d + 1)  # lifts the t and degree slots to [0, 2^32)
    parts: dict[int, dict] = {}
    hs: dict[int, int] = {}  # h by the lifted m-slots of a key, shared by every t
    for k, c in x._packed.items():
        mk = (k + lift) >> shift
        h = hs.get(mk)
        if h is None:
            h = hs[mk] = sum(map(mul, n0, _unpack(mk, n)))
        parts.setdefault(h, {})[k] = c
    return {h: LaurentSeries._make(p, x.order, x._nd, x._bound) for h, p in parts.items()}


def _disjoint_sum(parts: Sequence[LaurentSeries]) -> LaurentSeries:
    """The sum of nonzero exact polynomials of one dims whose supports are
    pairwise disjoint, such as the parts of ``_by_level`` after a map that
    keeps each at its level: the union of their terms, no coefficient added."""
    if len(parts) == 1:
        return parts[0]
    packed: dict[int, int | Fraction] = {}
    for p in parts:
        packed.update(p._packed)
    return LaurentSeries._make(packed, None, parts[0]._nd, max(p._bound for p in parts))


def _mul_into(acc: dict, a: dict, b: dict) -> None:
    """acc += a * b on packed terms, untruncated; sums are not normalized."""
    get = acc.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = get(k, 0) + ca * cb
            if s:
                acc[k] = s
            else:
                del acc[k]


class _Factor:
    """One wall factor (1 + y)^c, y = t z^m of coefficient degree delta >= 1,
    crossed as z^p -> z^p (1 + y)^(c h), h = <n0, m(p)> for the wall normal
    n0 oriented toward the side the crossing comes from, on rank-2 images
    held as slices by coefficient degree below ``order``.  Its callers
    guarantee rank 2, tangency and delta >= 1 (``Wall`` and
    ``ScatteringDiagram`` check them), so the factor checks none of them.

    z^m is tangent to the wall (<n0, m> = 0), so every term the factor writes
    has the level h of the term it came from, and the crossed terms of degree
    k are, over q >= 1, C(c h, q) y^q times the terms of degree k - q delta.
    ``prepare`` reads a finished slice once; ``add`` gathers the crossed
    terms of one degree from prepared lower slices.  A degree below the
    order draws on slices below order - delta only: ``reads``, their count,
    is the one read limit, and no driver prepares a slice at or above it.
    The level of a key is read off its two m-slots.  The binomials are
    integers for any h: nothing is inverted.  The rows C(e, q), q < order,
    come from ``binomials``, a memo e -> row owned by the one computation
    (fan or loop) whose factors share it, so that a row is built once per
    computation and never outlives it.  ``bound`` holds the slots of an
    image under factors no larger than this one, a generator times at most
    order - 1 factor monomials; it is guarded before any key forms.
    """

    __slots__ = ("w", "delta", "reads", "y", "top", "bound", "lift", "shift", "order", "binomials", "rows")

    def __init__(self, n0: Sequence[int], atom, d: int, order: int, binomials: dict[int, list]):
        t, m, c = atom
        delta = sum(t)
        self.w, self.delta = (c * n0[0], c * n0[1]), delta  # c h = w . m(p)
        self.reads = max(0, order - delta)  # add reads slices k - q delta < order - delta only
        self.y, self.top = _key(m, t), (order - 1) // delta
        self.bound = _guard(1 + (order - 1) * max(map(abs, (*m, *t, delta)))) if self.top else 1
        # the lift raises the t and degree slots to [0, 2^32), so that a shift leaves the m-slots
        self.lift, self.shift = _pack([_HALF] * (d + 1)), _SLOT * (d + 1)
        self.order, self.binomials = order, binomials
        self.rows: dict[int, list] = {}  # C(c h, q) by the lifted m-slots of a key, which fix h

    def prepare(self, sl: dict) -> list:
        """The terms of a finished slice that the factor moves, as (key,
        coefficient, row C(c h, q) of its level)."""
        rows, lift, shift, out = self.rows, self.lift, self.shift, []
        for key, a in sl.items():
            mk = (key + lift) >> shift
            row = rows.get(mk)
            if row is None:
                row = rows[mk] = self._row(mk)
            if row:
                out.append((key, a, row))
        return out

    def _row(self, mk: int) -> list:
        """C(c h, q) for q < order at the level h of the lifted m-slots
        mk = m_0 2^32 + m_1, or no row where the factor moves nothing (c h = 0)."""
        m1 = ((mk + _HALF) & _MASK) - _HALF
        e = self.w[0] * ((mk - m1) >> _SLOT) + self.w[1] * m1
        if not e:
            return []
        row = self.binomials.get(e)
        if row is None:
            row = self.binomials[e] = [1] + [0] * (self.order - 1)
            for q in range(1, self.order):
                row[q] = row[q - 1] * (e - q + 1) // q  # exact: C(e, q)
                if not row[q]:
                    break
        return row

    def add(self, acc: dict, prepared: Sequence[list], k: int) -> None:
        """acc += the crossed terms of degree k, gathered from ``prepared[s]``,
        the prepared slice s, for s = k - q delta, q >= 1."""
        get, y, q, step = acc.get, self.y, 0, 0
        for s in range(k - self.delta, -1, -self.delta):
            q += 1
            step += y
            if not prepared[s]:
                continue
            for key, a, row in prepared[s]:
                b = row[q]
                if b:
                    k2 = key + step
                    v = get(k2, 0) + b * a
                    if v:
                        acc[k2] = v
                    else:
                        del acc[k2]


def _cross_in_place(slices: list[dict], factor: _Factor) -> None:
    """Cross an image held as slices by coefficient degree (``slices[k]`` for
    k below the order) by one factor, in place: every slice the factor reads
    is prepared before any is written."""
    prepared = [factor.prepare(sl) for sl in slices[: factor.reads]]
    for k in range(factor.delta, len(slices)):
        factor.add(slices[k], prepared, k)


class _OnlineFan:
    """Images of the generators z^{e_i} across a sequence of wall factors,
    built one coefficient degree at a time (online, or "relaxed", evaluation:
    van der Hoeven, *Relax, but don't be too lazy*, 2002).

    Position j crosses by one `_Factor`.  It keeps its output image as
    slices by coefficient degree (those above the stage are placeholders),
    and the finished input slices that its factor reads, prepared: a factor
    of degree delta reads its input's slices below order - delta only.
    Slice k of an output is slice k of its input plus the crossed terms
    gathered from the input's lower slices, which are final by stage k.  A
    factor inserted at stage k has degree k or more, so it leaves every
    slice below k as it was, and slice k at its own position and later
    ones.  ``insert`` therefore builds nothing: it records the lowest
    position whose slice k is stale, and ``_flush``, the loop that also
    builds each stage, rebuilds slice k from there on before ``step``,
    ``defect`` or ``closed`` reads it.  A stage that inserts factors at
    several positions rebuilds once.  The fan's factors share one binomial
    memo, which lives as long as the fan.
    """

    def __init__(self, d: int, order: int):
        self.nd, self.order, self.k, self.bound, self.binomials = (2, d), order, 0, 1, {}
        self.start = _generator_slices(2, d, order)
        self.positions: list[tuple[_Factor, list[list[dict]], list[list[list]]]] = []  # factor, output, prepared input
        self.stale = 0  # slice k of every output from this position on is stale

    def _input(self, j: int) -> list[list[dict]]:
        return self.positions[j - 1][1] if j else self.start

    def insert(self, j: int, n0: Sequence[int], atom) -> None:
        """Insert the factor (t, m, c) at position j, at the current stage,
        crossed by the oriented normal n0 (``_Factor``)."""
        factor, k = _Factor(n0, atom, self.nd[1], self.order, self.binomials), self.k
        if factor.delta < k:
            raise ValueError(f"wall factor of coefficient degree {factor.delta} at stage {k}")
        src = self._input(j)
        prepared = [[factor.prepare(s) for s in sl[: min(k, factor.reads)]] for sl in src]
        self.positions.insert(j, (factor, [list(sl) for sl in src], prepared))
        self.bound = max(self.bound, factor.bound)
        self.stale = min(self.stale, j)

    def _flush(self) -> None:
        """Build slice k of every output from the lowest stale position on,
        first position first, once each factor has prepared the input slices
        below k that it reads."""
        k = self.k
        for j in range(self.stale, len(self.positions)):
            factor, out, prepared = self.positions[j]
            reads = min(k, factor.reads)
            for sl, image, prep in zip(self._input(j), out, prepared):
                if len(prep) < reads:
                    prep.append(factor.prepare(sl[k - 1]))
                acc = dict(sl[k])
                factor.add(acc, prep, k)
                image[k] = acc
        self.stale = len(self.positions)

    def step(self) -> None:
        """Build the next slice of every output."""
        self._flush()
        self.k, self.stale = self.k + 1, 0
        self._flush()

    def defect(self) -> list[LaurentSeries]:
        """Slice k of z^{-e_i} times the last output, one series per generator."""
        self._flush()
        return _shifted_slices(self._input(len(self.positions)), self.k, self.order, self.nd, self.bound)

    def closed(self) -> bool:
        """Is slice k of the last output empty for every generator?"""
        self._flush()
        return not any(sl[self.k] for sl in self._input(len(self.positions)))


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
    quotient's bound is read off that box, so it is tight.  Leading terms come
    off a max-heap of remainder keys with lazy deletion (every key a step writes
    is at most its lead); int coefficients divide by ``divmod``.
    """
    if a.order is not None or b.order is not None:
        raise ValueError("exact division is defined for untruncated polynomials only")
    if not b._packed:
        raise ZeroDivisionError("division by the zero series")
    nd = _dims(a, b)
    if not a._packed:
        return LaurentSeries()
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
    heap = [-k for k in rem]  # max-heap of remainder keys; a popped key gone from rem is stale
    heapify(heap)
    quot: dict[int, int | Fraction] = {}
    while rem:
        lead = -heappop(heap)
        c = rem.get(lead)
        if c is None:
            continue
        if not (nonneg(lead - lo) and nonneg(hi - lead)):
            return None
        step = lead - lead_div
        q, r = divmod(c, lead_div_c) if type(c) is type(lead_div_c) is int else (0, c)
        q = quot[step] = _norm_coeff(Fraction(c) / lead_div_c) if r else q
        for kb, cb in div:
            k = step + kb
            s = rem.get(k)
            if s is None:
                heappush(heap, -k)
                rem[k] = -q * cb
            elif s := s - q * cb:
                rem[k] = s
            else:
                del rem[k]
    return LaurentSeries._make(quot, None, nd, _box_bound(low_a - low_b, high_a - high_b, count))


def _binomial_div(a: LaurentSeries, b: LaurentSeries) -> LaurentSeries | None:
    """Exact quotient a/b by an exact binomial b = c_u z^u + c_v z^v (u < v
    as keys), or None if b does not divide a; a b of one term goes to
    ``series_exact_div``.  The caller guarantees exact operands of one dims.

    With delta = v - u, a quotient term at k - v meets a only at k and at
    k - delta, so each chain k, k - delta, ... of a is walked top down, each
    step forcing one quotient term, and the division is exact iff the
    residual at the chain's lowest key of a vanishes.  A key k lies on the
    chain of k - j delta, j = floor(k_i / delta_i) for the slot i of delta
    of largest magnitude: that representative's slots stay within twice
    the operands' bounds, guarded as ``series_exact_div`` guards them, and
    a chain takes at most 2 a._bound / |delta_i| steps inside the slot box
    of a.  The quotient's slots are within a._bound + b._bound.
    """
    if len(b._packed) == 1:
        return series_exact_div(a, b)
    if not a._packed:
        return LaurentSeries()
    (u, cu), (v, cv) = b._packed.items()
    if u > v:
        (u, cu), (v, cv) = (v, cv), (u, cu)
    bound = a._bound + b._bound
    if 2 * bound > _LIMIT:
        bound = _tight_bound(a) + _tight_bound(b)
    _guard(2 * bound)
    delta = v - u
    di, lift, shift = _chain_slot(delta, a._nd[0] + a._nd[1] + 1)
    chains: dict[int, list[int]] = {}  # representative -> [lowest j, highest j] of a's keys
    for k in a._packed:
        j = ((((k + lift) >> shift) & _MASK) - _HALF) // di
        rep = k - j * delta
        ends = chains.get(rep)
        if ends is None:
            chains[rep] = [j, j]
        elif j < ends[0]:
            ends[0] = j
        elif j > ends[1]:
            ends[1] = j
    get, inv, quot = a._packed.get, 1 if cv == 1 else _inverse_coeff(cv), {}
    for rep, (low, high) in chains.items():
        k, carry = rep + high * delta, 0
        for _ in range(high - low):
            r = get(k, 0) - carry
            if r:
                q = r * inv
                if type(q) is Fraction:
                    q = _norm_coeff(q)
                quot[k - v] = q
                carry = cu * q
            else:
                carry = 0
            k -= delta
        if get(k) != carry:
            return None
    return LaurentSeries._make(quot, None, a._nd, bound)


@lru_cache(maxsize=256)
def _chain_slot(delta: int, count: int) -> tuple[int, int, int]:
    """``(delta_i, lift, shift)`` for the slot i of the key delta with the
    largest magnitude: slot i of a key k is ``(((k + lift) >> shift) &
    _MASK) - _HALF``.  One entry per binomial a pull-back divides by."""
    slots = _unpack(delta, count)
    i = max(range(count), key=lambda s: abs(slots[s]))
    return slots[i], _pack([_HALF] * (count - i)), _SLOT * (count - 1 - i)


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
