"""Broken lines and theta functions for rank-2 consistent diagrams.

A broken line for an exponent p0 with endpoint Q is a piecewise straight
path coming in from infinity carrying the monomial z^p0, travelling with
velocity -m for its current exponent m, and optionally bending where it
crosses a wall: at a crossing the carried term is replaced by one term of
(carried term) * F^e, where F is the full wall function on the crossed ray
r and e = |<n, m>| for its primitive normal n, that is e = |cross(r, m)|.
Theta functions sum the final terms of all broken lines, and for exponents
inside a cluster chamber they agree with the transport of the bare monomial
to the positive chamber.
One search, run through ``enumerate_broken_lines``, serves both uses:
``theta`` asks it for each line's final term only and sums those, so no
line is built, while ``enumerate_broken_lines`` itself (and ``clusterscatter
theta --trace``) returns the lines whole.  The search does integer work
only, holding points as reduced integer homogeneous coordinates, and each
of its steps walks the counterclockwise fan from the segment's start to
the first ray it misses.  It takes a bend only when the bent segment can
still end a line: the segment carries p0, or it crosses the first ray of
its own walk, so it never bends onto a segment that misses every ray, and
it reduces a bend point only for a bend it takes.  It branches once per
group of the bend terms of F^e that share m and degree, as they share all
below the bend.  Each term carries its monomial packed by ``_key``, in the
initial coefficient basis: a line's final term is the product of its bend
coefficients on the monomial whose key is z^p0's plus the sum of its bend
keys, so ``theta`` sums ints.  What the search reads of a diagram at one
order (the ray fan with the bend terms of each power F^e it meets, expanded
from the ray's atoms, and the table of shifts reachable from the origin) is
built once, on first use, and kept on the diagram for every later call at
that order, next to the diagram's frame.
"""

from __future__ import annotations

import heapq
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from .cluster_core import (
    RationalFunction,
    _as_ints,
    _chamber_walk,
    _pull_back,
    _transport,
    initial_seed,
)
from .monoid_ring import _LIMIT, Exponent, LaurentSeries, _guard, _key, _unpack
from .scattering import ScatteringDiagram, _angle_key, _cross, _function, _grading_data

__all__ = [
    "BrokenLine",
    "GenericityError",
    "enumerate_broken_lines",
    "theta",
    "theta_via_transport",
]


class GenericityError(RuntimeError):
    """The endpoint leads to a degenerate incidence (a segment through the
    origin or along a wall); the computation needs a different endpoint."""


class _EndpointOnWall(ValueError):
    pass


Point = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class BrokenLine:
    """One broken line: segments carry (coeff, t, m) from the incoming end
    to the endpoint, bends record (point, crossed ray) between them."""

    endpoint: Point
    segments: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]
    bends: tuple[tuple[Point, tuple[int, ...]], ...]

    def __post_init__(self):
        if len(self.bends) != len(self.segments) - 1:
            raise ValueError("bend count must be one less than segment count")
        c0, t0, _ = self.segments[0]
        if c0 != 1 or any(t0):
            raise ValueError("a broken line starts with a bare monomial")

    @property
    def final(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        return self.segments[-1]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


class _RayData:
    """One ray of the fan with the atoms (t, m, c) of its merged wall
    function F, in the diagram seed's own coefficient basis.
    ``power(e)`` returns the bending terms of F^e mod degree ``order``,
    those with t != 0, as groups (m, coefficient degree, rows) in the order
    of their first rows, each e once (``powers``): the atoms with c scaled
    by e, expanded.  A row is (coeff, t, key, index in exponent order); the
    key is the term's monomial packed as a series key, its t mapped by
    ``to_old`` (the seed's basis into the initial one; the identity by
    default).  ``walks`` is the fan as seen from this ray
    (``_SearchContext.walks``) and ``heads`` the first ray of each walk
    that a segment leaving this ray can cross (``_SearchContext``)."""

    __slots__ = ("ray", "atoms", "order", "to_old", "powers", "walks", "heads")

    def __init__(self, ray, atoms, order: int, to_old=tuple):
        self.ray = ray
        self.atoms = atoms
        self.order = order
        self.to_old = to_old
        self.powers: dict[int, tuple] = {}

    def power(self, e: int) -> tuple:
        got = self.powers.get(e)
        if got is None:
            f = _function([(t, m, c * e) for t, m, c in self.atoms], self.order)
            groups: dict[tuple, list] = {}
            for i, (x, c) in enumerate(item for item in sorted(f.terms.items()) if any(item[0].t)):
                groups.setdefault((x.m, sum(x.t)), []).append((c, x.t, _key(x.m, self.to_old(x.t)), i))
            got = self.powers[e] = tuple((m, d, tuple(rows)) for (m, d), rows in groups.items())
        return got


def _reachable_shifts(rays: list[_RayData], budget: int) -> dict[tuple, int]:
    """Minimal coefficient degree needed to reach each shift from the origin
    by adding wall exponents; bends spend from these sums.  Reaching p from
    p0 costs the same as reaching p - p0 from the origin."""
    types = sorted({(d, m) for rd in rays for m, d, _ in rd.power(1)})
    best: dict[tuple, int] = {(0, 0): 0}
    heap: list[tuple[int, tuple]] = [(0, (0, 0))]
    while heap:
        d, v = heapq.heappop(heap)
        if best.get(v, d + 1) < d:
            continue
        for da, ma in types:
            nd = d + da
            if nd > budget:
                continue
            nv = _vadd(v, ma)
            if nd < best.get(nv, nd + 1):
                best[nv] = nd
                heapq.heappush(heap, (nd, nv))
    return best


class _SearchContext:
    """What the broken-line search reads of one diagram at one order: the
    ray fan in the seed's own coefficient basis (whose ``powers`` memos fill
    as bends need them), counterclockwise as ``ring`` with the rays' angle
    keys as ``keys`` and in tuple order as ``rays``, and ``reach``, the
    reach table in sorted order of its shifts, built with the context.
    Every bend raises the coefficient degree, since ``ScatteringDiagram``
    checks that each wall factor has degree >= 1; the context checks that
    each grades into the positive cone, raising ``InvariantViolation`` as
    crossings and JSON do.

    A segment that leaves the ray r at a point u*r (u > 0) with exponent p
    walks the ring from r counterclockwise when cross(r, p) > 0 and
    clockwise when it is < 0; its first test is cross(x, r') > 0 for the
    first ray r' of that walk, with x = +-u*r signed by the walk, so it
    depends on r alone.  ``heads`` holds, by the walk's direction, r' when
    that test passes and None when it fails.  ``bound`` bounds every slot of
    the sum of the bend keys along a line, as ``_Factor.bound`` does a
    crossing's: a line's bends multiply at most order - 1 atom monomials,
    since each has degree >= 1."""

    __slots__ = ("order", "ring", "keys", "rays", "reach", "bound")

    def __init__(self, D: ScatteringDiagram, order: int):
        for _, atoms in D.fan:  # the grading cone, as crossings and JSON check it
            for a, _, _ in atoms:
                _grading_data(D.frame, a)
        self.order = order
        to_old = D.frame.to_old
        self.ring = [_RayData(ray, atoms, order, to_old) for ray, atoms in D.fan]
        self.keys = [_angle_key(rd.ray) for rd in self.ring]
        self.rays = sorted(self.ring, key=lambda rd: rd.ray)
        for i, rd in enumerate(self.ring):
            rd.walks = cw, ccw = self.walks(i - 1, i + 1)
            rd.heads = (
                cw[0].ray if _cross(rd.ray, cw[0].ray) < 0 else None,
                ccw[0].ray if _cross(rd.ray, ccw[0].ray) > 0 else None,
            )
        self.reach = dict(sorted(_reachable_shifts(self.rays, order - 1).items()))
        slots = (abs(v) for rd in self.ring for t, m, _ in rd.atoms for v in (*m, *to_old(t), sum(to_old(t))))
        self.bound = (order - 1) * max(slots, default=0)

    def walks(self, lo: int, hi: int) -> tuple[list, list]:
        # the ring once round, clockwise from ring[lo] and counterclockwise from ring[hi]
        return self.ring[lo::-1] + self.ring[:lo:-1], self.ring[hi:] + self.ring[:hi]


def _search_context(D: ScatteringDiagram, order: int | None) -> _SearchContext:
    """The search context of D at ``order`` (default D.order), built on the
    first call and kept on the diagram."""
    if order is None:
        order = D.order
    if order < 1 or order > D.order:
        raise ValueError(f"order must lie in 1..{D.order}")
    ctx = D._search.get(order)
    if ctx is None:
        ctx = D._search[order] = _SearchContext(D, order)
    return ctx


def enumerate_broken_lines(
    D: ScatteringDiagram,
    p0,
    Q,
    order: int | None = None,
    *,
    _finals: bool = False,
) -> tuple[BrokenLine, ...]:
    """All broken lines for exponent p0 ending at Q, with final coefficient
    degree below ``order``, each built whole: its ``Fraction`` bend points,
    and its segments in the initial coefficient basis.  Lines tied on
    final degree, m, t and bends share their rays and, up to where they
    first differ from Q, their rows, so their row indices, the last sort
    key, order them as a search per row met them.

    ``theta`` runs the same search with ``_finals=True`` and gets back only
    each line's final term as (c, key) (``_final``), in search order: no
    line is built.  Degrees are measured in the diagram seed's own
    coefficient basis.  Raises ValueError if Q lies on a wall,
    InvariantViolation if a wall atom grades out of the positive cone, and
    GenericityError when some segment runs through the origin or along a
    wall line.
    """
    ctx = _search_context(D, order)
    p0 = _exponent(p0)
    Q = tuple(q if isinstance(q, Fraction) else Fraction(q) for q in (Q[0], Q[1]))
    if _finals:
        finals: list[tuple[int, int]] = []
        _search(ctx, p0, Q, lambda trail: finals.extend(_final(trail)))
        return tuple(finals)
    frame, lines = D.frame, []

    def emit(trail):  # one line per choice of a row in each group, with the rows' indices
        for rows in product(*(bend[3] for bend in trail)):
            path = [(pt, ray, c, t, m) for (pt, ray, m, _), (c, t, _, _) in zip(trail, rows)]
            lines.append((tuple(row[3] for row in rows), _assemble(Q, p0, path, frame)))

    _search(ctx, p0, Q, emit)
    key = lambda line: (sum(line[1].final[1]), line[1].final[2], line[1].final[1], line[1].bends, line[0])
    return tuple(bl for _, bl in sorted(lines, key=key))


def _exponent(p0) -> tuple[int, int]:
    p0 = _as_ints("exponent", p0)
    if len(p0) != 2:
        raise ValueError("exponent must have length 2")
    return p0


def _search(ctx: _SearchContext, p0: tuple[int, int], Q: Point, emit) -> None:
    """The broken-line search for p0 ending at Q: ``emit(trail)`` runs on
    every completed trail, its bends from Q backward as (point, ray, m,
    rows) with the group of bend terms taken (``_RayData.power``), one line
    per choice of a row in each group.  Rows of a group share all below
    the bend, and groups come in the order of their first rows, so the
    first ``GenericityError`` met is the one a search per row meets.

    The search holds each point as reduced integer homogeneous coordinates
    (X0, X1, w) with w > 0, Q's from its numerators and denominators; Q's
    gap is found by bisecting ``ctx.keys``, and Q lies on a ray exactly when
    its angle key equals the one below the gap.  A segment from x along p
    meets a ray r at x + s*p = u*r with s = a/(w*c), a = cross(x, r) and
    c = cross(r, p) signed by cross(x, p) both > 0; c is also the bend
    exponent |<n, p>| for the ray's primitive normal n = +-(r_1, -r_0).
    Such rays lie in the arc (under a half-turn) swept from x toward p, met
    in fan order, so a step walks the ring that way from x's place (Q's
    gap, or the ray x bent on) to the first ray it misses.  Every degenerate
    incidence has cross(x, p) == 0: such a step checks the rays in tuple
    order and crosses none.  The ray fan and reach table are built once per
    (D, order) and kept on D (see ``_search_context``); the reach table
    holds shifts from the origin, and each call shifts it by p0 once.

    A bend is taken only if its new segment, of exponent prev, can still
    end a line: prev is reachable from p0 within the degree left, and
    either prev == p0 (the segment ends the line, or raises on a degenerate
    incidence) or the segment passes the first test of its own walk (see
    ``_SearchContext``).  The walk is read off cross(r, prev), which has the
    sign of cross(pt, prev) since the bend point is u*r with u > 0, so the
    reduced point is built once per crossing, when its first group is taken.
    A segment with cross(r, prev) == 0 is taken too: it lies along the ray
    it leaves, so it raises.  Any other segment would cross no ray and find
    nothing, so skipping it changes no line, no line order and no error.
    """
    (n0, d0), (n1, d1) = Q[0].as_integer_ratio(), Q[1].as_integer_ratio()
    if not n0 and not n1:
        raise ValueError("endpoint must be nonzero")
    rays = ctx.rays
    w = lcm(d0, d1)
    x = (n0 * (w // d0), n1 * (w // d1), w)  # _cross and _dot read only (X0, X1)
    key = _angle_key(x)
    j = bisect(ctx.keys, key)  # Q's gap: ring[j - 1] <= Q < ring[j]
    if j and ctx.keys[j - 1] == key:
        raise _EndpointOnWall(f"endpoint {Q} lies on the wall ray {ctx.ring[j - 1].ray}")
    budget = ctx.order - 1
    q0, q1 = p0
    reach = {(q0 + s0, q1 + s1): need for (s0, s1), need in ctx.reach.items()}

    def descend(x: tuple[int, int, int], p: tuple, used: int, trail: list, walks) -> None:
        (X0, X1, w), (a0, a1) = x, p
        k = X0 * a1 - X1 * a0  # cross(x, p): > 0 sweeps counterclockwise
        if p == p0:
            if k == 0 and _dot(x, p) < 0:
                raise GenericityError("initial segment passes through the origin")
            for rd in rays if k == 0 else ():
                if _cross(rd.ray, x) == 0:
                    raise GenericityError(f"initial segment runs along the ray {rd.ray}")
            emit(trail)
            return
        if k == 0:
            for rd in rays:
                if _cross(rd.ray, x) == 0:
                    raise GenericityError(f"segment runs along the ray {rd.ray}")
                if _dot(x, p) < 0:
                    raise GenericityError("segment passes through the origin")
            return
        sx0, sx1, sp0, sp1 = (X0, X1, a0, a1) if k > 0 else (-X0, -X1, -a0, -a1)
        for rd in walks[k > 0]:
            r0, r1 = rd.ray
            a, c = sx0 * r1 - sx1 * r0, r0 * sp1 - r1 * sp0
            if a <= 0 or c <= 0:
                break
            heads, pt = rd.heads, None
            for m, dq, rows in rd.power(c):
                nu = used + dq
                prev = (b0, b1) = (a0 - m[0], a1 - m[1])
                need = reach.get(prev)
                if need is None or nu + need > budget:
                    continue
                if prev != p0:
                    kk = r0 * b1 - r1 * b0  # cross(r, prev): the walk the segment takes
                    if kk:
                        head = heads[kk > 0]
                        if head is None or (head[0] * b1 - head[1] * b0) * kk <= 0:
                            continue
                if pt is None:
                    Y0, Y1, v = X0 * c + a * a0, X1 * c + a * a1, w * c
                    g = gcd(Y0, Y1, v)
                    pt = (Y0 // g, Y1 // g, v // g)
                trail.append((pt, rd.ray, m, rows))
                descend(pt, prev, nu, trail, rd.walks)
                trail.pop()

    # The DFS runs backward from Q, so it must be seeded with each candidate
    # final exponent: p0 shifted by any reachable sum of wall exponents.
    start = ctx.walks(j - 1, j)
    for p in reach:
        descend(x, p, 0, [], start)


def _assemble(Q: Point, p0, trail, frame) -> BrokenLine:
    c, t, m = 1, (0,) * sum(frame.seed.coeff_orders), tuple(p0)
    segments = [(c, t, m)]
    bends = []
    for (X0, X1, w), ray, cq, tq, mq, *_ in reversed(trail):
        c *= cq
        t = _vadd(t, tq)
        m = _vadd(m, mq)
        segments.append((c, t, m))
        bends.append(((Fraction(X0, w), Fraction(X1, w)), ray))
    segments = [(c, frame.to_old(t), m) for c, t, m in segments]
    return BrokenLine(Q, tuple(segments), tuple(bends))


def _final(trail) -> list[tuple[int, int]]:
    """The final terms of a trail's lines, one row of each bend's group per
    line, as (c, key): c is the product of the line's bend coefficients, and
    key, the sum of its bend keys, is the key of its final monomial less
    that of z^p0, in the initial coefficient basis."""
    finals = [(1, 0)]
    for *_, rows in trail:
        finals = [(c * cq, key + kq) for c, key in finals for cq, _, kq, _ in rows]
    return finals


def _endpoint_draw(q_seed: int, attempt: int) -> Point:
    h = (1103515245 * (q_seed * 65537 + attempt * 1013 + 12345) + 54321) % (1 << 31)
    a = 1 + h % 911
    b = 1 + (h >> 11) % 877
    return (Fraction(a, 641), Fraction(b, 643))


_REDRAWS = 40


def _at_endpoint(search, Q, q_seed: int):
    """``(search(Q), Q)``; with no Q given, at the first of the endpoints
    drawn from q_seed on which the search meets no degenerate incidence.  A
    failed draw discards whatever its search had gathered."""
    if Q is not None:
        return search(Q), Q
    for attempt in range(_REDRAWS):
        Q = _endpoint_draw(q_seed, attempt)
        try:
            return search(Q), Q
        except (GenericityError, _EndpointOnWall) as err:
            last = err
    raise GenericityError(f"no generic endpoint in {_REDRAWS} draws; last: {last}")


def _series(D: ScatteringDiagram, order: int | None, finals) -> LaurentSeries:
    """The sum of terms (c, t, m), t in the initial basis, mod ``order`` in an
    identity frame only: theta's one builder of a series from terms."""
    terms: dict[Exponent, int] = {}
    for c, t, m in finals:
        e = Exponent(m, t)
        terms[e] = terms.get(e, 0) + c
    return LaurentSeries(terms, order if D.frame.is_identity else None)


def theta(
    D: ScatteringDiagram,
    p0,
    order: int | None = None,
    Q: Point | None = None,
    q_seed: int = 0,
) -> LaurentSeries:
    """Theta function of p0 presented at the chamber of Q, as a series mod
    coefficient degree ``order``: the sum of the final terms of the broken
    lines for p0 ending at Q.

    The search (``enumerate_broken_lines`` with ``_finals=True``) hands back
    each line's final term as (c, key), key in the initial basis, and builds
    no ``BrokenLine``; the terms are summed as ints by key, and z^p0's key
    is added once to each distinct key.  The lines themselves come from
    ``enumerate_broken_lines`` (and ``clusterscatter theta --trace``).  A
    summed key's slots stay within the context's a priori ``bound``, so the
    result's slots are re-derived from the keys only when ``bound`` plus
    |p0| passes the slot limit, and ``OverflowError`` comes exactly when a
    term of the result has a slot beyond it.  When ``bound`` itself passes
    the limit, keys could carry between slots, so the built lines are
    summed instead (``_theta_lines``), each term guarded by the series
    constructor; p0 = 0, which has no lines, takes the same route.

    With no endpoint given, Q is drawn deterministically from q_seed inside
    the all-positive quadrant, redrawing on genericity failures; running out
    of redraws raises GenericityError.
    """
    ctx = _search_context(D, order)
    p0 = _exponent(p0)
    if not any(p0) or ctx.bound > _LIMIT:
        return _theta_lines(D, p0, ctx.order, Q, q_seed)[0]
    finals, _ = _at_endpoint(
        lambda Q: enumerate_broken_lines(D, p0, Q, ctx.order, _finals=True), Q, q_seed
    )
    sums: dict[int, int] = {}
    for c, key in finals:
        sums[key] = sums.get(key, 0) + c
    d = sum(D.seed.coeff_orders)
    bound = ctx.bound + max(map(abs, p0))
    if bound > _LIMIT:  # every line has a positive coefficient, so every key is printed
        bound = max(
            max(abs(s[0] + p0[0]), abs(s[1] + p0[1]), *map(abs, s[2:])) for s in (_unpack(k, d + 3) for k in sums)
        )
    z = _key(p0, (0,) * d)
    packed = {key + z: c for key, c in sums.items()}
    return LaurentSeries._make(packed, ctx.order if D.frame.is_identity else None, (2, d), _guard(bound))


def _theta_lines(D: ScatteringDiagram, p0, order=None, Q=None, q_seed=0):
    """``theta`` through whole broken lines (``theta --trace``, and ``theta``
    itself for p0 = 0 or past the slot limit): the series, the lines summed
    into it and their endpoint; p0 = 0 has no lines and no endpoint."""
    ctx = _search_context(D, order)
    p0 = _exponent(p0)
    if not any(p0):
        return _series(D, ctx.order, [(1, (0,) * sum(D.seed.coeff_orders), p0)]), (), None
    lines, Q = _at_endpoint(lambda Q: enumerate_broken_lines(D, p0, Q, ctx.order), Q, q_seed)
    return _series(D, ctx.order, (bl.final for bl in lines)), lines, Q


_TRANSPORT_DEPTH = 8


def theta_via_transport(D: ScatteringDiagram, p0) -> RationalFunction:
    """Exact theta function of an exponent lying in some cluster chamber,
    computed by transporting the bare monomial to the positive chamber
    across the chamber facets.

    The chamber walk is principal, then evaluated at the seed's coefficients.
    The monomial is pulled back one facet at a time as the chart variables
    are (``cluster_core._pull_back``): each crossing keeps the level of
    every term, multiplies a positive level by a power of the facet's
    factor and divides each negative level on its own.  Raises ValueError
    when no chamber within ``_TRANSPORT_DEPTH`` mutations contains p0.
    Agrees with ``theta`` order by order on consistent diagrams.
    """
    s = D.seed
    if s.word:
        raise ValueError("transport starts from the base seed")
    data = s.data
    p0 = _exponent(p0)
    word = next(
        (w for w, _, G in _chamber_walk(data, _TRANSPORT_DEPTH) if all(_dot(g, p0) >= 0 for g in G.gstar)),
        None,
    )
    if word is None:
        raise ValueError(f"no cluster chamber contains {p0} within depth {_TRANSPORT_DEPTH}")
    # replay the word, crossing one chamber facet per step
    steps, _ = _transport(initial_seed(data, with_cluster=False), word, signed=True)
    x = _pull_back(steps, LaurentSeries.monomial(p0, (0,) * sum(data.r)))
    # evaluate the principal coefficients at the seed's; colliding terms add
    return RationalFunction(_series(D, None, ((c, D.frame.to_old(e.t), e.m) for e, c in x.terms.items())))
