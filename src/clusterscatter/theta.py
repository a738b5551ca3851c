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
theta --trace``) returns the lines whole.  The search holds points as
reduced integer homogeneous coordinates, and each of its steps walks the
counterclockwise fan from the segment's start to the first ray it misses.
What it reads of a diagram at one order (the ray fan with the bend terms
of each power F^e it meets, expanded from the ray's atoms, and the table of
shifts reachable from the origin) is built once, on first use, and kept on
the diagram for every later call at that order, next to the diagram's frame.
"""

from __future__ import annotations

import heapq
from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add

from .cluster_core import (
    RationalFunction,
    _chamber_walk,
    _pull_back,
    _transport,
    initial_seed,
)
from .monoid_ring import Exponent, LaurentSeries
from .scattering import ScatteringDiagram, _angle_key, _cross, _function

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
    ``power(e)`` returns the bending terms (coeff, t, m, coefficient degree)
    of F^e mod degree ``order``, those with t != 0 in exponent order: the
    atoms with c scaled by e, expanded, each e once (``powers``).  ``walks``
    is the fan as seen from this ray (``_SearchContext.walks``)."""

    __slots__ = ("ray", "atoms", "order", "powers", "walks")

    def __init__(self, ray, atoms, order: int):
        self.ray = ray
        self.atoms = atoms
        self.order = order
        self.powers: dict[int, tuple] = {}

    def power(self, e: int) -> tuple:
        got = self.powers.get(e)
        if got is None:
            f = _function([(t, m, c * e) for t, m, c in self.atoms], self.order)
            got = self.powers[e] = tuple((c, x.t, x.m, sum(x.t)) for x, c in sorted(f.terms.items()) if any(x.t))
        return got


def _reachable_shifts(rays: list[_RayData], budget: int) -> dict[tuple, int]:
    """Minimal coefficient degree needed to reach each shift from the origin
    by adding wall exponents; bends spend from these sums.  Reaching p from
    p0 costs the same as reaching p - p0 from the origin."""
    types = sorted({(d, m) for rd in rays for _, _, m, d in rd.power(1)})
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
    as bends need them), counterclockwise as ``ring`` and in tuple order as
    ``rays``, and ``reach``, the reach table with its shifts in sorted
    order, built with the context.  Every bend raises the coefficient degree,
    since ``ScatteringDiagram`` checks that each wall factor has degree >= 1."""

    __slots__ = ("order", "ring", "rays", "reach")

    def __init__(self, D: ScatteringDiagram, order: int):
        self.order = order
        self.ring = [_RayData(ray, atoms, order) for ray, atoms in D.fan]
        self.rays = sorted(self.ring, key=lambda rd: rd.ray)
        for i, rd in enumerate(self.ring):
            rd.walks = self.walks(i - 1, i + 1)
        table = _reachable_shifts(self.rays, order - 1)
        self.reach = (table, sorted(table))

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
    and its segments in the initial coefficient basis.

    ``theta`` runs the same search with ``_finals=True`` and gets back only
    each line's final term (c, t, m), t in the seed's own coefficient basis,
    in search order: no line is built.  Degrees are measured in the diagram
    seed's own coefficient basis.  Raises ValueError if Q lies on a wall and
    GenericityError when some segment runs through the origin or along a
    wall line.
    """
    ctx = _search_context(D, order)
    p0 = _exponent(p0)
    Q = (Fraction(Q[0]), Fraction(Q[1]))
    if _finals:
        finals: list[tuple] = []
        d = sum(D.seed.coeff_orders)
        _search(ctx, p0, Q, lambda trail: finals.append(_final(p0, trail, d)))
        return tuple(finals)
    frame = D.frame
    lines: list[BrokenLine] = []
    _search(ctx, p0, Q, lambda trail: lines.append(_assemble(Q, p0, trail, frame)))
    key = lambda bl: (sum(bl.final[1]), bl.final[2], bl.final[1], bl.bends)
    return tuple(sorted(lines, key=key))


def _exponent(p0) -> tuple[int, int]:
    p0 = tuple(int(x) for x in p0)
    if len(p0) != 2:
        raise ValueError("exponent must have length 2")
    return p0


def _search(ctx: _SearchContext, p0: tuple[int, int], Q: Point, emit) -> None:
    """The broken-line search for p0 ending at Q: ``emit(trail)`` runs on
    every completed line, whose trail lists its bends from Q backward as
    (point, ray, coeff, t, m) with t in the seed's own basis.

    The search holds each point as reduced integer homogeneous coordinates
    (X0, X1, w) with w > 0; a segment from x along p meets a ray r at
    x + s*p = u*r with s = a/(w*c), a = cross(x, r) and c = cross(r, p)
    signed by cross(x, p) both > 0; c is also the bend exponent |<n, p>|
    for the ray's primitive normal n = +-(r_1, -r_0).  Such rays lie in the
    arc (under a half-turn) swept from x toward p, met in fan order, so a
    step walks the ring that way from x's place (Q's gap, or the ray x bent
    on) to the first ray it misses.  Every degenerate incidence has
    cross(x, p) == 0: such a step checks the rays in tuple order and
    crosses none.  The ray fan and reach table are built once per (D,
    order) and kept on D (see ``_search_context``); the reach table holds
    shifts from the origin.
    """
    if Q == (Fraction(0), Fraction(0)):
        raise ValueError("endpoint must be nonzero")
    rays = ctx.rays
    w = lcm(Q[0].denominator, Q[1].denominator)
    x = (int(Q[0] * w), int(Q[1] * w), w)  # _cross and _dot read only (X0, X1)
    for rd in rays:
        if _cross(rd.ray, x) == 0 and _dot(rd.ray, x) > 0:
            raise _EndpointOnWall(f"endpoint {Q} lies on the wall ray {rd.ray}")
    budget = ctx.order - 1
    reach, shifts = ctx.reach
    q0, q1 = p0

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
            Y0, Y1, v = X0 * c + a * a0, X1 * c + a * a1, w * c
            g = gcd(Y0, Y1, v)
            pt = (Y0 // g, Y1 // g, v // g)
            for coeff, t, m, dq in rd.power(c):
                nu = used + dq
                prev = (a0 - m[0], a1 - m[1])
                need = reach.get((prev[0] - q0, prev[1] - q1))
                if need is None or nu + need > budget:
                    continue
                trail.append((pt, rd.ray, coeff, t, m))
                descend(pt, prev, nu, trail, rd.walks)
                trail.pop()

    # The DFS runs backward from Q, so it must be seeded with each candidate
    # final exponent: p0 shifted by any reachable sum of wall exponents.
    j = bisect(ctx.ring, _angle_key(x), key=lambda rd: _angle_key(rd.ray))  # Q lies on no ray
    start = ctx.walks(j - 1, j)
    for delta in shifts:
        descend(x, _vadd(p0, delta), 0, [], start)


def _assemble(Q: Point, p0, trail, frame) -> BrokenLine:
    c, t, m = 1, (0,) * sum(frame.seed.coeff_orders), tuple(p0)
    segments = [(c, t, m)]
    bends = []
    for (X0, X1, w), ray, cq, tq, mq in reversed(trail):
        c *= cq
        t = _vadd(t, tq)
        m = _vadd(m, mq)
        segments.append((c, t, m))
        bends.append(((Fraction(X0, w), Fraction(X1, w)), ray))
    segments = [(c, frame.to_old(t), m) for c, t, m in segments]
    return BrokenLine(Q, tuple(segments), tuple(bends))


def _final(p0: tuple[int, int], trail, d: int) -> tuple:
    """The final term (c, t, m) of a trail's line, t in the seed's own
    coefficient basis (of rank d): c, t and m - p0 are the product and sums
    of the bends' terms."""
    c, t, m = 1, (0,) * d, p0
    for _, _, cq, tq, mq in trail:
        c *= cq
        t = tuple(map(add, t, tq))
        m = (m[0] + mq[0], m[1] + mq[1])
    return c, t, m


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


def _series(D: ScatteringDiagram, order: int, finals) -> LaurentSeries:
    """The sum of final terms (c, t, m), t in the initial basis."""
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
    each line's final term and no ``BrokenLine``; the terms are summed by
    key in the seed's own coefficient basis and each distinct key is mapped
    to the initial basis once.  The lines themselves come from
    ``enumerate_broken_lines`` (and ``clusterscatter theta --trace``).

    With no endpoint given, Q is drawn deterministically from q_seed inside
    the all-positive quadrant, redrawing on genericity failures; running out
    of redraws raises GenericityError.
    """
    ctx = _search_context(D, order)
    p0 = _exponent(p0)
    if not any(p0):
        return LaurentSeries.monomial(p0, (0,) * sum(D.seed.coeff_orders), 1, ctx.order)
    finals, _ = _at_endpoint(
        lambda Q: enumerate_broken_lines(D, p0, Q, ctx.order, _finals=True), Q, q_seed
    )
    sums: dict[tuple, int] = {}
    for c, t, m in finals:
        sums[m, t] = sums.get((m, t), 0) + c
    to_old = D.frame.to_old
    return _series(D, ctx.order, ((c, to_old(t), m) for (m, t), c in sums.items()))


def _theta_lines(D: ScatteringDiagram, p0, order=None, Q=None, q_seed=0):
    """``theta`` through whole broken lines (``clusterscatter theta
    --trace``): the series, the lines summed into it and their endpoint;
    p0 = 0 has no lines and no endpoint."""
    ctx = _search_context(D, order)
    p0 = _exponent(p0)
    if not any(p0):
        return theta(D, p0, order), (), None
    lines, Q = _at_endpoint(lambda Q: enumerate_broken_lines(D, p0, Q, ctx.order), Q, q_seed)
    return _series(D, ctx.order, (bl.final for bl in lines)), lines, Q


_TRANSPORT_DEPTH = 8


def theta_via_transport(D: ScatteringDiagram, p0) -> RationalFunction:
    """Exact theta function of an exponent lying in some cluster chamber,
    computed by transporting the bare monomial to the positive chamber
    across the chamber facets.

    The chamber walk is principal, then evaluated at the seed's coefficients.
    The monomial is pulled back one facet at a time as the chart variables
    are (``cluster_core._pull_back``): each crossing divides only the terms
    of negative level.  Raises ValueError when no chamber within
    ``_TRANSPORT_DEPTH`` mutations contains p0.  Agrees with ``theta`` order
    by order on consistent diagrams.
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
    terms: dict[Exponent, int] = {}
    for e, c in x.terms.items():
        e2 = Exponent(e.m, D.frame.to_old(e.t))
        terms[e2] = terms.get(e2, 0) + c
    return RationalFunction(LaurentSeries(terms, x.order))
