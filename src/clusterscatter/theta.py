"""Broken lines and theta functions for rank-2 consistent diagrams.

A broken line for an exponent p0 with endpoint Q is a piecewise straight
path coming in from infinity carrying the monomial z^p0, travelling with
velocity -m for its current exponent m, and optionally bending where it
crosses a wall: at a crossing the carried term is replaced by one term of
(carried term) * F^e, where F is the full wall function on the crossed ray
and e = |<n, m>| for the acting normal n.  Theta functions sum the final
terms of all broken lines, and for exponents inside a cluster chamber they
agree with the transport of the bare monomial to the positive chamber.
The search holds points as reduced integer homogeneous coordinates and
exposes them as ``Fraction`` points.  What it reads of a diagram at one
order (the seed frame, the ray fan with every power of its wall functions,
and the table of shifts reachable from the origin) is built once, on first
use, and kept on the diagram for every later call at that order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm

from .cluster_core import (
    ClusterMap,
    RationalFunction,
    TropMap,
    _chamber_walk,
    _exchange_factor,
    g_frame_mutate,
    initial_g_frame,
    initial_seed,
    rational,
    rf_monomial,
    seed_mutate,
)
from .monoid_ring import Exponent, LaurentSeries
from .scattering import ScatteringDiagram, _cross, _fan, _fresh_walls, seed_frame

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
    """One ray of the fan with its acting normal and merged wall function F,
    in the diagram seed's own coefficient basis.  ``powers[e]`` holds F^e and
    its bending terms (coeff, t, m, coefficient degree), those with t != 0 in
    exponent order, each computed once."""

    __slots__ = ("ray", "acting", "function", "powers")

    def __init__(self, ray, acting, function: LaurentSeries):
        self.ray = ray
        self.acting = acting
        self.function = function
        self.powers: dict[int, tuple[LaurentSeries, tuple]] = {}

    def power(self, e: int) -> tuple[LaurentSeries, tuple]:
        got = self.powers.get(e)
        if got is None:
            f = self.function if e == 1 else self.function * self.power(e - 1)[0]
            bends = tuple((c, x.t, x.m, sum(x.t)) for x, c in sorted(f.terms.items()) if any(x.t))
            got = self.powers[e] = (f, bends)
        return got


def _reachable_shifts(rays: list[_RayData], budget: int) -> dict[tuple, int]:
    """Minimal coefficient degree needed to reach each shift from the origin
    by adding wall exponents; bends spend from these sums.  Reaching p from
    p0 costs the same as reaching p - p0 from the origin."""
    types = set()
    for rd in rays:
        for _, _, m, d in rd.power(1)[1]:
            if d < 1:
                raise ValueError("wall factors must carry positive coefficient degree")
            types.add((d, m))
    types = sorted(types)
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
    seed frame, the ray fan (whose ``powers`` memos fill as bends need them)
    and the reach table with its shifts in sorted order."""

    __slots__ = ("order", "frame", "rays", "_reach")

    def __init__(self, D: ScatteringDiagram, order: int):
        self.order = order
        self.frame = seed_frame(D.seed)
        walls = _fresh_walls(D.walls, self.frame)
        self.rays = [_RayData(*ray) for ray in sorted(_fan(walls, order, {}))]
        self._reach = None

    def reach(self) -> tuple[dict[tuple, int], list[tuple]]:
        # built on first use, so that the endpoint check raises before the
        # degree check of _reachable_shifts
        if self._reach is None:
            table = _reachable_shifts(self.rays, self.order - 1)
            self._reach = (table, sorted(table))
        return self._reach


def _search_context(D: ScatteringDiagram, order: int | None) -> _SearchContext:
    """The search context of D at ``order`` (default D.order), built on the
    first call and kept on the diagram."""
    if order is None:
        order = D.order
    if order < 1 or order > D.order:
        raise ValueError(f"order must lie in 1..{D.order}")
    ctx = D._search.get(order)
    if ctx is None:
        if D.n != 2:
            raise ValueError("broken lines are implemented for rank 2")
        ctx = D._search[order] = _SearchContext(D, order)
    return ctx


def enumerate_broken_lines(
    D: ScatteringDiagram,
    p0,
    Q,
    order: int | None = None,
) -> tuple[BrokenLine, ...]:
    """All broken lines for exponent p0 ending at Q, with final coefficient
    degree below ``order``.

    Degrees are measured in the diagram seed's own coefficient basis.  Raises
    ValueError if Q lies on a wall and GenericityError when some segment runs
    through the origin or along a wall line.  The search holds each point as
    reduced integer homogeneous coordinates (X0, X1, w) with w > 0; a segment
    from x along p meets a ray r at x + s*p = u*r with s = a/(w*c) for ints a
    and c > 0, so every incidence test is an int sign test.  The lines carry
    ``Fraction`` points.

    The seed frame, the ray fan with its powers and the reach table are
    built once per (D, order) and kept on D (see ``_search_context``); the
    reach table holds shifts from the origin, one table for every p0.
    """
    ctx = _search_context(D, order)
    p0 = tuple(int(x) for x in p0)
    if len(p0) != 2:
        raise ValueError("exponent must have length 2")
    Q = (Fraction(Q[0]), Fraction(Q[1]))
    if Q == (Fraction(0), Fraction(0)):
        raise ValueError("endpoint must be nonzero")
    frame, rays = ctx.frame, ctx.rays
    w = lcm(Q[0].denominator, Q[1].denominator)
    x = (int(Q[0] * w), int(Q[1] * w), w)  # _cross and _dot read only (X0, X1)
    for rd in rays:
        if _cross(rd.ray, x) == 0 and _dot(rd.ray, x) > 0:
            raise _EndpointOnWall(f"endpoint {Q} lies on the wall ray {rd.ray}")
    budget = ctx.order - 1
    reach, shifts = ctx.reach()
    q0, q1 = p0
    lines: list[BrokenLine] = []

    def descend(x: tuple[int, int, int], p: tuple, used: int, trail: list) -> None:
        if p == p0:
            if _cross(x, p) == 0 and _dot(x, p) < 0:
                raise GenericityError("initial segment passes through the origin")
            for rd in rays:
                if _cross(rd.ray, p) == 0 and _cross(rd.ray, x) == 0:
                    raise GenericityError(f"initial segment runs along the ray {rd.ray}")
            lines.append(_assemble(Q, p0, trail, frame))
            return
        (X0, X1, w), (a0, a1) = x, p
        k = X1 * a0 - X0 * a1
        hits = []
        for rd in rays:
            r0, r1 = rd.ray
            c, a = a0 * r1 - a1 * r0, X1 * r0 - X0 * r1
            if c == 0:
                if a == 0:
                    raise GenericityError(f"segment runs along the ray {rd.ray}")
                continue
            a, c, u = (a, c, k) if c > 0 else (-a, -c, -k)
            if a <= 0 or u < 0:
                continue
            if u == 0:
                raise GenericityError("segment passes through the origin")
            hits.append((a, c, rd))
        # no two hits share s: distinct primitive rays meet only at the origin, where u == 0 raised
        hits.sort(key=cmp_to_key(lambda h, g: h[0] * g[1] - g[0] * h[1]))
        for a, c, rd in hits:
            e = abs(rd.acting[0] * a0 + rd.acting[1] * a1)
            assert e >= 1
            Y0, Y1, v = X0 * c + a * a0, X1 * c + a * a1, w * c
            g = gcd(Y0, Y1, v)
            pt = (Y0 // g, Y1 // g, v // g)
            for coeff, t, m, dq in rd.power(e)[1]:
                nu = used + dq
                prev = (a0 - m[0], a1 - m[1])
                need = reach.get((prev[0] - q0, prev[1] - q1))
                if need is None or nu + need > budget:
                    continue
                trail.append((pt, rd.ray, coeff, t, m))
                descend(pt, prev, nu, trail)
                trail.pop()

    # The DFS runs backward from Q, so it must be seeded with each candidate
    # final exponent: p0 shifted by any reachable sum of wall exponents.
    for delta in shifts:
        descend(x, _vadd(p0, delta), 0, [])
    key = lambda bl: (sum(bl.final[1]), bl.final[2], bl.final[1], bl.bends)
    return tuple(sorted(lines, key=key))


def _assemble(Q: Point, p0, trail, frame) -> BrokenLine:
    c, t, m = 1, (0,) * frame.seed.coeff_lattice.d, tuple(p0)
    segments = [(c, t, m)]
    bends = []
    deg = 0
    for (X0, X1, w), ray, cq, tq, mq in reversed(trail):
        c *= cq
        t = _vadd(t, tq)
        m = _vadd(m, mq)
        nd = sum(t)
        assert nd > deg, "bend must raise the coefficient degree"
        deg = nd
        segments.append((c, t, m))
        bends.append(((Fraction(X0, w), Fraction(X1, w)), ray))
    segments = [(c, frame.to_old(t), m) for c, t, m in segments]
    return BrokenLine(Q, tuple(segments), tuple(bends))


def _endpoint_draw(q_seed: int, attempt: int) -> Point:
    h = (1103515245 * (q_seed * 65537 + attempt * 1013 + 12345) + 54321) % (1 << 31)
    a = 1 + h % 911
    b = 1 + (h >> 11) % 877
    return (Fraction(a, 641), Fraction(b, 643))


def theta(
    D: ScatteringDiagram,
    p0,
    order: int | None = None,
    Q: Point | None = None,
    q_seed: int = 0,
) -> LaurentSeries:
    """Theta function of p0 presented at the chamber of Q, as a series mod
    coefficient degree ``order``.

    With no endpoint given, Q is drawn deterministically from q_seed inside
    the all-positive quadrant, redrawing on genericity failures; running out
    of redraws raises GenericityError.
    """
    return _theta_lines(D, p0, order, Q, q_seed)[0]


_REDRAWS = 40


def _theta_lines(D: ScatteringDiagram, p0, order=None, Q=None, q_seed=0):
    """``theta`` together with the broken lines summed into it and their
    endpoint; p0 = 0 has no lines and no endpoint."""
    ctx = _search_context(D, order)
    order = ctx.order
    p0 = tuple(int(x) for x in p0)
    if len(p0) != D.n:
        raise ValueError(f"exponent must have length {D.n}")
    if not any(p0):
        return LaurentSeries.monomial(p0, (0,) * D.seed.coeff_lattice.d, 1, order), (), None
    if Q is not None:
        lines = enumerate_broken_lines(D, p0, Q, order)
    else:
        lines = None
        for attempt in range(_REDRAWS):
            Q = _endpoint_draw(q_seed, attempt)
            try:
                lines = enumerate_broken_lines(D, p0, Q, order)
                break
            except (GenericityError, _EndpointOnWall) as err:
                last = err
        if lines is None:
            raise GenericityError(f"no generic endpoint in {_REDRAWS} draws; last: {last}")
    terms: dict[Exponent, int] = {}
    for bl in lines:
        c, t, m = bl.final
        e = Exponent(m, t)
        terms[e] = terms.get(e, 0) + c
    return LaurentSeries(terms, order if ctx.frame.is_identity else None), lines, Q


def theta_via_transport(D: ScatteringDiagram, p0, depth: int = 8) -> RationalFunction:
    """Exact theta function of an exponent lying in some cluster chamber,
    computed by transporting the bare monomial to the positive chamber
    across the chamber facets.

    The chamber walk is principal, then evaluated at the seed's coefficients.
    Raises ValueError when no chamber within ``depth`` mutations contains
    p0.  Agrees with ``theta`` order by order on consistent diagrams.
    """
    s = D.seed
    if s.word:
        raise ValueError("transport starts from the base seed")
    data = s.data
    n = data.n
    p0 = tuple(int(x) for x in p0)
    if len(p0) != n:
        raise ValueError(f"exponent must have length {n}")
    word = next(
        (w for w, _, G in _chamber_walk(data, depth) if all(_dot(g, p0) >= 0 for g in G.gstar)),
        None,
    )
    if word is None:
        raise ValueError(f"no cluster chamber contains {p0} within depth {depth}")
    # replay the word, crossing one chamber facet per step
    sd = initial_seed(data, with_cluster=False, semifield=True)
    d = sd.coeff_lattice.d
    G = initial_g_frame(data)
    steps = []
    for k in word:
        eps = G.epsilon(k)
        w = tuple(eps * a for a in G.w(k))
        f = _exchange_factor([p**eps for p in sd.coeffs[k - 1]], w, n, d)
        normal = tuple(eps * a for a in G.gstar[k - 1])
        G = g_frame_mutate(G, sd, k)
        sd = seed_mutate(sd, k)
        sgn = _dot(normal, tuple(sum(col) for col in zip(*G.g)))
        if sgn == 0:
            raise AssertionError("chamber interior landed on its own facet")
        steps.append(ClusterMap(n, d, f, normal, 1 if sgn > 0 else -1))
    x = rf_monomial(n, d, p0)
    for step in reversed(steps):
        x = step.apply(x)
    lam = TropMap(data.lattice, s.coeff_lattice, tuple(p for tup in s.coeffs for p in tup))
    return rational(lam.on_series(x.num), lam.on_series(x.den))
