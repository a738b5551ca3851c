"""Broken lines and theta functions for rank-2 consistent diagrams.

A broken line for an exponent p0 with endpoint Q is a piecewise straight
path coming in from infinity carrying the monomial z^p0, travelling with
velocity -m for its current exponent m, and optionally bending where it
crosses a wall: at a crossing the carried term is replaced by one term of
(carried term) * F^e, where F is the full wall function on the crossed ray
and e = |<n, m>| for the acting normal n.  Theta functions sum the final
terms of all broken lines, and for exponents inside a cluster chamber they
agree with the transport of the bare monomial to the positive chamber.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

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


def _vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


class _RayData:
    """One ray of the fan with its acting normal and merged wall function, in
    the diagram seed's own coefficient basis; powers are kept as computed."""

    __slots__ = ("ray", "acting", "function", "powers")

    def __init__(self, ray, acting, function: LaurentSeries):
        self.ray = ray
        self.acting = acting
        self.function = function
        self.powers: dict[int, LaurentSeries] = {1: function}

    def power(self, e: int) -> LaurentSeries:
        got = self.powers.get(e)
        if got is None:
            got = self.function * self.power(e - 1)
            self.powers[e] = got
        return got


def _reachable_shifts(rays: list[_RayData], budget: int, n: int) -> dict[tuple, int]:
    """Minimal coefficient degree needed to realize each achievable sum of
    wall exponents; bends spend from these sums."""
    types = set()
    for rd in rays:
        for e in rd.function.terms:
            d = sum(e.t)
            if not any(e.t):
                continue
            if d < 1:
                raise ValueError("wall factors must carry positive coefficient degree")
            types.add((d, e.m))
    types = sorted(types)
    zero = (0,) * n
    best: dict[tuple, int] = {zero: 0}
    heap: list[tuple[int, tuple]] = [(0, zero)]
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
    through the origin or along a wall line.
    """
    if D.seed is None:
        raise ValueError("broken lines need the diagram's seed")
    if order is None:
        order = D.order
    if order < 1 or order > D.order:
        raise ValueError(f"order must lie in 1..{D.order}")
    n = D.n
    if n != 2:
        raise ValueError("broken lines are implemented for rank 2")
    p0 = tuple(int(x) for x in p0)
    if len(p0) != n:
        raise ValueError(f"exponent must have length {n}")
    Q = (Fraction(Q[0]), Fraction(Q[1]))
    if Q == (Fraction(0), Fraction(0)):
        raise ValueError("endpoint must be nonzero")
    frame = seed_frame(D.seed)
    walls = _fresh_walls(D.walls, frame)
    rays = [_RayData(*ray) for ray in sorted(_fan(walls, order, {}))]
    for rd in rays:
        if _cross(rd.ray, Q) == 0 and _dot(rd.ray, Q) > 0:
            raise _EndpointOnWall(f"endpoint {Q} lies on the wall ray {rd.ray}")
    budget = order - 1
    reach = _reachable_shifts(rays, budget, n)
    lines: list[BrokenLine] = []

    def descend(x: Point, p: tuple, used: int, trail: list) -> None:
        if p == p0:
            if _cross(x, p) == 0 and _dot(x, p) < 0:
                raise GenericityError("initial segment passes through the origin")
            for rd in rays:
                if _cross(rd.ray, p) == 0 and _cross(rd.ray, x) == 0:
                    raise GenericityError(f"initial segment runs along the ray {rd.ray}")
            lines.append(_assemble(Q, p0, trail, frame))
            return
        hits: list[tuple[Fraction, int]] = []
        for i, rd in enumerate(rays):
            cp = _cross(p, rd.ray)
            if cp == 0:
                if _cross(rd.ray, x) == 0:
                    raise GenericityError(f"segment runs along the ray {rd.ray}")
                continue
            s = Fraction(-_cross(x, rd.ray), cp)
            if s <= 0:
                continue
            u = Fraction(-_cross(x, p), cp)
            if u < 0:
                continue
            if u == 0:
                raise GenericityError("segment passes through the origin")
            hits.append((s, i))
        hits.sort()
        for j in range(1, len(hits)):
            if hits[j][0] == hits[j - 1][0]:
                raise GenericityError("segment meets two rays at one point")
        for s, i in hits:
            rd = rays[i]
            e = abs(_dot(rd.acting, p))
            assert e >= 1
            pt = (x[0] + s * p[0], x[1] + s * p[1])
            fe = rd.power(e)
            for exp, coeff in sorted(fe.terms.items()):
                if not any(exp.t):
                    continue
                dq = sum(exp.t)
                nu = used + dq
                prev = _vsub(p, exp.m)
                need = reach.get(_vsub(prev, p0))
                if need is None or nu + need > budget:
                    continue
                trail.append((pt, rd.ray, coeff, exp.t, exp.m))
                descend(pt, prev, nu, trail)
                trail.pop()

    # The DFS runs backward from Q, so it must be seeded with each candidate
    # final exponent: p0 shifted by any reachable sum of wall exponents.
    for delta in sorted(reach):
        if reach[delta] <= budget:
            descend(Q, _vadd(p0, delta), 0, [])
    key = lambda bl: (sum(bl.final[1]), bl.final[2], bl.final[1], bl.bends)
    return tuple(sorted(lines, key=key))


def _assemble(Q: Point, p0, trail, frame) -> BrokenLine:
    c, t, m = 1, (0,) * frame.seed.coeff_lattice.d, tuple(p0)
    segments = [(c, t, m)]
    bends = []
    deg = 0
    for pt, ray, cq, tq, mq in reversed(trail):
        c *= cq
        t = _vadd(t, tq)
        m = _vadd(m, mq)
        nd = sum(t)
        assert nd > deg, "bend must raise the coefficient degree"
        deg = nd
        segments.append((c, t, m))
        bends.append((pt, ray))
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
    if D.seed is None:
        raise ValueError("theta needs the diagram's seed")
    if order is None:
        order = D.order
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
    identity = seed_frame(D.seed).is_identity
    return LaurentSeries(terms, order if identity else None), lines, Q


def theta_via_transport(D: ScatteringDiagram, p0, depth: int = 8) -> RationalFunction:
    """Exact theta function of an exponent lying in some cluster chamber,
    computed by transporting the bare monomial to the positive chamber
    across the chamber facets.

    The chamber walk is principal, then evaluated at the seed's coefficients.
    Raises ValueError when no chamber within ``depth`` mutations contains
    p0.  Agrees with ``theta`` order by order on consistent diagrams.
    """
    s = D.seed
    if s is None:
        raise ValueError("transport needs the diagram's seed")
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
