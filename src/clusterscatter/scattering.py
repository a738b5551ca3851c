"""Rank-2 scattering diagrams with factored polynomial wall functions.

A wall is a codimension-1 cone together with a function ``prod_a (1 + t_a
z^{m_a})^{c_a}`` whose monomial directions are tangent to the cone.  Crossing a
wall acts on the ambient Laurent ring by ``z^p -> z^p * f^{<n, m(p)>}`` with the
primitive normal ``n`` of the cone oriented toward the side the path comes
from: crossing the ray r counterclockwise, n = (r_1, -r_0).  The module
builds the incoming diagram of a seed, composes crossings along angular paths,
checks consistency of the loop around the origin, completes a rank-2 diagram
order by order, applies the piecewise-linear mutation transform, and collects
the walls spanned by cluster chambers.

A wall in rank 2 sits on a single ray from the origin; the two halves of an
incoming hyperplane are stored as two ray walls carrying the same function.
A diagram keeps its walls in counterclockwise order of their rays, sorted
once when it is built.  It groups them by ray once, too: its ``fan`` holds
one entry per ray, with the atoms of the ray's walls.  Every crossing, the
broken-line search and ``canonical_form`` read the fan; a ray is crossed
factor by factor over its atoms, which is crossing it once with the product
of their functions, so diagrams agree when their merged atoms per ray do.
The walls are what JSON, labels and pictures show.  A wall is its ray and
its function; the grading and acting normals that JSON prints are read off
its atoms' grading in the seed's frame (``_wall_normals``), there alone.
A diagram decides its shape, order and basis once.  Its seed has rank 2 and
each wall sits on one ray of the plane.  Every operation runs at the
diagram's order; ``diagram_truncate`` lowers it.  Its frame (basis rows e_i
and normal covectors w_i = omega(-, (d_i/r_i) e_i)) replays the seed's word
with the g-frame step at sign +1.  Wall monomial exponents are kept in the
coefficient basis of the initial seed, and degrees are counted in the seed's
own coefficient basis, the basis of the fan's atoms: the frame and the fan
are built with the diagram and kept on it.  A seed's frame is replayed
once and shared by every diagram over that seed (``_frame_of``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, hypot, lcm
from typing import Iterable, Sequence

from .cluster_core import (
    InvariantViolation,
    Seed,
    _chamber_walk,
    _frame_step,
    initial_g_frame,
    matrix_mutate,
    seed_key,
    seed_mutate,
    unimodular_inverse_transpose,
)
from .monoid_ring import (
    Exponent,
    LaurentSeries,
    _LIMIT,
    _cross_in_place,
    _Factor,
    _generator_slices,
    _OnlineFan,
    _shifted_slices,
    _unit,
    series_mul,
)
from .semifield import block_range


class PositivityError(InvariantViolation):
    """A wall exponent came out non-positive or non-integral."""


# -- small integer geometry ---------------------------------------------------


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive direction")
    return tuple(x // g for x in v)


def _cross(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _angle_key(v: Sequence[int]):
    """Total order on ray directions by angle from the positive x-axis: the
    half-plane (the upper one with the positive x-axis first), then its axis
    direction before its open half, where -x/y grows with the angle."""
    x, y = v[0], v[1]
    return (y < 0 or (y == 0 and x < 0), y != 0, Fraction(-x, y) if y else 0)


# -- walls and diagrams -------------------------------------------------------


Atom = tuple[tuple[int, ...], tuple[int, ...], int]


def _combine_atoms(factors: Iterable[Atom]) -> tuple[Atom, ...]:
    merged: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for t, m, c in factors:
        key = (tuple(t), tuple(m))
        merged[key] = merged.get(key, 0) + c
    out = []
    for (t, m), c in merged.items():
        if c == 0:
            continue
        if c < 0:
            raise PositivityError(f"wall factor (1 + t^{t} z^{m}) has exponent {c} < 0")
        out.append((t, m, c))
    out.sort()
    return tuple(out)


def _function(atoms: Sequence[Atom], order: int | None) -> LaurentSeries:
    """The product of the factors ``(1 + t z^m)^c`` of nonempty atoms, each
    expanded binomially."""
    t, m, _ = atoms[0]
    out = LaurentSeries.one(len(m), len(t), order)
    for t, m, c in atoms:
        terms = {}
        for q in range(c + 1):
            if order is not None and q * sum(t) >= order:
                break
            terms[Exponent(tuple(q * x for x in m), tuple(q * x for x in t))] = comb(c, q)
        out = series_mul(out, LaurentSeries(terms, order))
    return out


@dataclass(frozen=True)
class Wall:
    """One wall: support ray and factored function.

    ``ray`` is the primitive direction of the plane the wall sits on.
    ``factors`` holds (t, m, c) for ``(1 + t z^m)^c``: ints, at least one,
    c > 0 once equal (t, m) merge, each m along the ray.  The wall's normal
    is +-(r_1, -r_0), fixed by the ray; the grading of its atoms in a seed's
    frame picks the sign that JSON prints (``_wall_normals``).  The diagram
    that holds the wall checks the degree of each t, in its seed's basis.
    """

    ray: tuple[int, int]
    factors: tuple[Atom, ...]
    incoming: bool = False

    def __post_init__(self):
        if len(self.ray) != 2 or not all(isinstance(x, int) for x in self.ray):
            raise ValueError(f"a wall is supported on exactly one ray of the plane, got {self.ray!r}")
        object.__setattr__(self, "ray", _primitive(self.ray))
        factors = tuple(self.factors)
        if not all(isinstance(x, int) for t, m, c in factors for x in (*t, *m, c)):
            raise ValueError(f"wall factor entries must be ints, got {factors!r}")
        object.__setattr__(self, "factors", _combine_atoms(factors))
        if not self.factors:
            raise ValueError("a wall carries at least one factor")
        for _, m, _ in self.factors:
            if len(m) != 2 or _cross(m, self.ray):
                raise InvariantViolation(f"wall monomial {m} not tangent to the wall")

    def function(self, order: int | None = None) -> LaurentSeries:
        """Expanded wall function at the given truncation order."""
        return _function(self.factors, order)


@dataclass(frozen=True)
class ScatteringDiagram:
    """A finite set of walls known modulo coefficient degree > order, over
    the rank-2 group-mode seed whose frame and coefficient basis grade them.
    The walls are stored in counterclockwise order of their rays
    (``_sort_walls``), whatever order they are given in.  Each wall factor's
    t must have one exponent per seed coefficient and degree at least 1 in
    the seed's own basis (ValueError otherwise): every reader trusts a
    diagram once it is made.

    ``fan`` holds the wall rays counterclockwise, each as (ray, factors of
    its walls with t in the seed's own basis): what every crossing, the
    broken-line search and ``canonical_form`` read.  A crossing of a ray
    acts by the ray's oriented normal, whichever wall a factor came from, so
    crossing the ray once with all their factors is crossing its walls one
    at a time.  ``frame`` and ``fan`` are built with the diagram, ``_search``
    (the broken-line search context of ``theta`` by order) on first use.
    They are functions of the frozen walls, order and seed, so equality,
    hashing, ``repr`` and ``dataclasses.replace`` ignore them."""

    walls: tuple[Wall, ...]
    order: int
    seed: Seed
    frame: SeedFrame = field(init=False, compare=False, hash=False, repr=False)
    fan: tuple = field(init=False, compare=False, hash=False, repr=False)
    _search: dict = field(default_factory=dict, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "walls", _sort_walls(self.walls))
        if self.order < 1:
            raise ValueError("diagram order must be at least 1")
        if self.order + 1 > _LIMIT:
            raise ValueError(
                f"diagram order {self.order} is too large: order + 1 must fit a packed slot (at most {_LIMIT})"
            )
        if self.seed.semifield:
            raise ValueError("scattering diagrams carry group-mode seeds (semifield=False)")
        if self.seed.data.n != 2:
            raise ValueError("scattering diagrams are defined for rank-2 seeds only")
        object.__setattr__(self, "frame", _frame_of(self.seed))
        d, to_fresh, fan = sum(self.seed.coeff_orders), self.frame.to_fresh, []
        for w in self.walls:  # sorted, so the walls on one ray are adjacent
            atoms = []
            for t, m, c in w.factors:
                if len(t) != d:
                    raise ValueError(f"wall factor t^{t} needs {d} coefficient exponents, one per seed coefficient")
                a = to_fresh(t)
                if sum(a) < 1:
                    raise ValueError(f"wall factor (1 + t^{t} z^{m}) has degree {sum(a)} < 1 in the seed's basis")
                atoms.append((a, m, c))
            if fan and fan[-1][0] == w.ray:
                fan[-1] = (w.ray, fan[-1][1] + tuple(atoms))
            else:
                fan.append((w.ray, tuple(atoms)))
        object.__setattr__(self, "fan", tuple(fan))


@dataclass(frozen=True)
class PathSpec:
    """Angular path for rank-2 crossings: from direction ``start`` to ``end``.

    ``ccw`` picks the orientation; ``loop=True`` means a full turn starting and
    ending at ``start``.  Endpoints must not lie on a wall ray.
    """

    start: tuple[int, int]
    end: tuple[int, int]
    ccw: bool = True
    loop: bool = False


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    order: int
    first_failure_degree: int | None = None
    # the leading loop defect of an inconsistent diagram: (coeff, exponent, acting normal) per term
    discrepancy: tuple[tuple[Fraction, Exponent, tuple[int, ...]], ...] | None = None


# -- seed frames --------------------------------------------------------------


@dataclass(frozen=True)
class SeedFrame:
    """Ambient data of a mutated seed: basis rows, normal covectors, and the
    exponent basis of its coefficients inside the initial coefficient lattice."""

    seed: Seed
    E: tuple[tuple[int, ...], ...]
    W: tuple[tuple[int, ...], ...]
    U: tuple[tuple[int, ...], ...]
    M: tuple[tuple[int, ...], ...]
    is_identity: bool

    def to_fresh(self, t: Sequence[int]) -> tuple[int, ...]:
        if self.is_identity:
            return tuple(t)
        return tuple(sum(row[j] * t[j] for j in range(len(t))) for row in self.M)

    def to_old(self, a: Sequence[int]) -> tuple[int, ...]:
        if self.is_identity:
            return tuple(a)
        d = len(a)
        return tuple(sum(self.U[f][j] * a[f] for f in range(d)) for j in range(d))


def seed_frame(s: Seed) -> SeedFrame:
    """Replay the seed's word with the g-frame step at sign +1 (E = g*,
    W_i = w_i) and read the coefficient basis off the seed."""
    data = s.data
    G = initial_g_frame(data)
    B = data.B
    for k in s.word:
        G = _frame_step(G, B, k, 1)
        B = matrix_mutate(B, k)
    if B != s.matrix:
        raise InvariantViolation("seed word does not reproduce the seed matrix")
    E = G.gstar
    W = tuple(G.w(i) for i in range(1, data.n + 1))
    U = tuple(p for tup in s.coeffs for p in tup)
    ident = tuple(_unit(len(U), j) for j in range(len(U)))
    if U == ident:
        return SeedFrame(s, E, W, U, ident, True)
    try:
        M = unimodular_inverse_transpose(U)
    except ValueError as exc:
        raise ValueError("seed coefficients do not form a lattice basis") from exc
    return SeedFrame(s, E, W, U, M, False)


@lru_cache(maxsize=256)
def _frame_of(s: Seed) -> SeedFrame:
    """``seed_frame(s)``, replayed once per seed: the diagrams a computation
    derives from one another (completion, truncation, the mutation
    transform and its check) share their seeds' frames."""
    return seed_frame(s)


def _grading_data(frame: SeedFrame, t_fresh: Sequence[int]):
    """Grading normal, acting normal, and forced monomial of a coefficient.

    Returns (n_primitive, acting, m): with alpha the per-direction degrees of
    ``t`` in the frame's basis, whose slot j is the seed's j-th coefficient
    (so direction i owns r_i slots, whatever the seed's ``coeff_orders``),
    the normals are ambient primitive integer vectors, and m is the unique
    lattice exponent the grading allows.  With
    nbar = sum_i alpha_i (d_i/r_i) e_i, acting is primitive(lcm(r) nbar) and
    m = omega(-, nbar) = sum_i alpha_i w_i.
    """
    data = frame.seed.data
    n = data.n
    alpha = tuple(sum(t_fresh[j] for j in block_range(data.r, i)) for i in range(n))
    if any(a < 0 for a in alpha):
        raise InvariantViolation(f"coefficient monomial grading {alpha} leaves the positive cone")
    L = lcm(*data.r)
    scale = [alpha[i] * data.d[i] * (L // data.r[i]) for i in range(n)]
    n_vec = tuple(sum(alpha[i] * frame.E[i][b] for i in range(n)) for b in range(n))
    nbar = tuple(sum(scale[i] * frame.E[i][b] for i in range(n)) for b in range(n))
    m = tuple(sum(alpha[i] * frame.W[i][b] for i in range(n)) for b in range(n))
    return _primitive(n_vec), _primitive(nbar), m


def _wall_normals(frame: SeedFrame, atoms: Sequence[Atom]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(grading normal, acting normal) of a wall over the frame's seed, from
    its atoms (t in the initial basis): every atom must grade to the same
    pair (``_grading_data``)."""
    normals = {_grading_data(frame, frame.to_fresh(t))[:2] for t, _, _ in atoms}
    if len(normals) > 1:
        raise InvariantViolation("wall atoms have incompatible gradings")
    return normals.pop()


# -- diagram construction -----------------------------------------------------


def build_initial(s: Seed, order: int) -> ScatteringDiagram:
    """Incoming diagram of a seed: one hyperplane per direction, carrying
    ``prod_j (1 + t_{i,j} z^{w_i})`` with the direction's normal covector w_i.

    Rank 2 only (ValueError otherwise); each hyperplane is stored as its two
    opposite rays.
    """
    if s.semifield:
        raise ValueError("build_initial needs a group-mode seed (semifield=False)")
    if s.data.n != 2:
        raise ValueError("build_initial is defined for rank-2 seeds only")
    frame = _frame_of(s)
    walls = []
    for i in range(2):
        walls += _hyperplane(frame.E[i], tuple((p, frame.W[i], 1) for p in s.coeffs[i]))
    return ScatteringDiagram(walls, order, s)


def _hyperplane(e: tuple[int, ...], atoms) -> list[Wall]:
    """The incoming hyperplane with normal e, as its two opposite rays."""
    return [Wall(r, atoms, incoming=True) for r in ((-e[1], e[0]), (e[1], -e[0]))]


def _sort_walls(walls: Iterable[Wall]) -> tuple[Wall, ...]:
    """Counterclockwise by ray, incoming walls first on a ray; the factors
    break ties, so the order does not depend on the input's."""
    return tuple(sorted(walls, key=lambda w: (_angle_key(w.ray), not w.incoming, w.factors)))


# -- crossings ----------------------------------------------------------------


def _cross_fan(fan: list, ccw: bool, d: int, series_order: int) -> tuple[list[list[dict]], int]:
    """Images of the generators z^{e_i} after crossing the rays of a fan
    (``ScatteringDiagram.fan``) in order, each ray factor by factor, the
    factors sharing one binomial memo: packed slices by coefficient degree per
    generator, and their slot bound."""
    images, bound, binomials = _generator_slices(2, d, series_order), 1, {}
    for (r0, r1), atoms in fan:
        n = (r1, -r0) if ccw else (-r1, r0)  # toward the side the path comes from
        for atom in atoms:
            factor = _Factor(n, atom, d, series_order, binomials)
            bound = max(bound, factor.bound)
            for slices in images:
                _cross_in_place(slices, factor)
    return images, bound


def _turn(v: Sequence[int], start: Sequence[int], ccw: bool):
    """Sort key of direction v by the angle turned from ``start`` in the
    direction of travel; ``start`` itself sorts first, as no turn."""
    k, s = _angle_key(v), _angle_key(start)
    if not ccw:
        k, s = tuple(-x for x in k), tuple(-x for x in s)
    return (k < s, k)


def path_ordered_product(D: ScatteringDiagram, path: PathSpec) -> tuple[LaurentSeries, LaurentSeries]:
    """Compose the crossings met along the angular path, first crossed first,
    modulo coefficient degree above the diagram's order: the images of z^{e_1}
    and z^{e_2}.  Crossings fix the coefficient generators.  A loop crosses
    every ray; any other path crosses the rays strictly between its ends, so
    none when its end points the way its start does.

    Coefficient exponents in the result are taken in the seed's own basis.
    """
    series_order = D.order + 1
    if not any(path.start) or not any(path.end):
        raise ValueError("path endpoints must be nonzero directions")
    end = path.start if path.loop else path.end
    if {_primitive(path.start), _primitive(end)} & {ray for ray, _ in D.fan}:
        raise ValueError("path endpoint lies on a wall")
    turn = lambda r: _turn(r[0], path.start, path.ccw)
    stop = _turn(end, path.start, path.ccw)
    fan = sorted((r for r in D.fan if path.loop or turn(r) < stop), key=turn)
    d = sum(D.seed.coeff_orders)
    images, bound = _cross_fan(fan, path.ccw, d, series_order)
    return tuple(
        LaurentSeries._make({k: c for sl in slices for k, c in sl.items()}, series_order, (2, d), bound)
        for slices in images
    )


# -- consistency and completion ----------------------------------------------


def _defect_derivation(fan: Sequence, frame: SeedFrame, d: int, series_order: int):
    """Lowest slice of the log of the counterclockwise loop around the origin.

    The loop starts just below the positive x-axis and maps z^{e_a} to
    z^{e_a} (1 + x_a); the lowest nonzero slice of log(1 + x_a) is that of
    x_a, so it is read off the crossed images directly.  Returns
    (first_degree, terms) with the terms of `_defect_terms`; both are None
    when the loop closes.
    """
    images, bound = _cross_fan(fan, True, d, series_order)
    first = next((k for k in range(1, series_order) if any(sl[k] for sl in images)), None)
    if first is None:
        return None, None
    return first, _defect_terms(frame, _shifted_slices(images, first, series_order, (2, d), bound))


def _defect_terms(frame: SeedFrame, slices: Sequence[LaurentSeries]) -> list:
    """Read the lowest slices of a loop defect, one per generator z^{e_a} of
    log(image * z^{-e_a}), as a derivation.

    Returns a list of (coeff, Exponent, acting normal), one per monomial;
    raises InvariantViolation when a monomial breaks the grading or the
    generators disagree on its coefficient.
    """
    keys = sorted({e for sl in slices for e in sl.terms}, key=lambda e: (e.t, e.m))
    terms = []
    for e in keys:
        _, acting, m_expected = _grading_data(frame, e.t)
        if tuple(e.m) != m_expected:
            raise InvariantViolation(
                f"loop defect monomial z^{e.m} t^{e.t} violates the grading (expected z^{m_expected})"
            )
        coeffs = [sl.coefficient(e) for sl in slices]
        c_tilde = None
        for a in range(2):
            pair = acting[a]
            if pair == 0:
                if coeffs[a] != 0:
                    raise InvariantViolation("loop defect is not a derivation along the expected normal")
                continue
            value = Fraction(coeffs[a], pair)
            if c_tilde is None:
                c_tilde = value
            elif c_tilde != value:
                raise InvariantViolation(
                    f"loop defect coefficients disagree across generators: {c_tilde} vs {value}"
                )
        terms.append((c_tilde, e, acting))
    return terms


def check_consistency(D: ScatteringDiagram) -> ConsistencyReport:
    """Is the counterclockwise loop around the origin the identity, modulo
    coefficient degree above the diagram's order?"""
    first, terms = _defect_derivation(D.fan, D.frame, sum(D.seed.coeff_orders), D.order + 1)
    if first is None:
        return ConsistencyReport(True, D.order)
    return ConsistencyReport(False, D.order, first, tuple(terms))


def complete_rank2(D: ScatteringDiagram) -> ScatteringDiagram:
    """Add outgoing walls degree by degree, up to the diagram's order, until
    the loop closes.

    The loop images of z^{e_1} and z^{e_2} are built online (`_OnlineFan`),
    one wall factor per position of the fan: stage k computes their
    degree-k slices at every position from the lower slices alone, and
    reads the loop defect at degree k off the last position, through the
    same reader as ``check_consistency``.  The defect is a derivation; each
    term forces one factor ``(1 + t z^m)^c`` of degree k on the ray opposite
    to m, and the exponent must come out a positive integer.  A degree-k
    factor, inserted after the factors already on its ray, leaves every
    slice below k as it was, and prepares only the input slices it reads,
    those below the fan's order minus k.  The fan rebuilds slice k once
    per stage, from the lowest position the stage inserted at, before it
    reads the loop; after that, the degree-k slices of the loop must
    vanish, and a factor inserted at a later stage leaves them so: after the
    last stage every slice from 1 to the order is empty.  The new walls are
    built once, after the last stage, and the result must carry exactly the
    atoms the fan crossed: equal merged atoms per ray give equal path-ordered
    products (``diagrams_equivalent``), so its loop is the fan's, closed.
    Idempotent on consistent input.
    """
    ord_, frame, d = D.order, D.frame, sum(D.seed.coeff_orders)
    outgoing: dict[tuple[int, ...], Wall] = {}
    for w in D.walls:
        if not w.incoming:
            if w.ray in outgoing:
                raise ValueError("diagram has two outgoing walls on one ray; merge them first")
            outgoing[w.ray] = w
    fan = _OnlineFan(d, ord_ + 1)
    keys: list = []  # angle keys of the rays of the fan's factors, in fan order
    crossed = [(ray, atom) for ray, atoms in D.fan for atom in atoms]  # every factor the fan crosses
    for (r0, r1), atom in crossed:
        fan.insert(len(keys), (r1, -r0), atom)
        keys.append(_angle_key((r0, r1)))
    new: dict[tuple[int, ...], list] = {}  # ray -> initial-basis atoms
    for degree in range(1, ord_ + 1):
        fan.step()
        terms = _defect_terms(frame, fan.defect())
        if degree == 1 and terms:
            raise InvariantViolation(
                "completion left a defect at degree 1 below the current stage 2"
                if ord_ > 1 else "completion finished but the loop still fails at degree 1"
            )
        for c_tilde, e, acting in terms:
            ray = _primitive(tuple(-x for x in e.m))
            # acting is orthogonal to m (omega is skew), so it is +-(r1, -r0), the normal the loop crosses by
            n = (ray[1], -ray[0])
            c = -c_tilde if acting == n else c_tilde
            if c.denominator != 1 or c <= 0:
                raise PositivityError(
                    f"completion needs (1 + t^{e.t} z^{e.m})^{c}; exponent is not a positive integer"
                )
            key, atom = _angle_key(ray), (e.t, e.m, int(c))
            pos = bisect_right(keys, key)
            fan.insert(pos, n, atom)
            keys.insert(pos, key)
            crossed.append((ray, atom))
            new.setdefault(ray, []).append((frame.to_old(e.t), e.m, int(c)))
        if not fan.closed():
            raise InvariantViolation(
                f"stage invariant violated: completion stage {degree} left degree-{degree} terms "
                "in the loop after adding its walls"
            )
    out = _add_walls(D, outgoing, new)
    walls = [Wall(r, ((frame.to_old(t), m, c),)) for r, (t, m, c) in crossed]
    if not diagrams_equivalent(out, ScatteringDiagram(walls, ord_, D.seed)):
        raise InvariantViolation("completion assembled walls that differ from the factors it crossed")
    return out


def _add_walls(D: ScatteringDiagram, outgoing: dict, new: dict) -> ScatteringDiagram:
    """D with each ray's new atoms joined to its outgoing wall, or on a new one."""
    walls = list(D.walls)
    for ray, atoms in new.items():
        old = outgoing.get(ray)
        if old is None:
            walls.append(Wall(ray, tuple(atoms), incoming=False))
        else:
            walls[walls.index(old)] = replace(old, factors=old.factors + tuple(atoms))
    return ScatteringDiagram(walls, D.order, D.seed)


# -- mutation transform -------------------------------------------------------


def tk_transform(D: ScatteringDiagram, k: int) -> ScatteringDiagram:
    """Piecewise-linear transform matching mutation in direction k.

    Walls on the positive side of the direction-k hyperplane are bent by
    ``m -> m + <e_k, m> r_k w_k`` with coefficients picking up the block
    product t_k to the same power; the negative side is fixed; the direction-k
    hyperplane trades its function for the one with inverted coefficients.
    The result is tagged with the one-step mutated seed.
    """
    s = D.seed
    s2 = seed_mutate(s, k)
    data = s.data
    a = k - 1
    frame = D.frame
    e_k = frame.E[a]
    w_k = frame.W[a]
    r_k = data.r[a]
    tk_exps = tuple(map(sum, zip(*s.coeffs[a])))
    slab_atoms = _combine_atoms((p, w_k, 1) for p in s.coeffs[a])

    def pairing_e(m: Sequence[int]) -> int:
        return sum(x * y for x, y in zip(e_k, m))

    slab, rest = [], []
    for w in D.walls:
        if w.incoming and pairing_e(w.ray) == 0:
            slab.append(w)
        else:
            rest.append(w)
    if len(slab) != 2 or any(w.factors != slab_atoms for w in slab):
        raise ValueError("diagram does not carry the expected direction-k hyperplane to trade away")

    new_walls: list[Wall] = []
    for w in rest:
        h_ray = pairing_e(w.ray)
        ray2, atoms2 = w.ray, w.factors
        if h_ray > 0:
            ray2 = _primitive(tuple(x + h_ray * r_k * y for x, y in zip(w.ray, w_k)))
            atoms2 = []
            for t, m, c in w.factors:
                h = pairing_e(m)
                t2 = tuple(x + h * y for x, y in zip(t, tk_exps))
                m2 = tuple(x + h * r_k * y for x, y in zip(m, w_k))
                atoms2.append((t2, m2, c))
        new_walls.append(Wall(ray2, atoms2, w.incoming))
    inv_atoms = tuple(
        (tuple(-x for x in p), tuple(-x for x in w_k), 1) for p in s.coeffs[a]
    )
    new_walls += _hyperplane(e_k, inv_atoms)  # the mutated seed's row is -e_k: same two rays
    return ScatteringDiagram(new_walls, D.order, s2)


def _completed(s: Seed, order: int, memo: dict) -> ScatteringDiagram:
    """``complete_rank2(build_initial(s, order))``, served by truncation when
    ``memo[s]`` holds a completion of ``s`` at this order or deeper.

    Order by order a consistent completion is unique, so the completion at
    a lower order is the truncation of a deeper one, wall for wall
    (``tests/test_completion.py`` checks the bytes).  On a miss the seed is
    completed afresh and the result replaces the shallower entry.  A memo
    entry over another seed is refused."""
    hit = memo.get(s)
    if hit is not None and hit.seed != s:
        raise ValueError("the memo holds a completion of another seed")
    if hit is not None and hit.order >= order:
        return hit if hit.order == order else diagram_truncate(hit, order)
    D = memo[s] = complete_rank2(build_initial(s, order))
    return D


# The most that ``tk_invariance_check`` completes: the source order times the
# number of coefficient generators.  Completion cost grows with both.  Of the
# sources measured within 54, the costliest takes about 0.7 s and 300 MB, and
# every shipped input needs 51 or less (BENCH_36.json).
TK_SOURCE_BUDGET = 54


def tk_invariance_check(
    s: Seed, k: int, order: int, memo: dict | None = None
) -> tuple[ScatteringDiagram, ScatteringDiagram, bool]:
    """Compare the mutation transform of the completed diagram against the
    completed diagram of the one-step mutated seed, at the given order.

    A factor of the mutated-seed diagram at this order can descend from a
    source factor of higher degree, so the source is completed deep enough to
    cover every preimage before transforming and truncating.  That order K is
    read off the mutated side, which is cheap to complete; a K beyond
    ``TK_SOURCE_BUDGET // g``, for g coefficient generators, raises
    ValueError before the source is completed.  K is never below ``order``,
    so an order beyond that limit raises before either side is completed.
    Returns (transformed side, mutated-seed side, equivalent?).

    Both sides are completed through ``memo``, a dict owned by the caller
    that maps each seed to its deepest completion so far (``_completed``):
    an entry at this order or deeper is truncated instead of completed
    again, and a new completion replaces a shallower entry.  Without a memo
    each call completes both sides afresh.
    """
    frame = _frame_of(s)
    if not frame.is_identity:
        raise ValueError("tk_invariance_check starts from the base seed")
    gens = sum(s.coeff_orders)
    limit = TK_SOURCE_BUDGET // gens

    def beyond(K, at_least=""):
        return ValueError(
            f"the mutation check at order {order} needs the source completed to order {K}{at_least} "
            f"(limit {limit} with {gens} coefficient generators)"
        )

    if order > limit:
        raise beyond(order, " or more")
    if memo is None:
        memo = {}
    rhs = _completed(seed_mutate(s, k), order, memo)
    e_k = frame.E[k - 1]
    tk_total = sum(map(sum, s.coeffs[k - 1]))
    K = order
    for w in rhs.walls:
        for t, m, _ in w.factors:
            h = sum(x * y for x, y in zip(e_k, m))
            K = max(K, sum(t), sum(t) - h * tk_total)
    if K > limit:
        raise beyond(K)
    lhs = diagram_truncate(tk_transform(_completed(s, K, memo), k), order)
    return lhs, rhs, diagrams_equivalent(lhs, rhs)


# -- cluster chamber walls ----------------------------------------------------


def cluster_chamber_walls(s: Seed, depth: int) -> tuple[Wall, ...]:
    """Walls spanned by the chamber facets reachable in ``depth`` mutations.

    Each chamber contributes one wall per facet: support the ray of the other
    g-vector, function ``prod_j (1 + p_{i,j}^eps z^{eps w_i})`` from the
    chamber's tropical coefficients, with eps the frame sign of direction i.
    The walk runs on principal coefficients; each p^eps is then evaluated at
    the seed's own coefficients (its frame's ``to_old``).  Duplicate facets
    must agree exactly; disagreement is an error.
    """
    if s.word:
        raise ValueError("cluster_chamber_walls starts from the base seed")
    if s.data.n != 2:
        raise ValueError("cluster_chamber_walls is defined for rank-2 seeds only")
    frame = _frame_of(s)
    found: dict[tuple[int, ...], Wall] = {}
    for _, sd, G in _chamber_walk(s.data, depth):
        for i in (1, 2):
            eps = G.epsilon(i)
            m = tuple(eps * x for x in G.w(i))
            ray = G.g[2 - i]
            atoms = tuple((frame.to_old(tuple(eps * x for x in p)), m, 1) for p in sd.coeffs[i - 1])
            wall = Wall(ray, atoms, incoming=False)
            old = found.get(ray)
            if old is None:
                found[ray] = wall
            elif old.factors != wall.factors:
                raise InvariantViolation(f"facet {ray} reached twice with different walls")
    return _sort_walls(found.values())


# -- equivalence and truncation ----------------------------------------------


def canonical_form(D: ScatteringDiagram) -> dict[tuple[int, ...], tuple[Atom, ...]]:
    """Map each support ray to the merged atoms of its walls.

    Merging and the cut at degree ``D.order`` (the cut of
    ``diagram_truncate``) happen in the seed's own coefficient basis; the
    returned atom exponents are in the initial basis.  The merged atoms of a
    ray determine its function and are determined by it (see
    ``diagrams_equivalent``).
    """
    to_old = D.frame.to_old
    out = {}
    for ray, atoms in D.fan:
        combined = _combine_atoms(a for a in atoms if sum(a[0]) <= D.order)
        if combined:
            out[ray] = tuple((to_old(t), m, c) for t, m, c in combined)
    return out


def diagrams_equivalent(D1: ScatteringDiagram, D2: ScatteringDiagram) -> bool:
    """Do the two diagrams have the same path-ordered products up to the
    lower of their orders?  The deeper one is truncated to the shallower.

    Decided by the merged atoms per ray alone (``canonical_form``).  A ray's
    function is a product of factors ``(1 + t^a z^m)^c`` with c > 0 and
    coefficient degree |a| >= 1, and such a product factors uniquely, lowest
    degree first: if k is the least degree of a factor, the function's terms
    of degree k are the sum of ``c t^a z^m`` over the factors of degree k,
    because a product of two factors has degree above k; dividing those out
    and repeating reads off every factor up to the order.  So equal merged
    atoms hold exactly when the ray functions agree modulo degree above the
    order.  Equal ray functions give equal crossings and so equal products
    along every path; conversely an arc that crosses one ray alone is that
    ray's crossing ``z^m -> z^m f^{eps <n, m>}``, and with n primitive some m
    has <n, m> = 1, which gives back f.

    Both diagrams must sit over the same seed, so that degrees are compared
    in one coefficient basis.
    """
    if seed_key(D1.seed) != seed_key(D2.seed):
        raise ValueError("diagrams sit over different seeds")
    if D1.order > D2.order:
        D1 = diagram_truncate(D1, D2.order)
    elif D2.order > D1.order:
        D2 = diagram_truncate(D2, D1.order)
    return canonical_form(D1) == canonical_form(D2)


def diagram_truncate(D: ScatteringDiagram, order: int) -> ScatteringDiagram:
    """Drop wall factors above ``order`` in the seed's coefficient degrees."""
    if order > D.order:
        raise ValueError("cannot truncate to a higher order than the diagram carries")
    to_fresh = D.frame.to_fresh
    walls = []
    for w in D.walls:
        kept = tuple(a for a in w.factors if sum(to_fresh(a[0])) <= order)
        if kept:
            walls.append(replace(w, factors=kept))
    return ScatteringDiagram(walls, order, D.seed)


# -- serialization and rendering ----------------------------------------------


def diagram_to_json(D: ScatteringDiagram) -> dict:
    """The diagram's order and walls, each with the grading and acting
    normals of its atoms in the seed's frame (``_wall_normals``)."""
    walls = []
    for w in D.walls:
        normal, acting = _wall_normals(D.frame, w.factors)
        walls.append(
            {
                "support": {"rays": [list(w.ray)]},
                "normal": list(normal),
                "acting_normal": [str(x) for x in acting],
                "factors": [{"t": list(t), "m": list(m), "c": c} for t, m, c in w.factors],
                "incoming": w.incoming,
            }
        )
    return {"order": D.order, "walls": walls}


def _tnames(orders: Sequence[int]) -> list[str]:
    """Display names t{i}{j} of the coefficient generators, in flat order."""
    return [f"t{i + 1}{j + 1}" for i, r in enumerate(orders) for j in range(r)]


def _atom_str(atom: Atom, names: Sequence[str]) -> str:
    t, m, c = atom
    parts = []
    for name, e in zip(names, t):
        if e:
            parts.append(name if e == 1 else f"{name}^{e}")
    mono = ",".join(str(x) for x in m)
    parts.append(f"z^({mono})")
    body = f"(1+{'*'.join(parts)})"
    return body if c == 1 else f"{body}^{c}"


def wall_label(w: Wall, orders: Sequence[int]) -> str:
    names = _tnames(orders)
    return "".join(_atom_str(a, names) for a in w.factors)


def render_svg(D: ScatteringDiagram) -> str:
    """Deterministic 1000x1000 picture of a diagram."""
    orders = D.seed.coeff_orders
    cx = cy = 500.0
    length = 430.0
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="1000" height="1000" viewBox="0 0 1000 1000">',
        '<rect width="1000" height="1000" fill="white"/>',
        f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="3" fill="black"/>',
    ]
    for w in D.walls:
        x, y = w.ray
        norm = hypot(x, y)
        ux, uy = x / norm, y / norm
        x2, y2 = cx + length * ux, cy - length * uy
        color = "#1f6fb4" if w.incoming else "#c23b22"
        dash = ' stroke-dasharray="7,4"' if w.incoming else ""
        lines.append(
            f'<line x1="{cx:.1f}" y1="{cy:.1f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="2"{dash}/>'
        )
        lx, ly = cx + (length + 18) * ux, cy - (length + 18) * uy
        anchor = "start" if ux >= 0 else "end"
        label = f"({x},{y})  {wall_label(w, orders)}"
        lines.append(
            f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="13" font-family="monospace" '
            f'text-anchor="{anchor}" fill="black">{_xml_escape(label)}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _xml_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
