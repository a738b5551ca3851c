"""Reference implementations that the package does not ship, kept as oracles.

- ``Automorphism`` substitutes generator images into a whole series, with
  negative generator powers through unit inversion.  It is a second crossing
  engine, independent of the in-place crossing of the library, and
  ``path_ordered_product`` wraps the library's loop images in it so that
  products of paths compose.
- ``CMatrix`` and ``c_matrix_mutate`` are the c-vector recursion: a second
  route to the coefficient rule of ``seed_mutate``.
- ``omega`` is the skew form of the fixed data, and ``frame_matrix`` reads
  the exchange matrix off a g-vector frame through it: a second route to
  ``matrix_mutate``, and to the normal covectors ``GVectorFrame.w``.
- ``greedy_element`` is the rank-2 greedy recursion: a second route to
  theta functions at every exponent, with no diagram and no search.
- ``permute_blocks`` permutes each block of coefficient generators of a
  diagram: a completion must be invariant under it.
- ``specialize`` identifies the generators of each block, and
  ``one_generator_diagram`` builds the incoming walls it maps the principal
  ones onto: a completion must specialize to the completion of those.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Sequence

from clusterscatter import scattering
from clusterscatter.cluster_core import (
    FixedData,
    GVectorFrame,
    InvariantViolation,
    Matrix,
    _as_matrix,
    _beta,
    _check_direction,
    initial_seed,
)
from clusterscatter.monoid_ring import (
    _HALF,
    _SLOT,
    LaurentSeries,
    _min_order,
    _unit,
    _unpack,
    series_add,
    series_mul,
    series_pow,
    series_scale,
)
from clusterscatter.semifield import block_range, generator_blocks

# -- automorphisms ----------------------------------------------------------


def min_degree(series: LaurentSeries) -> int | None:
    """The lowest coefficient degree of a term of ``series``, or None if it is zero."""
    return min((sum(e.t) for e in series.terms), default=None)


def eq_mod_order(a: LaurentSeries, b: LaurentSeries, order: int | None = None) -> bool:
    """a and b agree below the lowest of ``order`` and their own orders."""
    order = _min_order(order, _min_order(a.order, b.order))
    a, b = a.truncate(order), b.truncate(order)
    return a._nd == b._nd and a._packed == b._packed


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
        result = LaurentSeries(order=order)
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
            eq_mod_order(a, b, order)
            for a, b in zip(self.m_images + self.t_images, other.m_images + other.t_images)
        )

    def is_identity(self, order: int | None = None) -> bool:
        return self.eq_mod_order(Automorphism.identity(self.n, self.d, self.order), order)


def path_ordered_product(D: scattering.ScatteringDiagram, path: scattering.PathSpec) -> Automorphism:
    """The library's path-ordered product as an automorphism: its images of
    z^{e_1} and z^{e_2}, with the coefficient generators fixed."""
    images = scattering.path_ordered_product(D, path)
    order = D.order + 1
    return Automorphism(images, Automorphism.identity(2, sum(D.seed.coeff_orders), order).t_images, order)


# -- coefficient block symmetry ------------------------------------------------


def permute_blocks(D: scattering.ScatteringDiagram, perm: Sequence[int]) -> scattering.ScatteringDiagram:
    """``D`` with the t-slots of every wall atom permuted: slot j moves to
    slot ``perm[j]``, and ``perm`` maps each block of the seed's generators
    onto itself (ValueError otherwise).  On a seed with principal
    coefficients such a permutation fixes the incoming walls, so it fixes
    their consistent completion too."""
    orders = D.seed.coeff_orders
    blocks = [block_range(orders, i) for i in range(len(orders))]
    if len(perm) != sum(orders) or any(sorted(perm[j] for j in b) != list(b) for b in blocks):
        raise ValueError(f"{tuple(perm)} does not map each block of {orders} onto itself")

    def move(t):
        out = [0] * len(t)
        for j, x in enumerate(t):
            out[perm[j]] = x
        return tuple(out)

    walls = [scattering.Wall(w.ray, [(move(t), m, c) for t, m, c in w.factors], w.incoming) for w in D.walls]
    return scattering.ScatteringDiagram(walls, D.order, D.seed)


def specialize(D: scattering.ScatteringDiagram) -> dict[tuple[int, ...], tuple[scattering.Atom, ...]]:
    """The ray functions of ``D`` under the monoid map t_{i,j} -> t_i, which
    identifies the generators of each block: per ray, the merged atoms with
    their t summed block by block.  Merged atoms determine the ray functions
    and are determined by them (``canonical_form``)."""
    orders = D.seed.coeff_orders
    blocks = [block_range(orders, i) for i in range(len(orders))]
    return {
        ray: scattering._combine_atoms((tuple(sum(t[j] for j in b) for b in blocks), m, c) for t, m, c in atoms)
        for ray, atoms in scattering.canonical_form(D).items()
    }


def one_generator_diagram(data: FixedData, order: int) -> scattering.ScatteringDiagram:
    """The incoming walls that ``specialize`` maps the principal incoming
    walls of ``data`` onto: (1 + t_i z^{w_i})^{r_i}, Gross-Pandharipande-
    Siebert's standard diagram with l_i = r_i.  Its seed is the one-generator
    seed of FixedData(B_ij/r_j, d', (1,1)), d' the d_i/r_i scaled to coprime
    integers so that the matrix stays skew-symmetrizable; its normal
    covectors w_i are those of ``data``."""
    B = tuple(tuple(x // data.r[j] for j, x in enumerate(row)) for row in data.B)
    ratios = [Fraction(d, r) for d, r in zip(data.d, data.r)]
    scale = lcm(*(q.denominator for q in ratios))
    d = [int(q * scale) for q in ratios]
    small = FixedData(B, tuple(x // gcd(*d) for x in d), (1,) * data.n)
    D = scattering.build_initial(initial_seed(small, with_cluster=False, semifield=False), order)
    walls = [
        scattering.Wall(w.ray, [(t, m, c * data.r[t.index(1)]) for t, m, c in w.factors], w.incoming) for w in D.walls
    ]
    return scattering.ScatteringDiagram(walls, order, D.seed)


# -- coefficient block matrices ----------------------------------------------


@dataclass(frozen=True)
class CMatrix:
    """Exponent columns of the coefficients: block i holds r_i columns of
    length sum(r), one per coefficient of direction i."""

    r: tuple[int, ...]
    blocks: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(int(x) for x in self.r))
        object.__setattr__(
            self, "blocks", tuple(tuple(tuple(int(x) for x in col) for col in b) for b in self.blocks)
        )
        dim = sum(self.r)
        if len(self.blocks) != len(self.r):
            raise ValueError("one block per direction required")
        for i, b in enumerate(self.blocks):
            if len(b) != self.r[i] or any(len(col) != dim for col in b):
                raise ValueError(f"block {i + 1} must be {sum(self.r)} x {self.r[i]}")

    @property
    def dim(self) -> int:
        return sum(self.r)

    def column(self, i: int, j: int) -> tuple[int, ...]:
        return self.blocks[i - 1][j - 1]

    def is_sign_coherent(self) -> bool:
        for b in self.blocks:
            for col in b:
                if any(x > 0 for x in col) and any(x < 0 for x in col):
                    return False
        return True

    def block_structure_ok(self) -> bool:
        """Off-diagonal block rows are constant; the diagonal square has a
        constant off-diagonal value c with all diagonal entries equal to c+1
        or all equal to c-1."""
        for i, b in enumerate(self.blocks):
            for kk in range(len(self.r)):
                rows = block_range(self.r, kk)
                vals = {col[a] for col in b for a in rows}
                if kk != i:
                    if len(vals) != 1:
                        return False
                else:
                    start = rows.start
                    diag = {b[j][start + j] for j in range(self.r[i])}
                    off = {
                        col[start + a]
                        for j, col in enumerate(b)
                        for a in range(self.r[i])
                        if a != j
                    }
                    if len(diag) != 1:
                        return False
                    if self.r[i] > 1 and len(off) != 1:
                        return False
                    c = off.pop() if off else None
                    v = diag.pop()
                    if c is not None and abs(v - c) != 1:
                        return False
        return True


def initial_c_matrix(r) -> CMatrix:
    return CMatrix(tuple(r), generator_blocks(tuple(r)))


def c_matrix_mutate(C: CMatrix, B, k: int) -> CMatrix:
    """Mutation of the coefficient exponent columns in direction k."""
    B = _as_matrix(B)
    n = len(C.r)
    if len(B) != n:
        raise ValueError("matrix size does not match block count")
    _check_direction(k, n)
    a = k - 1
    dim = C.dim
    colk = C.blocks[a]
    neg = [sum(max(-col[row], 0) for col in colk) for row in range(dim)]
    pos = [sum(max(col[row], 0) for col in colk) for row in range(dim)]
    blocks = []
    for i in range(n):
        if i == a:
            blocks.append(tuple(tuple(-x for x in col) for col in colk))
            continue
        b_ik = _beta(B, C.r, i, a)
        b_ki = _beta(B, C.r, a, i)
        base = neg if b_ik > 0 else pos
        blocks.append(
            tuple(tuple(col[row] + base[row] * b_ki for row in range(dim)) for col in C.blocks[i])
        )
    return CMatrix(C.r, tuple(blocks))


# -- g-vector frames ---------------------------------------------------------


def omega(data: FixedData, u, v) -> Fraction:
    """Skew form on N in basis coordinates: omega(e_a, e_b) = b_ab/d_b."""
    tot = Fraction(0)
    for a, ua in enumerate(u):
        if not ua:
            continue
        for b, vb in enumerate(v):
            if vb:
                tot += Fraction(ua * vb * data.B[a][b], data.d[b])
    return tot


def frame_matrix(G: GVectorFrame) -> Matrix:
    """Exchange matrix of the frame: omega(g*_i, d_j g*_j)."""
    n = G.data.n
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            v = omega(G.data, G.gstar[i], G.gstar[j]) * G.data.d[j]
            if v.denominator != 1:
                raise InvariantViolation("frame matrix is not integral")
            row.append(int(v))
        out.append(tuple(row))
    return tuple(out)


# -- greedy elements ----------------------------------------------------------


def greedy_element(b12: int, b21: int, r: Sequence[int], a: Sequence[int]) -> dict[tuple[int, int], int]:
    """The greedy element x[a1, a2] of B = ((0, -b12), (b21, 0)) with
    exchange-polynomial degrees r, as {(exponent of x1, of x2): coefficient}.

    With b' = b12/r2 and c' = b21/r1, x[a1, a2] is
    x1^-a1 x2^-a2 sum_{p,q} c(p, q) x1^(b'p) x2^(c'q), where c(0, 0) = 1 and
    c(p, q) is the larger of
    sum_{k=1..p} (-1)^(k-1) c(p-k, q) C(r2 [a2 - c'q]_+ + k - 1, k) and
    sum_{k=1..q} (-1)^(k-1) c(p, q-k) C(r1 [a1 - b'p]_+ + k - 1, k),
    over 0 <= p <= r2 [a2]_+ and 0 <= q <= r1 [a1]_+.  With r = (1, 1) this
    is the recursion of Lee-Li-Zelevinsky (*Greedy elements in rank 2
    cluster algebras*, Selecta Math. 2014).  The factor r_j, from the
    exchange polynomial (1 + u)^(r_j) at t = 1, is a generalized form that
    rests on the comparison with theta functions in the tests only.
    """
    r1, r2 = r
    b, c = b12 // r2, b21 // r1
    a1, a2 = a
    coeff: dict[tuple[int, int], int] = {}
    for p in range(r2 * max(a2, 0) + 1):
        for q in range(r1 * max(a1, 0) + 1):
            if p == q == 0:
                coeff[p, q] = 1
                continue
            n1, n2 = r2 * max(a2 - c * q, 0), r1 * max(a1 - b * p, 0)
            down = sum((-1) ** (k - 1) * coeff[p - k, q] * comb(n1 + k - 1, k) for k in range(1, p + 1))
            left = sum((-1) ** (k - 1) * coeff[p, q - k] * comb(n2 + k - 1, k) for k in range(1, q + 1))
            coeff[p, q] = max(down, left)
    return {(b * p - a1, c * q - a2): v for (p, q), v in coeff.items() if v}
