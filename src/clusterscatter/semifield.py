"""Tropical semifield on the coefficient generators.

The coefficient group is the free multiplicative abelian group on generators
``p[i][j]`` for directions ``i`` in ``range(n)`` and ``j`` in ``range(r_i)``,
where ``r_i`` is the polynomial order attached to direction ``i``.  An element
is a dense integer exponent vector over the flat generator list
``(0,0), (0,1), ..., (n-1, r_{n-1}-1)``.

The group law (written multiplicatively) is componentwise addition.  Tropical
addition, the componentwise minimum, enters through ``p_plus`` and ``p_minus``:
they split an element into its numerator and denominator parts, so that
``p == p_plus(p) / p_minus(p)`` with disjoint supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class CoeffLattice:
    """Shape of the generator set: one block of size ``orders[i]`` per direction."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(int(r) for r in self.orders))
        if len(self.orders) == 0:
            raise ValueError("at least one direction required")
        if any(r < 1 for r in self.orders):
            raise ValueError("orders must be positive integers")

    @property
    def n(self) -> int:
        return len(self.orders)

    @property
    def d(self) -> int:
        return sum(self.orders)

    def flat_index(self, i: int, j: int) -> int:
        """Position of generator (i, j) in the flat exponent vector."""
        if not (0 <= i < self.n):
            raise IndexError(f"direction {i} out of range")
        if not (0 <= j < self.orders[i]):
            raise IndexError(f"generator index {j} out of range for direction {i}")
        return sum(self.orders[:i]) + j

    def block_range(self, i: int) -> range:
        start = sum(self.orders[:i])
        return range(start, start + self.orders[i])

    def one(self) -> TropElement:
        return TropElement(self, (0,) * self.d)

    def generator(self, i: int, j: int) -> TropElement:
        exps = [0] * self.d
        exps[self.flat_index(i, j)] = 1
        return TropElement(self, tuple(exps))

    def element(self, exponents: Sequence[int]) -> TropElement:
        return TropElement(self, tuple(int(e) for e in exponents))


@dataclass(frozen=True)
class TropElement:
    """Element of the tropical semifield, stored by generator exponents."""

    lattice: CoeffLattice
    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))
        if len(self.exponents) != self.lattice.d:
            raise ValueError(
                f"exponent vector has length {len(self.exponents)}, lattice needs {self.lattice.d}"
            )

    def __mul__(self, other: TropElement) -> TropElement:
        _check_same_lattice(self, other)
        return TropElement(self.lattice, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __truediv__(self, other: TropElement) -> TropElement:
        _check_same_lattice(self, other)
        return TropElement(self.lattice, tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def __pow__(self, e: int) -> TropElement:
        return TropElement(self.lattice, tuple(a * int(e) for a in self.exponents))

    def inv(self) -> TropElement:
        return TropElement(self.lattice, tuple(-a for a in self.exponents))


def _check_same_lattice(a: TropElement, b: TropElement) -> None:
    if a.lattice.orders != b.lattice.orders:
        raise ValueError(f"lattice mismatch: {a.lattice.orders} vs {b.lattice.orders}")


def p_plus(a: TropElement) -> TropElement:
    """Positive part: keeps exponents ``max(e, 0)``; equals ``a / (a (+) 1)``."""
    return TropElement(a.lattice, tuple(max(e, 0) for e in a.exponents))


def p_minus(a: TropElement) -> TropElement:
    """Negative part: keeps exponents ``max(-e, 0)``; ``p_plus(a) / p_minus(a) == a``."""
    return TropElement(a.lattice, tuple(max(-e, 0) for e in a.exponents))


def trop_element_to_json(a: TropElement) -> dict:
    return {"orders": list(a.lattice.orders), "exponents": list(a.exponents)}


def trop_element_from_json(data: dict) -> TropElement:
    lattice = CoeffLattice(tuple(data["orders"]))
    return lattice.element(data["exponents"])
