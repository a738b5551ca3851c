"""Tropical semifield on the coefficient generators.

The coefficient group is the free multiplicative abelian group on generators
``p[i][j]`` for directions ``i`` in ``range(n)`` and ``j`` in ``range(r_i)``;
``orders = (r_0, ..., r_{n-1})`` is its shape.  An element is a plain tuple of
ints: its dense exponent vector over the flat generator list
``(0,0), (0,1), ..., (n-1, r_{n-1}-1)``, in which direction i holds the slots
``block_range(orders, i)``.  The same tuples are the t-exponents of the wall
functions and series.

The group law (written multiplicatively) is componentwise addition, so p^e is
the tuple scaled by e.  Tropical addition, the componentwise minimum, enters
through ``p_plus`` and ``p_minus``: they split an element into its numerator
and denominator parts, so that ``p == p_plus(p) - p_minus(p)`` componentwise,
with disjoint supports.
"""

from __future__ import annotations

from typing import Sequence

from .monoid_ring import _unit


def block_range(orders: Sequence[int], i: int) -> range:
    """The slots of direction i's generators in the flat exponent vector."""
    start = sum(orders[:i])
    return range(start, start + orders[i])


def generator_blocks(orders: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The generators themselves, one block of ``orders[i]`` per direction:
    the principal coefficients."""
    d = sum(orders)
    return tuple(tuple(_unit(d, j) for j in block_range(orders, i)) for i in range(len(orders)))


def p_plus(a: Sequence[int]) -> tuple[int, ...]:
    """Positive part: keeps exponents ``max(e, 0)``; equals ``a / (a (+) 1)``."""
    return tuple(max(e, 0) for e in a)


def p_minus(a: Sequence[int]) -> tuple[int, ...]:
    """Negative part: keeps exponents ``max(-e, 0)``; ``p_plus(a) - p_minus(a) == a``."""
    return tuple(max(-e, 0) for e in a)
