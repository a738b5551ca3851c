"""Tropical semifield: generator bookkeeping, the group law, the plus/minus split."""

import pytest
from hypothesis import given, strategies as st

from clusterscatter.semifield import (
    CoeffLattice,
    TropElement,
    p_plus,
    p_minus,
    trop_element_to_json,
    trop_element_from_json,
)


@pytest.fixture
def lat2():
    return CoeffLattice((1, 1))


def test_lattice_shape():
    lat = CoeffLattice((1, 2))
    assert lat.n == 2
    assert lat.d == 3
    assert lat.flat_index(0, 0) == 0
    assert lat.flat_index(1, 0) == 1
    assert lat.flat_index(1, 1) == 2
    with pytest.raises(IndexError):
        lat.flat_index(0, 1)
    with pytest.raises(ValueError):
        CoeffLattice((0, 1))


def test_p_plus_minus_examples(lat2):
    a = lat2.element((2, -3))
    assert p_plus(a) == lat2.element((2, 0))
    assert p_minus(a) == lat2.element((0, 3))
    z = lat2.element((0, 0))
    assert p_plus(z) == z and p_minus(z) == z
    m = lat2.element((-1, -1))
    assert p_plus(m) == lat2.one()
    assert p_minus(m) == lat2.element((1, 1))


def test_group_ops(lat2):
    a = lat2.element((2, -1))
    b = lat2.element((1, 4))
    assert a * b == lat2.element((3, 3))
    assert a / b == lat2.element((1, -5))
    assert a**3 == lat2.element((6, -3))
    assert a * a.inv() == lat2.one()
    with pytest.raises(ValueError):
        a * CoeffLattice((1, 1, 1)).one()


def test_json_round_trip():
    lat = CoeffLattice((1, 2))
    a = lat.element((3, -1, 0))
    data = trop_element_to_json(a)
    assert data == {"orders": [1, 2], "exponents": [3, -1, 0]}
    assert trop_element_from_json(data) == a


vec3 = st.lists(st.integers(-20, 20), min_size=3, max_size=3).map(tuple)


@given(vec3)
def test_plus_minus_split(x):
    lat = CoeffLattice((1, 1, 1))
    a = lat.element(x)
    assert p_plus(a) / p_minus(a) == a
    support_plus = {i for i, e in enumerate(p_plus(a).exponents) if e}
    support_minus = {i for i, e in enumerate(p_minus(a).exponents) if e}
    assert not (support_plus & support_minus)
