"""Tropical semifield: generator bookkeeping and the plus/minus split on
exponent tuples."""

import pytest
from hypothesis import given, strategies as st

from clusterscatter.cluster_core import FixedData, initial_seed, seed_from_json, seed_to_json
from clusterscatter.semifield import block_range, generator_blocks, p_minus, p_plus


def test_lattice_shape():
    assert [block_range((1, 2), i) for i in range(2)] == [range(0, 1), range(1, 3)]
    assert generator_blocks((1, 2)) == (((1, 0, 0),), ((0, 1, 0), (0, 0, 1)))
    data = FixedData(((0, -1), (1, 0)), (1, 1), (1, 1))
    with pytest.raises(ValueError, match="orders must be positive"):
        initial_seed(data, coeff_orders=(0, 2))


def test_p_plus_minus_examples():
    assert p_plus((2, -3)) == (2, 0)
    assert p_minus((2, -3)) == (0, 3)
    assert p_plus((0, 0)) == p_minus((0, 0)) == (0, 0)
    assert p_plus((-1, -1)) == (0, 0)
    assert p_minus((-1, -1)) == (1, 1)


def test_json_round_trip():
    data = FixedData(((0, -2), (1, 0)), (1, 2), (1, 2))
    s = initial_seed(data, (((3, -1, 0),), ((0, 1, 0), (0, 0, 1))), with_cluster=False)
    doc = seed_to_json(s)
    assert doc["coeffs"][0] == [{"orders": [1, 2], "exponents": [3, -1, 0]}]
    assert seed_from_json(doc) == s


vec3 = st.lists(st.integers(-20, 20), min_size=3, max_size=3).map(tuple)


@given(vec3)
def test_plus_minus_split(x):
    assert tuple(a - b for a, b in zip(p_plus(x), p_minus(x))) == x
    support_plus = {i for i, e in enumerate(p_plus(x)) if e}
    support_minus = {i for i, e in enumerate(p_minus(x)) if e}
    assert not (support_plus & support_minus)
