"""The memory cap of ``conftest.py`` is in force for every tier-1 test."""

import pytest

from conftest import MEMORY_CAP

resource = pytest.importorskip("resource")


def test_tier1_runs_under_the_memory_cap():
    """The soft address-space limit is at most the cap, so a runaway
    allocation fails at once with ``MemoryError``."""
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    assert soft != resource.RLIM_INFINITY and soft <= MEMORY_CAP
    with pytest.raises(MemoryError):
        bytearray(2 * MEMORY_CAP)
