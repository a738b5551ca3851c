"""Tier-1 runs under a memory cap.

A kernel broken so that its series only grow would otherwise take the
machine's memory; under the cap, the test that runs it fails with
``MemoryError``.  The cap lowers the soft ``RLIMIT_AS`` (address space) of
the pytest process, and so of the processes it starts.  A lower limit
already in force is kept, and where the ``resource`` module is missing
nothing is capped.
"""

import sys

try:
    import resource
except ImportError:
    resource = None

# A whole tier-1 run on Python 3.11 peaks at about 257 MB RSS and 263 MB of
# address space, so 1 GiB leaves about four times that.
MEMORY_CAP = 1 << 30

if resource is not None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, hard))


def pytest_terminal_summary(terminalreporter):
    """Print the peak resident set of the pytest process, so that each CI
    log carries a row to compare with the cap.  Linux reports ``ru_maxrss``
    in KiB, macOS in bytes."""
    if resource is not None:
        unit = 1 if sys.platform == "darwin" else 1 << 10
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / (1 << 20)
        terminalreporter.write_line(f"peak RSS of the pytest process: {peak:.0f} MiB (the cap is {MEMORY_CAP >> 20} MiB of address space)")
