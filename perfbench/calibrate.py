"""Machine-speed calibration.

On a shared virtual machine the same pure-Python work can take anywhere from
1x to 2.5x as long from one minute to the next, and the process's CPU time
swings with the wall time (the slowdown is not time taken away from the
process, so CPU-time clocks do not remove it).  The benchmark therefore
times a fixed block of work every quarter second while it measures, also in
the middle of a library call, takes the blocks' time out of the call's time,
and reports each timing scaled to a reference speed:

    calibrated seconds = measured seconds * REF_S / (mean block seconds
                         from just before the call to just after it)

The block does what the library spends its time on: products of sparse
polynomials held in dicts with tuple keys and integer coefficients, and
``Fraction`` arithmetic.  It uses nothing from the library, so a change to
the library moves the calibrated figures and not the block.
"""

from __future__ import annotations

import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter, process_time

# Seconds one block takes on the reference machine (a shared 2-vCPU Intel
# Xeon VM at 2.1 GHz, Python 3.11.7) when it runs at full speed.
REF_S = 0.013


def _poly(rng: random.Random, n: int) -> dict:
    return {(rng.randrange(-6, 7), rng.randrange(0, 9)): rng.randrange(1, 10) for _ in range(n)}


_RNG = random.Random(7)
_A, _B = _poly(_RNG, 60), _poly(_RNG, 60)


def _work() -> int:
    out: dict = {}
    for _ in range(16):
        for (a0, a1), x in _A.items():
            for (b0, b1), y in _B.items():
                k = (a0 + b0, a1 + b1)
                out[k] = out.get(k, 0) + x * y
    f = Fraction(0)
    for _ in range(12):
        for i in range(1, 200):
            f += Fraction(i % 7 - 3, i)
    return len(out) + f.denominator


def block() -> float:
    """Seconds one block of the fixed work takes now."""
    t = perf_counter()
    _work()
    return perf_counter() - t


class Calibrator:
    """Runs a block on entry, on exit and, when ``every`` is given, every
    ``every`` seconds of wall time in between, from a ``SIGALRM`` handler,
    so a block can run in the middle of a library call.  ``paused_s`` and
    ``paused_cpu_s`` total the wall and CPU seconds the blocks took, for the
    caller to take out of its own timings."""

    def __init__(self, every: float | None = None):
        self.every = every
        self.blocks: list[tuple[float, float]] = []  # (start, seconds)
        self.paused_s = 0.0
        self.paused_cpu_s = 0.0
        self._busy = False

    def run(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        cpu, t = process_time(), perf_counter()
        self.blocks.append((t, block()))
        self.paused_s += perf_counter() - t
        self.paused_cpu_s += process_time() - cpu
        self._busy = False

    def __enter__(self) -> "Calibrator":
        self.run()
        if self.every:
            signal.signal(signal.SIGALRM, self.run)
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.run()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean block time from the last block that started
        before ``start`` to the first that started after ``end``."""
        starts = [t for t, _ in self.blocks]
        lo = max(bisect_right(starts, start) - 1, 0)
        hi = bisect_left(starts, end) + 1
        return REF_S / statistics.mean(d for _, d in self.blocks[lo:hi])
