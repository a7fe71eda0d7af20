"""The calibration block: fixed, standard-library-only work timed next to
every operation, so that timings can be reported in reference seconds.

A reference second is a measured second scaled by ``NOMINAL_S`` / (the
block's time measured in the same stretch of the same run).  When the machine
as a whole runs slower, the block and the operations slow down together and
the ratio stays put.  The block mimics the program's hot loop, a row update
over exact fractions, but shares no code or data with it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

#: Typical time of one block on the reference machine (a shared 2-vCPU
#: virtual machine, Python 3.11).  Its speed wanders by up to a factor of two,
#: so this fixes the unit of a reference second rather than a promise.
NOMINAL_S = 0.0090
_REPEATS = 3

_ROWS, _COLS = 14, 160
_TABLEAU = [[Fraction((7 * i + 3 * j) % 23 - 11, (i + 2 * j) % 17 + 1) for j in range(_COLS)]
            for i in range(_ROWS)]


def block() -> Fraction:
    """One pivot on a fixed dense fraction tableau, as the simplex does it."""
    prow = _TABLEAU[0]
    inv = 1 / prow[1]
    prow = [v * inv for v in prow]
    acc = Fraction(0)
    for row in _TABLEAU[1:]:
        f = row[1]
        new = [a - f * b for a, b in zip(row, prow)]
        acc += new[-1]
    return acc


_EXPECTED = block()


def measure() -> float:
    """Seconds one block takes now: the median of three back-to-back blocks.
    The collector runs first so that garbage left by the previous operation
    is not charged to the block."""
    gc.collect()
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        value = block()
        times.append(time.perf_counter() - start)
        if value != _EXPECTED:  # pragma: no cover - would mean a broken interpreter
            raise RuntimeError("calibration block returned a different value")
    return statistics.median(times)


def local_factors(samples: list[float]) -> list[float]:
    """Reference factor for the stretch between ``samples[i]`` and
    ``samples[i + 1]``: NOMINAL_S over the mean of those two samples.  The
    machine's speed changes within seconds, so the samples that bracket a
    stretch track it better than any wider window."""
    return [2 * NOMINAL_S / (a + b) for a, b in zip(samples, samples[1:])]
