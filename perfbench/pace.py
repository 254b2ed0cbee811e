"""Scale timings to a fixed host speed, so that the host's speed changes cancel out.

On a shared host a vCPU runs at full speed or at a half to two thirds
of it, switching every few seconds, independently of the other vCPU, and
in proportions that drift over minutes (other guests on the sibling
hyperthread come and go; no steal time shows).  Over a 20 s run the
mean speed moves by up to 40 %, so raw wall times follow the host
rather than the program.

So a timed run pins its process to one CPU (CLI children inherit the
pin) and brackets each timed piece of work with a probe: a fixed
pure-Python loop of Fraction arithmetic, dict inserts and a sort over a
few hundred KiB, like the engine's work, that belongs to the benchmark
and not to the code under test.  Its speed tracks the host's: from the
fast to the slow phase, chamber operations slowed by 1.92x and the
probe by 1.94x.  (A small-integer loop slowed by too little: 1.47x
where round-mode polygons slowed by 1.69x.)  A timing is scaled by the
mean of the two probe speeds around it over ``NOMINAL_RATE``, so it
reads as the time the work takes while the probe runs at
``NOMINAL_RATE``, about the full speed of the 2-vCPU Xeon VM the
benchmark was tuned on.  The raw times go into the run's metadata.
"""

from __future__ import annotations

import os
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_RATE = 800.0  # probes per second; a probe takes 1.2 to 2.2 ms
# a working set of a few hundred KiB, like the engine's lattices and LPs
_TABLE = [Fraction((i * 7919) % 1_000_003 + 1, (i * 104_729) % 999_983 + 1)
          for i in range(4000)]


def probe() -> float:
    """Probes per second, from one run of a fixed pure-Python loop."""
    t0 = perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(0, 4000, 80):
        x = _TABLE[i] * _TABLE[(i * 7) % 4000] + _TABLE[(i * 13) % 4000]
        seen[x] = i
        acc += Fraction(i + 1, 7 * i + 3)
    sorted(_TABLE[::16])
    return 1.0 / (perf_counter() - t0)


class Pacer:
    """Probes for one timed run, pinned to the lowest CPU it may use."""

    def __init__(self) -> None:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.rates: list[float] = []

    def probe(self) -> float:
        rate = probe()
        self.rates.append(rate)
        return rate

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between probes reading ``before`` and ``after``,
        at the nominal probe speed."""
        return seconds * (before + after) / 2 / NOMINAL_RATE

    def median_rate(self) -> float:
        return statistics.median(self.rates)
