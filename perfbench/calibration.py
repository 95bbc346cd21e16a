"""Host-speed calibration, so that reported times do not drift with the host.

The host shares its cores with other tenants, and its speed moves between
two states about 1.8x apart for seconds to minutes at a time.  A fixed loop
that does not call the library is therefore timed between items, at least
every ``EVERY_S`` seconds, and each item's wall time is multiplied by
``REFERENCE_S`` over the mean of the two loop times that bracket it.  A
normalised time is thus the item's time on a host on which the loop takes
``REFERENCE_S``.  The
library does not enter into the loop, so a slower library still shows as a
larger normalised time.

How much a piece of code slows in the slow state depends on what it does, so
each workload gets the loop that slows like its dominant layer: ``COMBINATORIAL``
(vertex stars, links and ridge counts of a fixed 4-sphere, like ``core`` and
``recognition``) or ``ARITHMETIC`` (``Fraction`` products and sums, like the
hull kernel in ``polytopal``).  On a 2-vCPU x86-64 VM, the log of each
workload's item time against the log of its loop's time has slope 0.9 to 1.0
across the two states.
"""

from __future__ import annotations

import array
import gc
import random
import statistics
import time
from fractions import Fraction

import corpus

EVERY_S = 0.05  # the most wall time between two calibration samples
REFERENCE_S = 0.003  # each loop's time on the reference host

_SPHERE = [frozenset(f) for f in corpus.stacked_sphere(random.Random(12345), 4, 40)]


def _combinatorial() -> None:
    star: dict[int, list[frozenset]] = {}
    for facet in _SPHERE:
        for v in facet:
            star.setdefault(v, []).append(facet)
    for v, facets in star.items():
        ridges: dict[frozenset, int] = {}
        for facet in facets:
            link_facet = facet - {v}
            for u in link_facet:
                ridge = link_facet - {u}
                ridges[ridge] = ridges.get(ridge, 0) + 1
        sorted(tuple(sorted(r)) for r in ridges)


def _arithmetic() -> None:
    x = Fraction(0)
    for i in range(1, 480):
        x += Fraction(i * i + 1, 3 * i + 7) * Fraction(2 * i - 1, i + 11)


COMBINATORIAL = _combinatorial
ARITHMETIC = _arithmetic


def sample(loop) -> float:
    """Wall time of one run of the loop, with the collector off so that the
    program's heap does not enter into it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    loop()
    seconds = time.perf_counter() - start
    if enabled:
        gc.enable()
    return seconds


class Meter:
    """Item latencies, and calibration samples interleaved with them."""

    def __init__(self, loop):
        self.loop = loop
        self.latencies = array.array("d")
        self.near = array.array("l")  # index of the last calibration sample before each item
        self.cal = array.array("d")
        self.last_cal = float("-inf")

    def before_item(self) -> None:
        if time.perf_counter() - self.last_cal >= EVERY_S:
            self.cal.append(sample(self.loop))
            self.last_cal = time.perf_counter()

    def record(self, seconds: float) -> None:
        self.latencies.append(seconds)
        self.near.append(len(self.cal) - 1)

    def finish(self) -> None:
        """A last sample, after the last item."""
        self.cal.append(sample(self.loop))

    def factor(self) -> float:
        """REFERENCE_S over the median calibration time of the whole run."""
        return REFERENCE_S / statistics.median(self.cal)

    def normalised(self) -> list[float]:
        """Each latency times REFERENCE_S over the mean of the calibration
        samples just before and just after it."""
        cal, last = self.cal, len(self.cal) - 1
        return [lat * 2 * REFERENCE_S / (cal[i] + cal[min(i + 1, last)])
                for lat, i in zip(self.latencies, self.near)]
