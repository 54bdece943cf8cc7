"""A probe of how fast this machine runs interpreter-bound numeric code now.

On a shared host the same pass can take 50% longer for a minute at a time
while neighbours load the cores.  ``speed_probe`` times a fixed mix of
work that shares nothing with deathlab's code but resembles what it does:
JSON round trips, sorting, small numpy arrays, ``Generator.random()``
draws and numpy-scalar arithmetic.  The benchmark runs it just before and
just after every timed pass and scales the pass by ``REFERENCE_S`` over
their mean (``normalise``), which removes most of the host's slow phases
from the reported seconds.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from time import perf_counter

import numpy as np

# the probe's time in a fast phase of the reference machine (x86_64 Xeon,
# 2 shared cores, Python 3.11, numpy 2.4); normalised seconds are seconds
# at that speed
REFERENCE_S = 0.0100

_rows = random.Random(5)
_BLOB = [[_rows.random() for _ in range(20)] for _ in range(100)]


def _mix() -> None:
    for _ in range(3):
        values = sorted(v for row in json.loads(json.dumps(_BLOB)) for v in row)
        float((np.log1p(np.array(values)) * 3.0).sum())
        "".join({i: str(i) for i in range(2000)}.values())


def _draws() -> None:
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))
    k, acc = np.int64(50), 0
    for _ in range(3000):
        u = gen.random()
        j = math.floor(math.log1p(-u) / math.log1p(-0.3)) + 1.0
        acc += np.int64(j) if u < 0.5 else k - np.int64(1)


def speed_probe(reps: int = 3) -> float:
    """Median seconds of ``reps`` runs of the fixed mix."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        _mix()
        _draws()
        times.append(perf_counter() - start)
    return statistics.median(times)


def normalise(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, scaled to reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
