"""The processor-speed reference that the end-to-end times are scaled by.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same op takes up to 1.5 times as long in one stretch of seconds as in the
next, with no change in CPU time against wall time, so the process is not
waiting; the core is slower.  That drift is wider than the bounds a
comparison of two commits needs.

So the benchmark times a fixed pure-Python computation, ``kernel``, between
blocks of ops, and scales each op's wall time by ``REFERENCE_S`` over the
kernel's time around it.  A reported time is then the time the op would
take on a processor that runs the kernel in exactly ``REFERENCE_S``.  The
kernel multiplies two sparse polynomials with rational coefficients in
dictionaries keyed by exponent tuples and sorts the product's terms, the
same kind of interpreter work as etalg's own arithmetic; on a 2-vCPU host
it tracked etalg's drift about four times better than the raw wall time
varied.  It imports nothing from etalg, so no change to etalg moves it.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.005   # the kernel's nominal time; a scale of 1 means this speed
REPS = 3              # kernel timings per calibration point; the median is kept


def _poly(rng, terms):
    return {
        tuple(rng.randrange(9) for _ in range(3)): Fraction(rng.randrange(1, 50), rng.randrange(1, 50))
        for _ in range(terms)
    }


_RNG = random.Random("etalg-bench:calibrate")
_A = _poly(_RNG, 30)
_B = _poly(_RNG, 30)


def kernel():
    """Sparse product of two fixed polynomials over Q, terms sorted by degree."""
    out = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return sorted(out.items(), key=lambda item: (sum(item[0]), item[0]))


def sample():
    """Median seconds of ``REPS`` kernel runs: the current speed of the processor."""
    times = []
    for _ in range(REPS):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)
