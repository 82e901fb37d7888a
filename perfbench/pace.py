"""Times in reference seconds: wall time divided by the machine's pace just then.

The benchmark runs on shared machines whose speed changes by up to 2× for
tens of seconds at a time, which no run of a minute or less averages out.
Each timed call is therefore paired with ``reference_loop``, a fixed loop run
just before it, and its cost is the ratio of the two, scaled by
``REFERENCE_S``. A change that makes the program twice as fast halves the
ratio; a slow spell of the machine slows both sides and leaves the ratio
about where it was.

The loop does the two kinds of work the program spends its time on:
interpreted integer arithmetic, and the 32-row rank-1 updates of
``ders.numkern.matmul``. It allocates no objects that the garbage collector
tracks, so the program's heap does not change its time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the loop's median time on the 2-CPU machine the benchmark was built
# on (18.2-21.4 ms over ten runs), so that a reference second is about a wall
# second there.
REFERENCE_S = 0.020

_INTEGER_STEPS = 75_000
_UPDATE_REPEATS = 18
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((32, 64))
_B = _rng.standard_normal((64, 64))


def reference_loop() -> float:
    """Wall seconds of one pass of the fixed reference loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(_INTEGER_STEPS):
        s = (s + i * i) % 1_000_003
    for _ in range(_UPDATE_REPEATS):
        out = np.zeros((32, 64))
        for k in range(64):
            out += _A[:, k : k + 1] * _B[k : k + 1, :]
    return time.perf_counter() - t0


def median_paced(samples) -> float:
    """Median over ``(wall seconds, reference loop seconds)`` pairs, in reference seconds."""
    return REFERENCE_S * statistics.median(seconds / reference_s for seconds, reference_s in samples)
