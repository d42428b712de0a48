"""Fixed reference work that gauges the machine's speed during a run.

The benchmark runs on shared hosts whose CPU speed drifts by tens of
percent over minutes.  The harness times this work in its own process
before and after every iteration, while no child is running, and reports
the pipeline's wall time as a multiple of one pass (``pipeline_ref``): a
drift that slows both cancels out, while a change to ``heavytail_sre``
moves only the pipeline.  The work imitates the pipeline's mix without
calling the package: a small-array recursion loop like the simulation
kernel, a sort like the tail estimators, plain interpreter work, and a
fill of freshly mapped memory.
"""

from __future__ import annotations

import functools
import time

import numpy as np

STEPS = 8000
CHAINS = 256
SORT_N = 1_000_000
PY_LOOP = 600_000
FRESH_FLOATS = 4_000_000
MIN_PASSES = 2


@functools.lru_cache(maxsize=1)
def _coefficients() -> tuple[np.ndarray, np.ndarray]:
    # drawn once: large fresh allocations time the host's page handling,
    # which varies far more from call to call than the work itself
    rng = np.random.default_rng(20240611)
    return rng.uniform(0.0, 1.2, (STEPS, CHAINS, 2)), rng.exponential(1.0, (STEPS, CHAINS, 2))


def work() -> float:
    """Do the reference work once; returns a checksum of its results."""
    a, b = _coefficients()
    x = np.zeros((CHAINS, 2))
    for i in range(STEPS):
        x = a[i] * x + b[i]
        if not np.isfinite(x).all():
            raise FloatingPointError("reference recursion diverged")
    s = np.sort(np.random.default_rng(7).standard_normal(SORT_N))
    fresh = np.full(FRESH_FLOATS, 0.5).sum()
    acc = 0
    table = {}
    for k in range(PY_LOOP):
        acc += (k * k) % 7
        table[k & 255] = acc
    return float(x.sum() + s[SORT_N // 2] + fresh + acc + len(table))


def seconds_per_pass(min_seconds: float = 0.0) -> float:
    """Mean wall time of one pass of the reference work, over at least
    MIN_PASSES passes and at least ``min_seconds`` seconds."""
    passes = 0
    t0 = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - t0 < min_seconds:
        work()
        passes += 1
    return (time.perf_counter() - t0) / passes
