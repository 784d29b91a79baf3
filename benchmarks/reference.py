"""A fixed reference kernel that measures the host's speed next to each job.

The host this benchmark runs on changes speed by up to 1.5x from one
second to the next (other tenants share its cores), and slow spells can
cover whole runs.  Every CLI job is therefore timed between samples of
``kernel``, a fixed piece of pure-Python work (``Fraction`` arithmetic,
tuple hashing and a small-int loop) that no change to ``relutoric`` can
touch.  A job's *scaled* time is its wall time times ``REFERENCE_S`` over
the median of the kernel samples taken around it: the job's seconds on a
host where the kernel takes ``REFERENCE_S``.  A change that makes the
program 20 % faster makes the scaled times 20 % smaller; a slow spell of
the host slows the job and the samples beside it alike and cancels out.
NOTES.md ("Run-to-run spread") has the measurements behind this.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Median time of one ``kernel`` call on the host the benchmark was tuned on
# (2-vCPU x86-64 VM, Python 3.11).  A constant, so scaled times read as
# seconds and compare across runs and commits.
REFERENCE_S = 0.0015
# Samples on each side of a job that its scale is taken from: the job sits
# between samples i and i + 1 and uses samples i - 1 .. i + 2.
HALF_WINDOW = 2


def kernel():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1) - Fraction(1, 2 * i + 1)
        row = tuple((i * j) % 13 for j in range(6))
        seen[row] = seen.get(row, 0) + 1
    total = 0
    for i in range(6000):
        total += (i * i) % 7
    return acc, total, len(seen)


def sample() -> float:
    """Seconds of one kernel call, with the collector off so the size of
    the program's heap does not reach the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, around: list[float]) -> float:
    """One time scaled by the median of the kernel samples taken around it."""
    return seconds * REFERENCE_S / statistics.median(around)


def around(action) -> tuple[float, list[float]]:
    """Wall seconds of ``action()`` and ``HALF_WINDOW`` kernel samples from
    each side of it."""
    samples = [sample() for _ in range(HALF_WINDOW)]
    start = time.perf_counter()
    action()
    seconds = time.perf_counter() - start
    samples += [sample() for _ in range(HALF_WINDOW)]
    return seconds, samples


def scaled(seconds: list[float], samples: list[float]) -> list[float]:
    """Scale job times to the reference host.  ``samples`` has one entry
    more than ``seconds``: sample i was taken just before job i and sample
    i + 1 just after it."""
    if len(samples) != len(seconds) + 1:
        raise ValueError("need one kernel sample before each job and one after the last")
    return [scale(t, samples[max(0, i + 1 - HALF_WINDOW):i + 1 + HALF_WINDOW])
            for i, t in enumerate(seconds)]
