"""Host-speed calibration for the benchmark's time metrics.

The benchmark runs on shared hosts whose speed drifts by as much as
2.5x over an hour, as neighbours come and go; every time measured
there drifts with it, however long the run.  So the benchmark measures
a fixed reference kernel next to the program and reports each time
scaled to a reference host speed::

    reported = measured * REFERENCE_S / kernel_s

where ``kernel_s`` is the mean of the kernel samples taken near the
measured work (run.py says which), and :data:`REFERENCE_S` is the
kernel's typical time on the host the bounds were set on (a 2-vCPU
Intel Xeon VM at 2.1 GHz).  On that host at its usual speed the scale
is about 1; a program change does not move the kernel, so it moves the
reported times exactly as it moves the measured ones.

The kernel is a tight pure-Python loop that fits in the CPU's caches,
so it measures how fast the host runs the interpreter now, and not how
much cache a neighbour leaves it.  A graph kernel (breadth-first
searches over a dict of sets of a few megabytes) tracked the library's
speed less well on the reference host: between runs it moved with cache
pressure that the library's embed times did not show.  The kernel never
imports the library.
"""

from __future__ import annotations

import statistics
import time

#: Seconds of one :func:`kernel` call on the reference host.
REFERENCE_S = 0.050


def kernel() -> int:
    """A fixed amount of pure-Python arithmetic; returns a checksum."""
    total = 0
    for i in range(600_000):
        total += i * i % 7
    return total


def sample(reps: int) -> list[float]:
    """Seconds of each of ``reps`` kernel calls."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return times


def scale(samples: list[float]) -> float:
    """The factor that turns seconds measured next to ``samples`` into
    reference-host seconds."""
    return REFERENCE_S / statistics.fmean(samples)
