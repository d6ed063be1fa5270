"""Machine-speed reference for the end-to-end timings.

The benchmark runs on a few cores of a shared host whose speed flips
between a fast and a slow state (about 1.5 times slower) every few
seconds, and process CPU time slows with it, so raw seconds do not
compare from run to run. The benchmark therefore times a fixed
reference kernel that calls nothing in ``symprod``: an interpreter loop,
a few hundred numpy calls on small arrays (the RK4 and per-point call
pattern) and a sort of a large array (the memory-bound box counting). It
runs three times between timed rounds, and five times after the set-up
in every set-up probe process. Each timing is reported at reference
speed::

    t_ref = t * REFERENCE_S / kernel_s

with ``kernel_s`` the mean of the two medians of three around a round, or
the median of the five after a set-up. (A kernel timed in the parent
around the probe process runs cold and spreads wider than the set-up
itself.) A change to the program moves ``t`` and not the kernel, so it
shows in full; a slower host moves both, and cancels. The raw seconds
stay in the notes.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Nominal kernel time in seconds. It only sets the scale of reference
# seconds; one kernel run took 0.020-0.034 s on the 2-vCPU Xeon that
# recorded BENCH_0.json, so a reference second is about 1.3 of its seconds.
REFERENCE_S = 0.04


def scale(seconds, kernel_seconds):
    """Seconds at reference speed, given the kernel's time alongside."""
    return seconds * REFERENCE_S / kernel_seconds


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.uniform(0.5, 1.5, 2000)
        self._large = rng.standard_normal(1_000_000)
        # Sorted in place: a kernel that allocated 8 MB would move glibc's
        # mmap threshold and with it the workload's peak RSS.
        self._buffer = np.empty_like(self._large)
        self._last = None
        self.kernel()  # warm-up: first calls into numpy pay one-off costs

    def kernel(self):
        """Run the kernel once; return its (wall, CPU) seconds."""
        t0, c0 = time.perf_counter(), time.process_time()
        total = 0
        for i in range(60_000):
            total += i * i
        a = self._small
        for _ in range(300):
            a = np.sqrt(a * a + 1.0) * 0.7 + np.sin(a) * 0.01
        np.copyto(self._buffer, self._large)
        self._buffer.sort()
        return time.perf_counter() - t0, time.process_time() - c0

    def median(self, runs):
        """Run the kernel ``runs`` times; return the median (wall, CPU)."""
        return tuple(map(statistics.median,
                         zip(*(self.kernel() for _ in range(runs)))))

    def around(self, fn):
        """Call fn(); return its result and the kernel timings around it.

        The kernel timing after one call is reused as the one before the
        next, so back-to-back calls each cost one median of three.
        """
        before = self._last or self.median(3)
        result = fn()
        self._last = self.median(3)
        return result, tuple((b + a) / 2 for b, a in zip(before,
                                                         self._last))
