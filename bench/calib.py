"""Calibration against machine speed: a fixed stdlib kernel timed between items.

On a shared virtual machine (2 vCPUs, x86_64 Xeon at 2.1 GHz, Python
3.11.7) a fixed pure-Python loop drifts in speed by 10-25% over tens of
seconds with no other load in the guest, and a 30-second run does not
average that out.  So a run also times a fixed
exact-arithmetic kernel (Gauss-Jordan elimination over ``Fraction``, stdlib
only, about 1 ms) once per ``EVERY_S`` of item time, and scales every time
it reports by ``REF_KERNEL_S / mean kernel time``.  The figures then read
as times on a machine on which the kernel takes exactly 1 ms.  A slow
phase slows the items and the kernel alike; over four 30-second runs of
``purity`` on that machine, items_per_s spread by 14% unscaled and by 2%
scaled.

The kernel runs with the garbage collector paused, so the heap hodgekit
leaves behind cannot make the kernel look slower (and hodgekit faster).
The raw figures are printed beside the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REF_KERNEL_S = 0.001
EVERY_S = 0.02


def kernel(n=6):
    """Reduce I + H, H the n x n Hilbert matrix, to the identity by exact
    Gauss-Jordan elimination."""
    a = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return a


class Clock:
    """Kernel timings taken in step with the item times of one run."""

    def __init__(self):
        self.samples = []
        self._since = 0.0
        self.sample()

    def sample(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def tick(self, dt):
        """Account ``dt`` seconds of item time; time the kernel once per
        EVERY_S of it."""
        self._since += dt
        if self._since >= EVERY_S:
            self._since = 0.0
            self.sample()

    @property
    def scale(self):
        """Factor that turns a time measured in this run into a reference time."""
        return REF_KERNEL_S / statistics.fmean(self.samples)
