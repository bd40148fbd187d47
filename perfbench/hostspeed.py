"""Host-speed sampling, to take the shared host's speed swings out of times.

On the shared 2-vCPU virtual machine the benchmark was built on, the speed
of a vCPU swings by up to 1.8x within seconds, and ten identical `corpus`
batches took 21-33 s.  A fixed reference loop of `Fraction` arithmetic
(the program's own kind of work), timed every 50 ms of wall time from a
SIGALRM handler inside the measured process and once before each curve,
tracks that speed: over four identical `corpus` batches the raw wall
time ranged 28.3-37.1 s and the adjusted one 34.8-35.7 s.  A plain
integer loop tracked it less well (31.5-34.6 s).

A time t measured while the loop averaged s seconds is reported as
t * REF_LOOP_S / s, in "reference seconds": the time the work would take
on a host where the loop takes REF_LOOP_S, its typical time on the
reference host (Intel Xeon vCPU at 2.0 GHz, Python 3.11).  The time the
sampling itself spends inside an interval is subtracted first; it is
about 0.7% of a run.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_LOOP_S = 0.000346
INTERVAL_S = 0.05


def reference_loop() -> Fraction:
    a = Fraction(3, 7)
    for j in range(60):
        a = a * Fraction(j + 2, j + 1) - Fraction(1, j + 3)
    return a


class HostSpeed:
    """Context manager sampling the reference loop; samples are
    (start, duration) pairs on the perf_counter clock."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def before(self, count: int = 3) -> None:
        """Samples taken just before a timed interval, so that even an
        interval shorter than INTERVAL_S has samples next to it."""
        for _ in range(count):
            self.sample()

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def adjust(self, t0: float, t1: float) -> float:
        """Reference seconds for the interval [t0, t1].

        The loop's speed is the mean of the samples that start within
        INTERVAL_S of the interval, or the nearest sample if none does.
        """
        near = [d for s, d in self.samples if t0 - INTERVAL_S <= s <= t1 + INTERVAL_S]
        if not near:
            near = [min(self.samples, key=lambda sd: min(abs(sd[0] - t0), abs(sd[0] - t1)))[1]]
        inside = sum(d for s, d in self.samples if t0 <= s < t1)
        return (t1 - t0 - inside) * REF_LOOP_S / statistics.fmean(near)
