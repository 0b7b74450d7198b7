"""Machine-speed calibration for the round times.

The shared host this benchmark was built on changes speed by up to 60%
over seconds to minutes, and a fixed pure-Python loop slows down with
etskit's own work when it does.  So the round times are reported in
reference seconds: the wall time of the work divided by the duration of a
fixed calibration loop timed during it, times ``REF_CALIB_S``.

While a measuring process runs its rounds, a ``Sampler`` interrupts it
every ``INTERVAL_S`` seconds (``SIGALRM``) and times one calibration loop.
Each stretch of work between two samples is divided by the mean of the two
samples around it, so a change of speed within a long command is followed.
The samples' own time is not part of the work.  The loop uses only the
interpreter, never etskit, so a change to etskit cannot move it.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.1
# About the loop's usual duration during the rounds on the reference
# machine (the 2-core VM of the README's figures, Python 3.11).  It fixes
# only the scale: a reference second is the time in which the machine runs
# 1 / REF_CALIB_S calibration loops.
REF_CALIB_S = 0.0035


def calibration_loop() -> int:
    """A fixed piece of interpreter work: tuples, a small dict and set,
    integer arithmetic.  About 4 ms on the reference machine."""
    counts: dict = {}
    seen: set = set()
    acc = 0
    for i in range(8000):
        t = (i, i & 7, i >> 3)
        counts[t[1]] = counts.get(t[1], 0) + t[0]
        if t[2] in seen:
            acc += 1
        else:
            seen.add(t[2] * 3)
        acc += (i * i) % 7
    return acc


class Sampler:
    """Times one calibration loop every ``INTERVAL_S`` seconds of wall time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, _signum, _frame):
        start = perf_counter()
        calibration_loop()
        self.samples.append((start, perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, start: float, end: float) -> tuple[float, float, int]:
        """Work in ``[start, end]``: returns ``(reference seconds, wall
        seconds without the samples, number of samples)``."""
        inside = [s for s in self.samples if start <= s[0] < end]
        if not inside:
            raise ValueError("no calibration sample within the interval")
        ref = 0.0
        wall = 0.0
        edge, before = start, inside[0][1]
        for at, took in inside:
            ref += (at - edge) / ((before + took) / 2)
            wall += at - edge
            edge, before = at + took, took
        ref += (end - edge) / before
        wall += end - edge
        return ref * REF_CALIB_S, wall, len(inside)
