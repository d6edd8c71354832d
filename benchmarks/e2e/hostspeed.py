"""Host-speed sampling: what a second is worth while a run measures.

The benchmark runs on shared two-core sandboxes whose effective CPU speed
moves by tens of percent for seconds to minutes at a time (the same
fixed-seed campaign took 12.7–17.6 s over ten fresh processes while user +
system CPU time tracked the wall-clock exactly: the cores were slower, not
contended).  A whole-campaign timing cannot average that away inside its
time budget, so every run measures the host while it measures the
program: an interval timer interrupts the main thread ten times a second
to time one fixed, program-independent burst of pure-Python work, and
every reported time is divided by the slowdown the bursts saw in the same
window (their trimmed mean over ``REFERENCE_BURST_S``).  On a quiet
reference host the factor is 1 and seconds are seconds; elsewhere they
are seconds at the reference speed.  The burst touches nothing of
``repro``, so a change to the program moves the measured time and not the
yardstick.  Measured on the reference box with natural noise, this halves
the run-to-run spread of ``wall_s`` (quartile distance 7.7 % -> 3.7 % of
the median over 13 campaigns of ``survey_serial``).
"""

from __future__ import annotations

import signal
from time import perf_counter, thread_time

# Trimmed-mean burst on the reference box (2 cores, Python 3.11.7) at rest.
REFERENCE_BURST_S = 0.0022
INTERVAL_S = 0.1
# Below this many bursts in a window the slowdown is not estimated.
MIN_SAMPLES = 10

_MASK = (1 << 64) - 1
_KEYS = [(((i * 0x9E3779B97F4A7C15) & _MASK) << 64) | i for i in range(16384)]
_TABLE = {key >> 80: i for i, key in enumerate(_KEYS)}


def _burst() -> None:
    """16k big-int dict probes: interpreter dispatch, hashing and a 1.5 MB
    working set, with no container allocation (so no GC pass inside)."""
    get = _TABLE.get
    total = 0
    for key in _KEYS:
        total += get(key >> 80, 0) ^ (key & 1023)


class HostSpeed:
    """Samples the burst on ``SIGALRM`` for the life of the process."""

    def __init__(self) -> None:
        # (start, wall seconds, CPU seconds) of every burst.  The CPU time
        # is the speed reading: unlike the wall it does not grow when pool
        # workers preempt the burst, only when the core itself is slower.
        self.samples: list[tuple[float, float, float]] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame) -> None:
        start, cpu = perf_counter(), thread_time()
        _burst()
        self.samples.append((start, perf_counter() - start, thread_time() - cpu))

    def window(self, start: float, end: float) -> tuple[float, float]:
        """(seconds the bursts took, host slowdown) between two
        ``perf_counter`` readings; slowdown is 1.0 for windows too short
        to hold ``MIN_SAMPLES`` bursts."""
        inside = [s for s in self.samples if start <= s[0] < end]
        overhead = sum(wall for _, wall, _ in inside)
        if len(inside) < MIN_SAMPLES:
            return overhead, 1.0
        bursts = sorted(cpu for _, _, cpu in inside)
        trim = len(bursts) // 10
        kept = bursts[trim : len(bursts) - trim]
        return overhead, (sum(kept) / len(kept)) / REFERENCE_BURST_S

    def reference_seconds(self, start: float, end: float, measured: "float | None" = None) -> float:
        """``measured`` seconds (default: ``end - start``) spent in the
        window, without the bursts, at the reference host speed."""
        if measured is None:
            measured = end - start
        overhead, slowdown = self.window(start, end)
        return (measured - overhead) / slowdown
