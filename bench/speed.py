"""Machine-speed correction for the benchmark's timings.

The benchmark runs on a shared virtual machine whose speed changes by
up to two times within seconds and stays changed for seconds to
minutes, on either core.  A median inside one run cannot remove a
slowdown that outlasts it.  So every timing is also taken against a
fixed pure-Python probe: :class:`SpeedClock` runs the probe from a
timer signal every ``interval`` seconds of wall time, in the
benchmark's own thread, between the program's bytecodes, and records
when each probe ran and how long it took.

The work time of an interval is its wall time minus the probes inside
it.  Its corrected time is that work time rescaled to a machine on
which one probe takes :data:`REFERENCE_PROBE_S`: each stretch of work
between two probes counts ``stretch * REFERENCE_PROBE_S / p``, where
``p`` is the mean of the two probes around it.  The program's own
speed-ups show in full, since the probe runs none of its code.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Probe time on the reference machine that corrected times refer to.
REFERENCE_PROBE_S = 0.002

# Neighbours on each side whose median smooths a probe's duration.
SMOOTHING = 2


def probe_kernel() -> int:
    """A fixed piece of pure-Python work like the program's own: exact
    rational arithmetic, dictionaries keyed by tuples, nested lists."""
    acc = Fraction(0)
    seen: dict = {}
    for i in range(1, 300):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        key = (i % 17, i % 13, i % 7)
        seen[key] = seen.get(key, 0) + i
    rows = [[(i * j) % 11 for j in range(12)] for i in range(50)]
    return acc.numerator % 7 + sum(map(sum, rows)) + len(seen)


class SpeedClock:
    """Probes the machine's speed from a wall-clock timer while started.

    Probes are kept as ``(start, end)`` pairs in time order.  Timings
    are read back with :meth:`work` and :meth:`corrected` once the
    clock is stopped, so every interval has probes on both sides.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._smoothed: list[float] | None = None
        self._previous = None
        self._running = False

    def _probe(self, signum=None, frame=None) -> None:
        self._smoothed = None
        start = perf_counter()
        probe_kernel()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._running = True
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        """Stop the timer and take a last probe; a second call does nothing."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._running = False
        self._probe()

    # -- reading timings back ----------------------------------------------------

    def _durations(self) -> list[float]:
        """Probe durations, each the median of it and its two neighbours
        on either side, so that one probe slowed by an interrupt or a
        garbage collection does not set the speed of its stretch."""
        if self._smoothed is None:
            raw = [e - s for s, e in zip(self.starts, self.ends)]
            k = SMOOTHING
            self._smoothed = [statistics.median(raw[max(0, i - k):i + k + 1])
                              for i in range(len(raw))]
        return self._smoothed

    def _segments(self, a: float, b: float):
        """Stretches of work in ``[a, b]``, each with the mean duration
        of the probes on either side of it."""
        starts, ends, durations = self.starts, self.ends, self._durations()
        i = bisect.bisect_right(ends, a) - 1  # last probe ending by a
        t = a
        while t < b:
            j = i + 1  # next probe
            if j >= len(starts):
                raise ValueError("interval runs past the last probe")
            stop = min(starts[j], b)
            right = durations[j]
            left = durations[i] if i >= 0 else right
            if stop > t:
                yield stop - t, (left + right) / 2
            t = max(t, ends[j])
            i = j

    def work(self, a: float, b: float) -> float:
        """Wall time of ``[a, b]`` minus the probes inside it."""
        return sum(length for length, _ in self._segments(a, b))

    def corrected(self, a: float, b: float) -> float:
        """Work time of ``[a, b]`` at the reference probe speed."""
        return sum(length * REFERENCE_PROBE_S / p for length, p in self._segments(a, b))

    def probe_median(self) -> float:
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))
