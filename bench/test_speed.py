"""Tests of the machine-speed correction in ``speed.py``.

Run from the root of a checkout:

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import signal
import unittest
from time import perf_counter

import speed
from speed import REFERENCE_PROBE_S, SpeedClock


def clock_with(probes) -> SpeedClock:
    """A stopped clock holding the given (start, end) probes."""
    clock = SpeedClock()
    for start, end in probes:
        clock.starts.append(start)
        clock.ends.append(end)
    return clock


class Correction(unittest.TestCase):
    def test_steady_speed_scales_work(self) -> None:
        p = 2 * REFERENCE_PROBE_S
        clock = clock_with([(t, t + p) for t in (0.0, 1.0, 2.0, 3.0)])
        # 0.5..2.5 holds the probes at 1 and 2
        self.assertAlmostEqual(clock.work(0.5, 2.5), 2.0 - 2 * p)
        self.assertAlmostEqual(clock.corrected(0.5, 2.5), (2.0 - 2 * p) / 2)

    def test_slow_stretch_counts_less(self) -> None:
        # the machine runs at half speed from the fifth probe to the ninth ...
        fast, slow = REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S
        durations = [fast] * 4 + [slow] * 5 + [fast] * 4
        probes = [(float(t), t + d) for t, d in enumerate(durations)]
        clock = clock_with(probes)
        # ... so a second of work there counts as half a second
        inside = clock.corrected(probes[6][1], 7.0)
        self.assertAlmostEqual(inside, (7.0 - probes[6][1]) / 2)
        before = clock.corrected(probes[0][1], 1.0)
        self.assertAlmostEqual(before, 1.0 - probes[0][1])

    def test_one_slow_probe_is_smoothed_away(self) -> None:
        p = REFERENCE_PROBE_S
        durations = [p, p, p, 10 * p, p, p, p]
        clock = clock_with([(float(t), t + d) for t, d in enumerate(durations)])
        self.assertAlmostEqual(clock.corrected(3.5, 3.6), 0.1)

    def test_interval_past_the_last_probe_is_refused(self) -> None:
        clock = clock_with([(0.0, 0.001)])
        with self.assertRaises(ValueError):
            clock.work(0.5, 1.0)

    def test_timer_probes_while_started_and_not_after(self) -> None:
        before = signal.getsignal(signal.SIGALRM)
        clock = SpeedClock(interval=0.01)
        clock.start()
        try:
            start = perf_counter()
            while perf_counter() - start < 0.2:
                speed.probe_kernel()
            end = perf_counter()
        finally:
            clock.stop()
        taken = len(clock.starts)
        self.assertGreater(taken, 5)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        clock.stop()  # a second stop takes no probe
        self.assertEqual(len(clock.starts), taken)
        probed = sum(e - s for s, e in zip(clock.starts, clock.ends) if start < s < end)
        self.assertAlmostEqual(clock.work(start, end), end - start - probed, places=9)


if __name__ == "__main__":
    unittest.main()
