"""Self-tests of the reference-speed probe.

Run from the repository root with ``python3 -m unittest discover -s perfbench``.
They need numpy (the reference kernel uses it) but not amplan.
"""

from __future__ import annotations

import os
import signal
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import SpeedProbe  # noqa: E402


def _probe_with(samples, period=0.1, nominal=0.01):
    probe = SpeedProbe(period=period, nominal=nominal)
    probe.samples = list(samples)
    return probe


class ArithmeticTest(unittest.TestCase):
    def test_wall_subtracts_the_kernel_time_inside(self):
        probe = _probe_with([(0.5, 0.01), (1.5, 0.02), (2.5, 0.04)])
        self.assertAlmostEqual(probe.wall(0.0, 2.0), 2.0 - 0.03)
        self.assertAlmostEqual(probe.overhead_frac(0.0, 2.0), 0.015)

    def test_each_gap_is_scaled_by_the_calls_around_it(self):
        # gaps [0, 1), [1.01, 2), [2.02, 3) have the calls 0.01, then 0.01
        # and 0.02, then 0.02 around them (nominal 0.01)
        probe = _probe_with([(1.0, 0.01), (2.0, 0.02)])
        expect = 1.0 / 1.0 + 0.99 / 1.5 + 0.98 / 2.0
        self.assertAlmostEqual(probe.seconds(0.0, 3.0), expect)
        self.assertAlmostEqual(probe.slowdown(0.0, 3.0), (3.0 - 0.03) / expect)

    def test_a_spell_is_corrected_by_its_own_speed(self):
        # calls every 0.1 s: nominal (0.01 s) up to 0.9, twice as slow from 1.0
        calls = [(0.1 * k, 0.01) for k in range(10)] + \
                [(1.0 + 0.1 * k, 0.02) for k in range(11)]
        probe = _probe_with(calls)
        # 9 fast gaps of 0.09 s, one mixed gap of 0.09 s at 1.5x, then
        # 10 slow gaps of 0.08 s at 2x
        work = 9 * 0.09 + 0.09 / 1.5 + 10 * 0.08 / 2.0
        self.assertAlmostEqual(probe.seconds(0.0, 2.0), work)
        self.assertAlmostEqual(probe.wall(0.0, 2.0), 2.0 - 10 * 0.01 - 10 * 0.02)

    def test_interval_without_calls_uses_its_neighbours(self):
        probe = _probe_with([(0.0, 0.01), (1.0, 0.03)])
        self.assertAlmostEqual(probe.seconds(0.4, 0.6), 0.2 / 2.0)

    def test_no_samples_is_an_error(self):
        with self.assertRaises(RuntimeError):
            _probe_with([]).seconds(0.0, 1.0)


class SignalTest(unittest.TestCase):
    def test_samples_while_entered_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        calls = []
        with SpeedProbe(period=0.005, kernel=lambda: calls.append(1)) as probe:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                sum(range(1000))
        self.assertGreater(len(probe.samples), 5)
        self.assertEqual(len(probe.samples), len(calls))
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)


if __name__ == "__main__":
    unittest.main()
