"""Self-tests of the span recorder and its wrappers.

Run from the repository root with ``python3 -m unittest discover -s perfbench``
(or ``python3 -m pytest perfbench``). They need neither amplan nor numpy.
"""

from __future__ import annotations

import os
import sys
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from recorder import Recorder, Target, installed  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_module(name):
    mod = types.ModuleType(name)

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    class Solver:
        def solve(self, x):
            return -x

    mod.leaf, mod.outer, mod.Solver = leaf, outer, Solver
    sys.modules[name] = mod
    return mod


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        clock = FakeClock()
        rec = Recorder(clock)
        a = rec.enter("a")            # a: 0 .. 10
        clock.now = 1.0
        b = rec.enter("b")            # b: 1 .. 4
        clock.now = 2.0
        c = rec.enter("c")            # c: 2 .. 3, inside b
        clock.now = 3.0
        rec.exit(c)
        clock.now = 4.0
        rec.exit(b)
        clock.now = 6.0
        b2 = rec.enter("b")           # b: 6 .. 9
        clock.now = 9.0
        rec.exit(b2)
        clock.now = 10.0
        rec.exit(a)

        self.assertEqual(rec.self_times(), [4.0, 2.0, 1.0, 3.0])
        self.assertEqual([s[1] for s in rec.spans], [-1, 0, 1, 0])
        names = rec.by_name()
        self.assertEqual(names["b"], {"calls": 2, "time_s": 6.0, "self_s": 5.0})
        self.assertEqual(names["a"]["self_s"], 4.0)
        callers = rec.by_caller()
        self.assertEqual(callers[("b", "c")], {"calls": 1, "time_s": 1.0, "self_s": 1.0})
        self.assertEqual(callers[("-", "a")]["time_s"], 10.0)

    def test_out_of_order_exit_raises(self):
        rec = Recorder(FakeClock())
        a = rec.enter("a")
        rec.enter("b")
        with self.assertRaises(RuntimeError):
            rec.exit(a)

    def test_counters(self):
        rec = Recorder(FakeClock())
        rec.count("n")
        rec.count("n", 2)
        rec.peak("p", 3.0)
        rec.peak("p", 1.0)
        self.assertEqual(rec.counters["n"], 3)
        self.assertEqual(rec.counters["p"], 3.0)


class InstalledTest(unittest.TestCase):
    def setUp(self):
        self.mod = _fake_module("perfbench_fake_mod")
        self.addCleanup(sys.modules.pop, "perfbench_fake_mod", None)

    def test_wraps_at_lookup_site_and_restores(self):
        mod = self.mod
        leaf, outer, solve = mod.leaf, mod.outer, mod.Solver.solve
        rec = Recorder()
        seen = []
        targets = [
            Target("perfbench_fake_mod:leaf", "fake.leaf",
                   lambda r, a, k, out: seen.append(out)),
            Target("perfbench_fake_mod:outer", "fake.outer"),
            Target("perfbench_fake_mod:Solver.solve", "fake.solve"),
        ]
        with installed(rec, targets) as missing:
            self.assertEqual(missing, [])
            self.assertIsNot(mod.leaf, leaf)
            self.assertEqual(mod.outer(1), 4)
            self.assertEqual(mod.Solver().solve(5), -5)
        self.assertIs(mod.leaf, leaf)
        self.assertIs(mod.outer, outer)
        self.assertIs(mod.Solver.solve, solve)
        self.assertEqual(seen, [2])
        spans = [(name, rec.spans[p][0] if p >= 0 else None) for name, p, _, _ in rec.spans]
        self.assertEqual(spans, [("fake.outer", None), ("fake.leaf", "fake.outer"),
                                 ("fake.solve", None)])

    def test_restores_when_body_raises(self):
        leaf = self.mod.leaf
        with self.assertRaises(ValueError):
            with installed(Recorder(), [Target("perfbench_fake_mod:leaf", "x")]):
                raise ValueError("boom")
        self.assertIs(self.mod.leaf, leaf)

    def test_span_closed_when_wrapped_function_raises(self):
        def bad(x):
            raise KeyError(x)
        self.mod.leaf = bad
        rec = Recorder()
        with installed(rec, [Target("perfbench_fake_mod:leaf", "fake.leaf")]):
            with self.assertRaises(KeyError):
                self.mod.leaf(1)
        self.assertIsNotNone(rec.spans[0][3])
        self.assertIs(self.mod.leaf, bad)

    def test_missing_targets_are_skipped(self):
        rec = Recorder()
        targets = [Target("perfbench_fake_mod:gone", "x"),
                   Target("perfbench_fake_mod:Solver.gone", "y"),
                   Target("perfbench_fake_mod:Nope.solve", "z"),
                   Target("perfbench_no_such_module:f", "w"),
                   Target("perfbench_fake_mod:leaf", "fake.leaf")]
        with installed(rec, targets) as missing:
            self.mod.leaf(0)
        self.assertEqual(missing, ["perfbench_fake_mod:gone",
                                   "perfbench_fake_mod:Solver.gone",
                                   "perfbench_fake_mod:Nope.solve",
                                   "perfbench_no_such_module:f"])
        self.assertEqual([s[0] for s in rec.spans], ["fake.leaf"])


if __name__ == "__main__":
    unittest.main()
