"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m unittest discover -s bench -v
"""
from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_program()

import tracing  # noqa: E402
from oblicon import cli, families  # noqa: E402


def _oblicon_attrs() -> dict:
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if mod is not None and (name == "oblicon" or name.startswith("oblicon."))
    }


class TailPercentile(unittest.TestCase):
    def test_ten_samples_beyond(self):
        pct, value = run.tail_percentile([float(x) for x in range(1000)])
        self.assertEqual((pct, value), (99.0, 989.0))

    def test_order_of_input_does_not_matter(self):
        pct, value = run.tail_percentile([5.0, 1.0] + [3.0] * 9 + [0.5])
        self.assertAlmostEqual(pct, 200.0 / 12)
        self.assertEqual(value, 1.0)

    def test_too_few_samples_gives_maximum(self):
        self.assertEqual(run.tail_percentile([1.0, 3.0, 2.0]), (100.0, 3.0))


class Figures(unittest.TestCase):
    def test_median_of_two_calls_counts_both(self):
        ops_per_s, p50, pct, tail = run.figures([1.0, 3.0])
        self.assertEqual((ops_per_s, p50, pct, tail), (0.5, 2.0, 100.0, 3.0))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        ticks = iter([0, 10, 30, 40, 45, 50, 60, 100])
        tracer = tracing.Tracer(clock=lambda: next(ticks))
        a = tracer.enter("a")        # 0
        b = tracer.enter("b")        # 10
        tracer.exit(b)               # 30
        c = tracer.enter("c")        # 40
        d = tracer.enter("d")        # 45
        tracer.exit(d)               # 50
        tracer.exit(c)               # 60
        tracer.exit(a)               # 100
        self.assertEqual(tracer.busy, {"a": 100, "b": 20, "c": 20, "d": 5})
        self.assertEqual(tracer.self_ns, {"a": 60, "b": 20, "c": 15, "d": 5})

    def test_out_of_order_close_is_an_error(self):
        tracer = tracing.Tracer()
        outer = tracer.enter("outer")
        tracer.enter("inner")
        with self.assertRaises(RuntimeError):
            tracer.exit(outer)


class Hooks(unittest.TestCase):
    def test_install_and_remove_leave_modules_unchanged(self):
        before = _oblicon_attrs()
        original_main = cli.main
        with tracing.hooked(tracing.Tracer()) as missing:
            self.assertEqual(missing, [])
            self.assertIsNot(cli.main, original_main)
        after = _oblicon_attrs()
        self.assertEqual(before.keys(), after.keys())
        for name, attrs in before.items():
            self.assertEqual(attrs.keys(), after[name].keys(), name)
            for key, value in attrs.items():
                self.assertIs(after[name][key], value, f"{name}.{key}")

    def test_missing_target_is_reported(self):
        hooks = tracing.HOOKS + (tracing.Hook("ghost", "oblicon.patterns", "no_such_function"),)
        with tracing.hooked(tracing.Tracer(), hooks) as missing:
            self.assertEqual(missing, ["ghost"])

    def test_decision_counts_match_the_levels(self):
        adv = families.gen_chain(families.simple_chain_spec(6))
        tracer = tracing.Tracer()
        from oblicon import decision

        with tracing.hooked(tracer):
            trace = decision.decide(adv)
        levels = trace.levels
        self.assertEqual(tracer.counts["decision.iterations"], 6)
        self.assertEqual(
            tracer.counts["decision.edges_scanned"],
            sum(lvl.num_edges for lvl in levels[:-1]),
        )
        self.assertEqual(
            tracer.counts["decision.edges_removed"],
            levels[0].num_edges - levels[-1].num_edges,
        )
        self.assertEqual(tracer.counts["indist.edges"], levels[0].num_edges)


class Correctness(unittest.TestCase):
    def setUp(self):
        self.saved = run.MIN_CYCLES
        run.MIN_CYCLES = 1

    def tearDown(self):
        run.MIN_CYCLES = self.saved

    def test_recorded_digests_pass_traced_and_untraced(self):
        for trace in (False, True):
            out = run.run_workload("crosscheck-small", 0, 0.0, trace, run.load_expected(0, "crosscheck-small"))
            self.assertTrue(out["result"]["correct"], out["summary"])
            self.assertEqual(out["result"]["failed"], 0)

    def test_corrupted_digest_raises_error_rate(self):
        expected = dict(run.load_expected(0, "crosscheck-small"))
        label = "decide xc00"
        rc, digest = expected[label]
        expected[label] = [rc, "0" * len(digest)]
        out = run.run_workload("crosscheck-small", 0, 0.0, False, expected=expected)
        result = out["result"]
        self.assertFalse(result["correct"])
        # The warm-up cycle and the one measured cycle each call it once.
        self.assertEqual(result["failed"], 2)
        self.assertEqual(result["attempted"], 2 * 120)


if __name__ == "__main__":
    unittest.main()
