"""Self-tests for the benchmark's own helpers.

Run from the repository root:
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import sys
import tempfile
import textwrap
import unittest

import check
import ops
import run
import stats
import tracer


def solve_json(solution: dict) -> str:
    return json.dumps({"problem": "x", "solution": solution, "elapsed_seconds": 0.1,
                       "unknown": [1, 2]})


class CheckerTest(unittest.TestCase):
    rect = {"kind": "rectangle", "scale": 4.0}

    def test_correct_solution_passes_and_extra_keys_are_ignored(self):
        self.assertIsNone(check.check_cli(self.rect, 0, solve_json(
            {"x": 1.0, "y": 1.0, "area": 1.0, "extra": "ignored"}), ""))

    def test_rejects_wrong_value(self):
        reason = check.check_cli(self.rect, 0, solve_json(
            {"x": 1.0 + 1e-5, "y": 1.0, "area": 1.0}), "")
        self.assertIn("solution.x", reason)

    def test_rejects_missing_field(self):
        self.assertIn("missing", check.check_cli(self.rect, 0, solve_json({"x": 1.0}), ""))

    def test_rejects_non_finite_tokens(self):
        for token in ("NaN", "Infinity", "-Infinity", "1e400"):
            text = '{"solution": {"x": %s, "y": 1.0, "area": 1.0}}' % token
            self.assertIn("unparsable", check.check_cli(self.rect, 0, text, ""), token)

    def test_rejects_traceback(self):
        err = ("Traceback (most recent call last):\n  File \"x\", line 1\n"
               "ZeroDivisionError: float division by zero\n")
        self.assertIn("ZeroDivisionError", check.check_cli(self.rect, 1, "", err))
        good = solve_json({"x": 1.0, "y": 1.0, "area": 1.0})
        self.assertIsNotNone(check.check_cli(self.rect, 0, good, err))

    def test_exit_codes(self):
        diag = '{"problem": "rectangle", "diagnostic": "infeasible"}'
        self.assertIn("exit 1: infeasible", check.check_cli(self.rect, 1, diag, ""))
        self.assertIn("exit 1: unparsable", check.check_cli(self.rect, 1, '{"x": NaN}', ""))
        self.assertIn("exit 3", check.check_cli(self.rect, 3, diag, ""))
        # Exit 3 is a clean diagnostic where the answer itself overflows.
        huge = {"kind": "rectangle", "scale": 1e308}
        self.assertIsNone(check.check_cli(huge, 3, diag, ""))

    def test_subnormal_reference_checks_finiteness_only(self):
        tiny = {"kind": "rect-semicircle", "scale": 1e-320}
        self.assertIsNone(check.check_cli(tiny, 0, solve_json(
            {"x": 0.0, "y": 0.0, "area": 0.0}), ""))

    def test_ellipse_reference(self):
        op = {"kind": "ellipse-semicircle", "scale": 2.0}
        ref = check.reference(op)
        self.assertAlmostEqual(ref["a"] ** 2 + ref["b"] ** 2, 32.0 / 9.0)
        contact = ref["contacts"][1]
        self.assertAlmostEqual(contact["x"] ** 2 + contact["y"] ** 2, 4.0)

    def test_curve(self):
        op = {"kind": "curve", "scale": 8.0, "v": 4, "h": 2, "points": 5}
        good = "L,area\n0,0\n2,1.5\n4,2\n6,1.5\n8,0\n"
        self.assertIsNone(check.check_cli(op, 0, good, ""))
        self.assertIn("row 2", check.check_cli(op, 0, good.replace("4,2\n", "4,2.1\n"), ""))
        self.assertIn("curve rows", check.check_cli(op, 0, "L,area\n0,0\n", ""))
        self.assertIn("unparsable", check.check_cli(op, 0, good.replace("8,0", "8,inf"), ""))

    def test_verify(self):
        checks = [{"suite": s, "name": "n", "residual": 0.0, "tolerance": 1.0, "passed": True}
                  for s in check.VERIFY_SUITES]
        doc = {"checks": checks, "passed": True}
        self.assertIsNone(check.check_cli(run.VERIFY, 0, json.dumps(doc), ""))
        self.assertIn("suites missing", check.check_cli(
            run.VERIFY, 0, json.dumps({"checks": checks[1:], "passed": True}), ""))
        checks[0]["passed"] = False
        self.assertIn("failed checks", check.check_cli(
            run.VERIFY, 0, json.dumps({"checks": checks, "passed": True}), ""))


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        t = stats.tail([float(i) for i in range(1, 101)])
        self.assertEqual((t["percentile"], t["value"], t["beyond"]), (90, 90.0, 10))

    def test_lands_inside_slowest_eighth(self):
        # 12 blocks of eight: one slow request per block.
        xs = [1.0 + i * 1e-3 for i in range(84)] + [5.0 + i * 1e-3 for i in range(12)]
        t = stats.tail(xs)
        self.assertGreaterEqual(t["value"], 5.0)
        self.assertGreaterEqual(t["beyond"], 10)

    def test_ties_do_not_count_as_beyond(self):
        t = stats.tail([1.0] * 50 + [2.0] * 50)
        self.assertEqual(t["value"], 1.0)
        self.assertEqual(t["beyond"], 50)

    def test_few_samples_fall_back_to_median(self):
        t = stats.tail([3.0, 1.0, 2.0])
        self.assertEqual((t["percentile"], t["value"], t["beyond"]), (50, 2.0, 1))


class WindowTest(unittest.TestCase):
    def test_median_is_averaged_over_windows(self):
        # 20 windows at the slow speed, then 10 at the fast one, each with
        # one stray slow operation.
        xs = [1.5, 1.5, 9.0] * 20 + [1.0, 1.0, 9.0] * 10
        s = stats.latency_summary(xs, 3)
        self.assertAlmostEqual(s["latency_p50_s"], (20 * 1.5 + 10 * 1.0) / 30)
        self.assertEqual(s["run_latency_p50_s"], 1.5)
        self.assertEqual(s["ops_per_s"], 90 / sum(xs))
        self.assertEqual(len(s["window_p50_s"]), 30)

    def test_partial_window_is_dropped(self):
        s = stats.latency_summary([1.0, 2.0, 4.0], 2)
        self.assertEqual((s["latency_p50_s"], s["ops"]), (1.5, 3))
        self.assertEqual(s["tail"]["samples"], 3)

    def test_one_window_is_the_whole_run(self):
        for window in (None, 128):
            s = stats.latency_summary([2.0, 1.0, 4.0], window)
            self.assertEqual((s["window_ops"], s["latency_p50_s"]), (3, 2.0))


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["a.outer", 0.0, 10.0, -1, 0],
            ["b.child", 2.0, 5.0, 0, 0],
            ["c.grandchild", 3.0, 4.0, 1, 0],
            ["b.child", 6.0, 7.0, 0, 0],
        ]
        self.assertEqual(tracer.self_times(spans), [6.0, 2.0, 1.0, 1.0])
        profile = tracer.Profile()
        profile.add({"wrapped": [], "counts": {}, "spans": spans})
        self.assertEqual(profile.layer_self_s, {"a": 6.0, "b": 3.0, "c": 1.0})
        self.assertEqual(profile.calls["b.child"], 2)

    def test_overlapping_children_are_counted_once(self):
        spans = [["a", 0.0, 4.0, -1, 0], ["b", 1.0, 3.0, 0, 0], ["c", 2.0, 5.0, 0, 0]]
        self.assertEqual(tracer.self_times(spans)[0], 1.0)


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        pkg = os.path.join(self.tmp.name, "fakeshape")
        os.mkdir(pkg)
        files = {
            "__init__.py": "from .optimize import search\n",
            "optimize.py": """
                class Result:
                    evaluations = 3

                def search(f, lo):
                    f(lo)
                    f(lo)
                    return Result()

                def _helper():
                    return 1
            """,
            "problems.py": """
                from .optimize import search, _helper

                def solve():
                    return search(lambda x: x, 0.0), _helper()
            """,
        }
        for name, text in files.items():
            with open(os.path.join(pkg, name), "w") as handle:
                handle.write(textwrap.dedent(text))
        sys.path.insert(0, self.tmp.name)

    def tearDown(self):
        sys.path.remove(self.tmp.name)
        for name in [m for m in sys.modules if m.split(".")[0] == "fakeshape"]:
            del sys.modules[name]
        self.tmp.cleanup()

    def test_wraps_every_binding_and_records_absent_modules(self):
        import fakeshape
        from fakeshape import optimize, problems

        helper = optimize._helper
        trace = tracer.Tracer()
        trace.install("fakeshape")
        self.assertEqual(trace.absent, ["cli", "geometry", "oracle", "verify"])
        self.assertIs(problems.search, optimize.search)
        self.assertIs(fakeshape.search, optimize.search)
        self.assertIs(problems._helper, helper)
        problems.solve()
        self.assertEqual([(s[0], s[3]) for s in trace.spans],
                         [("problems.solve", -1), ("optimize.search", 0)])
        self.assertEqual(trace.counts["optimize.search.evaluations"], 3)


class WorkloadTest(unittest.TestCase):
    def test_blocks_are_seeded_and_hold_each_kind_once(self):
        first = next(ops.blocks(7, 10001))
        self.assertEqual(first, next(ops.blocks(7, 10001)))
        self.assertNotEqual(ops.digest(first), ops.digest(next(ops.blocks(8, 10001))))
        self.assertEqual(sorted(op["kind"] for op in first), sorted(ops.KINDS))
        for op in first:
            self.assertTrue(1e-3 <= op["scale"] <= 1e6)

    def test_edge_probe_reaches_both_ends(self):
        scales = [op["scale"] for op in ops.edge_probe(1)]
        self.assertIn(1e-320, scales)
        self.assertIn(1e308, scales)
        self.assertTrue(all(math.isfinite(s) and s > 0 for s in scales))

    def test_importtime_parser(self):
        text = ("import time: self [us] | cumulative | imported package\n"
                "import time:       120 |     163000 | numpy\n"
                "import time:      2000 |       2500 |   optishape.geometry\n")
        cumulative, own = run.parse_importtime(text)
        self.assertEqual(cumulative["numpy"], 0.163)
        self.assertEqual(own["optishape.geometry"], 0.002)

    def test_benchmark_json_lists_what_run_reports(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as handle:
            spec = json.load(handle)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
