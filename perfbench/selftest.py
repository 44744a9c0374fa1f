"""Self-tests of the benchmark's output checks and metric tables.

Usage, from the root of a checkout: python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import unittest
from pathlib import Path

import numpy as np

import checks
import run
import traced
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _trace(reasons, n):
    records = [{"generator": k, "root": None if r == "bottom" else 0, "reason": r,
                "zero_interval": False, "support": []} for k, r in enumerate(reasons)]
    return json.dumps({"n": n, "records": records})


class PeelCheck(unittest.TestCase):
    def test_valid_trace_passes(self):
        trace = _trace(["neighborly", "general-rooted", "bottom"], 4)
        self.assertEqual(checks.check_peel("peeled 3 of 4 generators\n", trace, 4, 1), "")

    def test_more_records_than_points_fails(self):
        trace = _trace(["neighborly"] * 4 + ["bottom"], 4)
        self.assertIn("sandwich", checks.check_peel("peeled 5 of 4 generators\n", trace, 4, 1))

    def test_fewer_records_than_mutual_pairs_fails(self):
        trace = _trace(["neighborly", "bottom"], 4)
        self.assertIn("sandwich", checks.check_peel("peeled 2 of 4 generators\n", trace, 4, 2))

    def test_missing_bottom_fails(self):
        trace = _trace(["neighborly", "general-rooted"], 4)
        self.assertIn("bottom", checks.check_peel("peeled 2 of 4 generators\n", trace, 4, 1))

    def test_bottom_not_last_fails(self):
        trace = _trace(["bottom", "neighborly"], 4)
        self.assertIn("bottom", checks.check_peel("peeled 2 of 4 generators\n", trace, 4, 1))

    def test_wrong_summary_count_fails(self):
        trace = _trace(["neighborly", "bottom"], 4)
        self.assertIn("summary", checks.check_peel("peeled 3 of 4 generators\n", trace, 4, 1))

    def test_mutual_pairs_reference(self):
        pts = np.array([[0.0], [1.0], [5.0], [5.5], [9.0]])
        self.assertEqual(checks.mutual_nn_pairs(pts), 2)


class BarcodeCheck(unittest.TestCase):
    def setUp(self):
        self.pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        self.heights = checks.single_linkage_heights(self.pts)

    def test_valid_barcode_passes(self):
        out = "birth,death\n0.0,1.0\n0.0,2.0\n0.0,inf\n"
        self.assertEqual(checks.check_barcode(out, self.heights), "")

    def test_wrong_bar_fails(self):
        out = "birth,death\n0.0,1.0\n0.0,2.5\n0.0,inf\n"
        self.assertIn("differs", checks.check_barcode(out, self.heights))

    def test_second_infinite_bar_fails(self):
        out = "birth,death\n0.0,1.0\n0.0,inf\n0.0,inf\n"
        self.assertIn("infinite", checks.check_barcode(out, self.heights))

    def test_missing_bar_fails(self):
        out = "birth,death\n0.0,1.0\n0.0,inf\n"
        self.assertIn("finite bars", checks.check_barcode(out, self.heights))


class OracleCheck(unittest.TestCase):
    def test_all_pass_lines_pass(self):
        out = "PASS record 0: generator 3 (neighborly)\nPASS record 1: generator 0 (bottom)\n"
        self.assertEqual(checks.check_oracle(out, 2), "")

    def test_fail_line_fails(self):
        out = "PASS record 0: generator 3 (neighborly)\nFAIL record 1: generator 0 (bottom) - x\n"
        self.assertIn("not a PASS", checks.check_oracle(out, 2))

    def test_missing_line_fails(self):
        out = "PASS record 0: generator 3 (neighborly)\n"
        self.assertIn("oracle lines", checks.check_oracle(out, 2))


class SimulateCheck(unittest.TestCase):
    def _summary(self, mean_mutual, min_peeled):
        return json.dumps({"trials": 20, "mean_mutual_fraction": mean_mutual,
                           "min_peeled_fraction": min_peeled})

    def test_b2_matches_the_known_value(self):
        self.assertAlmostEqual(checks.B2, 0.6215, places=4)

    def test_within_tolerance_passes(self):
        self.assertEqual(checks.check_simulate(self._summary(0.63, 0.4), 20), "")

    def test_mutual_fraction_off_fails(self):
        self.assertIn("b(2)", checks.check_simulate(self._summary(0.66, 0.4), 20))

    def test_low_peeled_fraction_fails(self):
        self.assertIn("c(2)", checks.check_simulate(self._summary(0.62, 0.3), 20))


class OpFailure(unittest.TestCase):
    op = workloads.Op(["barcode"], lambda stdout, _: "" if stdout == "ok" else "bad", 1)

    def test_clean_op_passes(self):
        self.assertEqual(run.op_failure(self.op, run.Result(0, 1, 1, 1, "ok", ""), None), "")

    def test_nonzero_exit_fails(self):
        self.assertIn("exit code", run.op_failure(self.op, run.Result(2, 1, 1, 1, "ok", "error: x"), None))

    def test_traceback_fails(self):
        res = run.Result(0, 1, 1, 1, "ok", "Traceback (most recent call last):")
        self.assertIn("traceback", run.op_failure(self.op, res, None))

    def test_output_change_between_rounds_fails(self):
        res = run.Result(0, 1, 1, 1, "ok", "")
        self.assertIn("differs", run.op_failure(self.op, res, ("ok2", "")))

    def test_check_verdict_is_used(self):
        self.assertEqual(run.op_failure(self.op, run.Result(0, 1, 1, 1, "no", ""), None), "bad")


class SpanReduction(unittest.TestCase):
    def _span(self, name, start, end, parent=None, probe=False):
        return {"name": name, "op": 0, "parent": parent, "probe": probe, "start": start, "end": end}

    def test_self_time_and_remainder(self):
        trace = {
            "spans": [
                self._span("cli.import", 0.0, 0.2),
                self._span("cli.op", 1.0, 4.5),
                self._span("pset.forest", 1.0, 3.0, parent=1),
                self._span("cli.lazy_import", 1.5, 2.0, parent=2),
                self._span("rooted.peel", 3.0, 4.0, parent=1),
                self._span("pset.forest_peak", 5.0, 9.0, probe=True),
            ],
            "counts": {"rooted.peel_records": 7},
            "overhead_s": 0.01,
        }
        m = {k: v["value"] for k, v in run.reduce_spans(trace).items()}
        self.assertAlmostEqual(m["pset.forest_s"], 1.5)
        self.assertAlmostEqual(m["cli.lazy_import_s"], 0.5)
        self.assertAlmostEqual(m["cli.import_s"], 0.2)
        self.assertEqual(m["rooted.peel_records"], 7)
        self.assertEqual(m["space.kde_s"], 0.0)
        # the op's 3.5 s minus the 2.0 + 1.0 s its layer spans cover
        self.assertAlmostEqual(m["trace.remainder_s"], 0.5)
        self.assertAlmostEqual(m["trace.overhead_s"], 0.01)

    def test_pool_efficiency(self):
        trace = {
            "spans": [
                self._span("experiment.run_trials", 0.0, 2.0),
                self._span("experiment.trial", 2.0, 3.5, probe=True),
                self._span("rooted.peel", 2.5, 3.0, parent=1, probe=True),
                self._span("experiment.trial", 3.5, 5.0, probe=True),
            ],
            "counts": {},
            "overhead_s": 0.0,
        }
        m = {k: v["value"] for k, v in run.reduce_spans(trace).items()}
        self.assertAlmostEqual(m["experiment.trial_s"], 3.0)
        self.assertAlmostEqual(m["experiment.pool_efficiency"], 0.75)
        self.assertAlmostEqual(m["rooted.peel_s"], 0.5)


class TracedWrappers(unittest.TestCase):
    """The replay's wrappers record a span per call and counts from results."""

    def setUp(self):
        self.kept, traced.TRACER = traced.TRACER, traced.Tracer()
        traced.TRACER.op = 0

    def tearDown(self):
        traced.TRACER = self.kept

    def test_span_and_count_from_result(self):
        fn = traced.traced(lambda k: list(range(k)), "rooted.peel",
                           lambda result, k: traced.TRACER.count("rooted.peel_records", len(result)))
        with traced.TRACER.span("cli.op"):
            self.assertEqual(fn(3), [0, 1, 2])
        names = [(s["name"], s["parent"]) for s in traced.TRACER.spans]
        self.assertEqual(names, [("cli.op", None), ("rooted.peel", 0)])
        self.assertEqual(traced.TRACER.counts, {"rooted.peel_records": 3})
        self.assertEqual(traced.TRACER.wrapped_calls, 1)

    def test_paused_tracer_records_nothing(self):
        fn = traced.traced(lambda: 1, "pset.forest")
        traced.TRACER.paused = True
        self.assertEqual(fn(), 1)
        self.assertEqual(traced.TRACER.spans, [])

    def test_calibration_is_small_and_nonnegative(self):
        wrap_s, import_s = traced.calibrate(batches=3, calls=2000)
        self.assertTrue(0.0 <= wrap_s < 1e-3 and 0.0 <= import_s < 1e-3)
        self.assertEqual(traced.TRACER.spans, [])


class MetricTables(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: unit for name, (unit, _) in run.PER_LAYER.items()})
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))

    def test_every_layer_metric_has_a_prediction(self):
        notes = json.loads((ROOT / "perfbench" / "layers.json").read_text())
        named = [m for p in notes["predictions"] for m in p["metrics"]]
        self.assertEqual(sorted(named), sorted(run.PER_LAYER))
        for p in notes["predictions"]:
            for metric, workload in p["moves"]:
                self.assertIn(metric, run.END_TO_END)
                self.assertIn(workload, [*workloads.WORKLOADS, "every workload"])


if __name__ == "__main__":
    unittest.main()
