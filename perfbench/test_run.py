"""Unit tests for run.py's parse of the metrics file and for the metric
catalogue in BENCHMARK.json and perfbench/layers.json.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent

REQUIRED = {"events_per_s": "1/s", "setup_s": "s"}


def metrics_file(**overrides):
    data = {
        "correct": True,
        "attempted": 12,
        "failed": 0,
        "errors": [],
        "metrics": {
            "events_per_s": {"value": 7321760.123, "unit": "1/s"},
            "setup_s": {"value": 0.590861, "unit": "s"},
            "unlisted": {"value": 3, "unit": "count"},
        },
        "extra": {},
        "provenance": {},
    }
    data.update(overrides)
    return json.dumps(data)


class ParseMetricsFileTest(unittest.TestCase):
    def test_keeps_exactly_the_required_metrics(self):
        result = run.parse_metrics_file(metrics_file(), REQUIRED)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(result["metrics"], {
            "events_per_s": {"value": 7321760.123, "unit": "1/s"},
            "setup_s": {"value": 0.590861, "unit": "s"},
        })
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (12, 0))

    def test_reports_a_mismatch(self):
        result = run.parse_metrics_file(
            metrics_file(correct=False, failed=2), REQUIRED)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)

    def test_rejects_missing_metric(self):
        text = metrics_file(metrics={
            "events_per_s": {"value": 1.5, "unit": "1/s"}})
        with self.assertRaisesRegex(ValueError, "setup_s is missing"):
            run.parse_metrics_file(text, REQUIRED)

    def test_rejects_unit_drift(self):
        text = metrics_file(metrics={
            "events_per_s": {"value": 1.5, "unit": "1/s"},
            "setup_s": {"value": 590.8, "unit": "ms"}})
        with self.assertRaisesRegex(ValueError, "BENCHMARK.json says 's'"):
            run.parse_metrics_file(text, REQUIRED)

    def test_rejects_non_numbers(self):
        for bad in ("fast", None, True, float("nan"), float("inf")):
            text = metrics_file(metrics={
                "events_per_s": {"value": bad, "unit": "1/s"},
                "setup_s": {"value": 0.5, "unit": "s"}})
            with self.assertRaisesRegex(ValueError, "no finite value"):
                run.parse_metrics_file(text, REQUIRED)

    def test_rejects_inconsistent_counts(self):
        cases = [
            ({"attempted": 0}, "no operation"),
            ({"attempted": 1.5}, "attempted"),
            ({"failed": -1}, "failed"),
            ({"attempted": 2, "failed": 3}, "more operations failed"),
            ({"correct": True, "failed": 1}, "disagrees"),
            ({"correct": "yes"}, "correct"),
        ]
        for overrides, message in cases:
            with self.assertRaisesRegex(ValueError, message):
                run.parse_metrics_file(metrics_file(**overrides), REQUIRED)

    def test_rejects_non_object(self):
        with self.assertRaises(ValueError):
            run.parse_metrics_file("[1, 2]", REQUIRED)
        with self.assertRaises(ValueError):
            run.parse_metrics_file("{truncated", REQUIRED)


class CatalogueTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_spec()
        cls.layers = json.loads((HERE / "layers.json").read_text())

    def test_required_metrics_follow_the_trace_flag(self):
        self.assertEqual(
            list(run.required_metrics(self.spec, 0)),
            [m["name"] for m in self.spec["end_to_end"]])
        self.assertEqual(
            list(run.required_metrics(self.spec, 1)),
            [m["name"] for m in self.spec["per_layer"]])

    def test_setup_metric_and_bounds(self):
        metrics = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual(metrics["setup_s"]["unit"], "s")
        self.assertEqual(metrics["setup_s"]["better"], "lower")
        bounds = [m["bound"] for m in self.spec["end_to_end"]]
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))
        self.assertEqual(metrics["setup_s"]["bound"], max(bounds))

    def test_layers_document_every_workload_and_metric(self):
        self.assertEqual(
            set(self.layers["workloads"]),
            {w["name"] for w in self.spec["workloads"]})
        documented = [m for layer in self.layers["layers"]
                      for m in layer["metrics"]]
        self.assertEqual(sorted(documented),
                         sorted(m["name"] for m in self.spec["per_layer"]))
        end_to_end = {m["name"] for m in self.spec["end_to_end"]}
        workloads = set(self.layers["workloads"])
        for layer in self.layers["layers"]:
            for prediction in layer["moves"]:
                self.assertIn(prediction["metric"], end_to_end)
                self.assertLessEqual(set(prediction["on"]), workloads)
            self.assertLessEqual(set(layer["heavy_on"]), workloads)
            self.assertLessEqual(set(layer["light_on"]), workloads)


if __name__ == "__main__":
    unittest.main()
