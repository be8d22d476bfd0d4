"""Tests of the benchmark's own metric helpers (no build needed).

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                ".."))
import metrics  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_with_sample_count(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 50), (50, 100))
        self.assertEqual(metrics.percentile(values, 99), (99, 100))
        self.assertEqual(metrics.percentile(values, 100), (100, 100))

    def test_order_does_not_matter(self):
        self.assertEqual(metrics.percentile([5, 1, 3], 50), (3, 3))

    def test_small_sample_takes_the_top_value(self):
        # p99 of 10 samples has no sample beyond it: it is the maximum, and
        # the count shows how little supports it.
        self.assertEqual(metrics.percentile([float(x) for x in range(10)], 99),
                         (9.0, 10))

    def test_empty(self):
        value, n = metrics.percentile([], 50)
        self.assertTrue(math.isnan(value))
        self.assertEqual(n, 0)


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(metrics.self_time((10, 30), []), 20)

    def test_children_are_a_union(self):
        # Overlapping children count once: [12,16] u [14,20] = 8.
        self.assertEqual(metrics.self_time((10, 30), [(12, 16), (14, 20)]), 12)

    def test_children_are_clipped_to_the_span(self):
        self.assertEqual(metrics.self_time((10, 30), [(0, 15), (25, 40)]), 10)

    def test_nested_and_disjoint_children(self):
        kids = [(11, 19), (12, 13), (21, 22), (40, 50)]
        self.assertEqual(metrics.self_time((10, 30), kids), 11)

    def test_replay_spans_from_a_trace_file(self):
        doc = {"traceEvents": [
            {"ph": "M", "pid": 0, "name": "process_name"},
            {"name": "pb.execute", "ph": "X", "pid": 0, "tid": 1,
             "ts": 100.0, "dur": 50.0, "args": {"value": 7}},
            {"name": "scavenge", "ph": "X", "pid": 0, "tid": 1,
             "ts": 110.0, "dur": 20.0},
            {"name": "lookup.miss", "ph": "X", "pid": 0, "tid": 1,
             "ts": 120.0, "dur": 15.0},
            # Another thread's span is not a child.
            {"name": "lock.wait", "ph": "X", "pid": 1, "tid": 2,
             "ts": 100.0, "dur": 50.0},
            {"name": "pb.parse", "ph": "X", "pid": 0, "tid": 1,
             "ts": 90.0, "dur": 5.0, "args": {"value": 7}},
        ]}
        with tempfile.NamedTemporaryFile("w", suffix=".trace",
                                         delete=False) as f:
            f.write(json.dumps(doc) + "\n")
        try:
            spans = metrics.replay_spans(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(spans["self_us"]["pb.execute"], [25.0])
        self.assertEqual(spans["self_us"]["pb.parse"], [5.0])
        self.assertEqual(spans["gc_us"], 20.0)
        self.assertEqual(spans["requests"], 1)


HEALTH = json.loads("""
{"shards":[{"id":0,"state":"serving","restarts":0}],
 "requests":{"completed":10,"errors":0},
 "telemetry":{
   "counters":{"gc.scavenges":3,"serve.requests":10,"lock.alloc.delays":0},
   "gauges":{"mem.old.used":1048576},
   "histograms":{
     "serve.latency":{"count":10,"p50_ns":2000000,"p95_ns":3000000,
                      "p99_ns":4000000,"max_ns":5000000},
     "serve.batch.size":{"count":4,"p50_reqs":2,"p95_reqs":3,"p99_reqs":3,
                         "max_reqs":4}}}}
""")


class HealthTest(unittest.TestCase):
    def test_counter_gauge_and_missing_names(self):
        self.assertEqual(metrics.counter(HEALTH, "gc.scavenges"), 3)
        self.assertEqual(metrics.counter(HEALTH, "no.such.counter"), 0)
        self.assertEqual(metrics.gauge(HEALTH, "mem.old.used"), 1048576)

    def test_histogram_fields_whatever_their_unit(self):
        self.assertEqual(metrics.hist(HEALTH, "serve.latency", "p99"), 4000000)
        self.assertEqual(metrics.hist(HEALTH, "serve.latency", "count"), 10)
        self.assertEqual(metrics.hist(HEALTH, "serve.batch.size", "p50"), 2)
        self.assertEqual(metrics.hist(HEALTH, "gc.full.pause", "p50"), 0)

    def test_counter_deltas_between_boundaries(self):
        later = json.loads(json.dumps(HEALTH))
        later["telemetry"]["counters"]["gc.scavenges"] = 8
        later["telemetry"]["counters"]["gc.full.collections"] = 1
        d = metrics.counter_deltas(HEALTH, later)
        self.assertEqual(d["gc.scavenges"], 5)
        self.assertEqual(d["gc.full.collections"], 1)
        self.assertEqual(d["serve.requests"], 0)

    def test_empty_reading(self):
        self.assertEqual(metrics.counter({}, "gc.scavenges"), 0)
        self.assertEqual(metrics.counter_deltas({}, HEALTH)["gc.scavenges"], 3)


if __name__ == "__main__":
    unittest.main()
