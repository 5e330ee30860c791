"""Tests of the benchmark itself: the order-statistic helpers, and that
every metric the benchmark defines appears in `run.py`'s output.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The output test builds the benchmark and runs each workload on tiny
inputs (the hidden `--scale` flag), so it takes about a minute.
"""

import json
import statistics
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from benchstats import beyond, median, percentile, spread  # noqa: E402

ORGS = ["vr", "rr_incl", "rr_noincl", "goodman"]

# End-to-end metrics each workload prints with --trace 0.
END_TO_END = {
    "pops-file": ["pass_s", "refs_per_s", "setup_s", "peak_rss_mb", "ops_failed_frac"],
    "shared-8cpu": ["pass_s", "refs_per_s", "chunk_ms_p50", "chunk_ms_p95", "setup_s",
                    "peak_rss_mb", "ops_failed_frac"],
    "model-battery": ["pass_s", "transitions_per_s", "setup_s", "peak_rss_mb", "ops_failed_frac"],
}

# Per-layer metrics every workload prints with --trace 1.
PER_LAYER = [
    "trace.read_s", "trace.decode_s", "trace.bytes_per_ref", "trace.generate_s",
    "sim.loop_self_s", "sim.build_s", "sim.bus_self_s", "sim.bus_issues", "sim.snoop_deliveries",
    "model.states", "model.transitions", "model.scope_s_max", "exec.busy_share",
    "bench.trace_overhead", "bench.self_share",
] + [
    f"{layer}.{org}.{metric}"
    for org in ORGS
    for layer, metric in [
        ("core", "access_self_s"), ("core", "snoop_s"), ("core", "switch_s"),
        ("core", "l1_snoop_share"), ("core", "synonyms"), ("core", "inclusion_invalidations"),
        ("cache", "h1"), ("cache", "h2_local"), ("cache", "wb_stalls"), ("mem", "tlb_misses"),
        ("bus", "txns"), ("bus", "oracle_checks"), ("bus", "oracle_blocks"),
    ]
]

# The per-layer metrics a workload drives; the rest read 0 there.
NONZERO = {
    "pops-file": ["trace.read_s", "trace.decode_s", "trace.bytes_per_ref", "trace.generate_s",
                  "sim.loop_self_s", "sim.build_s", "sim.bus_issues", "core.vr.access_self_s",
                  "cache.vr.h1", "bench.self_share"],
    "shared-8cpu": ["trace.generate_s", "sim.bus_self_s", "sim.snoop_deliveries",
                    "core.rr_noincl.snoop_s", "core.vr.synonyms", "bus.vr.oracle_blocks"],
    "model-battery": ["model.states", "model.transitions", "model.scope_s_max", "exec.busy_share",
                      "bench.trace_overhead"],
}


class HelperTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(median([3.0]), 3.0)
        self.assertEqual(median([5.0, 1.0, 3.0]), 3.0)
        self.assertEqual(median([4.0, 1.0, 3.0, 2.0]), 2.5)
        with self.assertRaises(ValueError):
            median([])

    def test_percentile(self):
        values = [float(v) for v in range(1, 101)]
        self.assertAlmostEqual(percentile(values, 50), 50.5)
        self.assertAlmostEqual(percentile(values, 95), 95.05)
        self.assertAlmostEqual(percentile([1.0, 2.0], 50), 1.5)
        self.assertEqual(beyond(values, percentile(values, 95)), 5)
        with self.assertRaises(ValueError):
            percentile([1.0], 50)
        with self.assertRaises(ValueError):
            percentile(values, 100)

    def test_spread_matches_the_quartile_definition(self):
        values = [1.0, 2.0, 4.0, 8.0, 16.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread(values), (q3 - q1) / 4.0)
        self.assertEqual(spread([2.0, 2.0, 2.0]), 0.0)


def run_bench(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seconds", "0.05",
           "--trace", str(trace), "--scale", "0.002"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    printed = {line.split(" = ")[0] for line in lines if " = " in line}
    return printed, json.loads(lines[-1])


class OutputTest(unittest.TestCase):
    def test_every_metric_is_declared_once(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = [m["name"] for m in bench["end_to_end"]]
        layers = [m["name"] for m in bench["per_layer"]]
        self.assertEqual(sorted(layers), sorted(PER_LAYER))
        self.assertEqual(len(set(e2e + layers)), len(e2e + layers))
        self.assertIn("setup_s", e2e)

    def test_every_metric_appears_in_the_output(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"] for m in bench["end_to_end"]}
        for workload, names in END_TO_END.items():
            with self.subTest(workload=workload, trace=0):
                printed, result = run_bench(workload, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), e2e)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                for name in names:
                    self.assertIn(name, printed)
            with self.subTest(workload=workload, trace=1):
                printed, result = run_bench(workload, 1)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), set(PER_LAYER))
                self.assertTrue(set(PER_LAYER) <= printed)
                for name in NONZERO[workload]:
                    self.assertGreater(result["metrics"][name]["value"], 0, name)


if __name__ == "__main__":
    unittest.main()
