"""Self-tests for the benchmark's output checks: doctored reports must fail.

    python3 perfbench/test_check.py

Needs no build: the reports are synthetic tb_perfbench documents.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import check  # noqa: E402

TABLE4 = [  # (variant, CBR B/s, simulated seconds, out of time)
    ("1-wire", 0.0, 141.7517, False), ("2-wire (A)", 0.0, 117.6334, False),
    ("2x1-wire (B)", 0.0, 85.9196, False),
    ("1-wire", 0.3, 152.2688, False), ("2-wire (A)", 0.3, 125.3304, False),
    ("2x1-wire (B)", 0.3, 89.0384, False),
    ("1-wire", 1.0, 131.7677, True), ("2-wire (A)", 1.0, 144.1914, False),
    ("2x1-wire (B)", 1.0, 95.2196, False),
]


def base(workload, facts, trace=False, layers=None, attempted=2000):
    return {
        "workload": workload, "seed": 7, "trace": trace, "seconds": 20,
        "input_digest": "0123456789abcdef",
        "host": {"nproc": 4, "compiler": "gcc 12.2.0",
                 "build_type": "Release", "client_threads": 1},
        "attempted": attempted, "failed": 0, "failures": [],
        "setup_s": [0.0081, 0.0079, 0.0080],
        "ops_per_s": 201.5,
        "op_ns": {"count": attempted, "sampled": attempted,
                  "p50": 5.1e6, "p99": 1.2e7},
        "peak_rss_mb": 5.5, "facts": facts, "layers": layers or {},
    }


def cosim_report(**kwargs):
    cells = []
    for variant, rate, seconds, oot in TABLE4:
        cells.append({"key": "%s/%s" % (variant, rate), "paper": True,
                      "variant": variant, "cbr_bps": rate, "payload": 480,
                      "completed": True, "out_of_time": oot,
                      "total_s": seconds, "runs": 200, "mismatches": 0})
    cells.append({"key": "v1/r5/p96", "paper": False, "variant": "2-wire (A)",
                  "cbr_bps": 0.5, "payload": 96, "completed": True,
                  "out_of_time": False, "total_s": 45.2, "runs": 200,
                  "mismatches": 0})
    return base("cosim_table4", {"cells": cells}, **kwargs)


def fed_report():
    episodes = [{"index": i, "jobs": 1024, "acked": 1024, "consumed": 1024,
                 "duplicates": 0, "residual": 0, "drained": True,
                 "oracle_equivalent": True, "makespan_s": 9.3 + i / 10,
                 "drain_digest": "ab", "runs": 5, "mismatches": 0}
                for i in range(8)]
    return base("fed_drain", {"episodes": episodes}, attempted=40960)


def threaded_report():
    mix = {"threads": 4, "shards": 4, "noise": 512, "writes": 1000000,
           "named_takes": 992000, "wildcard_takes": 8000, "read_alls": 7900,
           "misses": 0, "live_size": 512}
    return base("threaded_mix", {"mix": mix}, attempted=1000000)


def cosim_layers():
    layers = {name: 1.5 for name in check.LAYER_METRICS["cosim_table4"]}
    del layers["cosim.paper_err_pct"]  # derived by the check from the facts
    return layers


class GoodReports(unittest.TestCase):
    def test_cosim_passes_with_paper_error(self):
        v = check.evaluate(cosim_report())
        self.assertTrue(v.correct, v.problems)
        self.assertEqual(v.failed, 0)
        self.assertEqual(set(v.metrics), set(check.END_TO_END))
        self.assertAlmostEqual(v.extra["cosim.paper_err_pct"], 3.6, delta=0.1)

    def test_fed_and_threaded_pass(self):
        for raw in (fed_report(), threaded_report()):
            v = check.evaluate(raw)
            self.assertTrue(v.correct, v.problems)
            self.assertEqual(set(v.metrics), set(check.END_TO_END))

    def test_traced_run_reports_every_layer_metric(self):
        v = check.evaluate(cosim_report(trace=True, layers=cosim_layers()))
        self.assertTrue(v.correct, v.problems)
        self.assertEqual(set(v.metrics), set(check.PER_LAYER))
        self.assertEqual(v.metrics["space.wildcard_us_p99"][0], 0.0)

    def test_result_line_has_exactly_the_contract_keys(self):
        line = check.evaluate(cosim_report()).result_line()
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["metrics"]["op_us_p50"],
                         {"value": 5100.0, "unit": "us"})
        self.assertEqual(line["metrics"]["ops_per_s"]["value"], 201.5)

    def test_debug_build_is_flagged_not_failed(self):
        raw = cosim_report()
        raw["host"]["build_type"] = "Debug"
        v = check.evaluate(raw)
        self.assertTrue(v.correct)
        self.assertTrue(any("non-Release" in w for w in v.warnings))


class DoctoredReports(unittest.TestCase):
    def assert_fails(self, raw, text):
        v = check.evaluate(raw)
        self.assertFalse(v.correct)
        self.assertTrue(any(text in p for p in v.problems), v.problems)
        return v

    def paper_cell(self, raw, variant, rate):
        return next(c for c in raw["facts"]["cells"]
                    if c["paper"] and c["variant"] == variant
                    and c["cbr_bps"] == rate)

    def test_paper_cell_that_newly_times_out(self):
        raw = cosim_report()
        self.paper_cell(raw, "2-wire (A)", 1.0)["out_of_time"] = True
        v = self.assert_fails(raw, "reads Out of Time, expected 144s")
        self.assertEqual(v.failed, 200)  # every run of the cell, no sentinel
        self.assertNotIn("cosim.paper_err_pct", v.extra)

    def test_out_of_time_cell_that_newly_completes(self):
        raw = cosim_report()
        self.paper_cell(raw, "1-wire", 1.0)["out_of_time"] = False
        self.assert_fails(raw, "expected Out of Time")

    def test_wrong_simulated_second(self):
        raw = cosim_report()
        self.paper_cell(raw, "1-wire", 0.3)["total_s"] = 153.6
        self.assert_fails(raw, "reads 154s, expected 152s")

    def test_cell_that_does_not_complete(self):
        raw = cosim_report()
        self.paper_cell(raw, "2x1-wire (B)", 0.0)["completed"] = False
        self.assert_fails(raw, "did not complete")

    def test_extra_cell_out_of_time(self):
        raw = cosim_report()
        raw["facts"]["cells"][-1]["out_of_time"] = True
        self.assert_fails(raw, "ran Out of Time")

    def test_repeat_that_differs(self):
        raw = cosim_report()
        raw["facts"]["cells"][-1]["mismatches"] = 3
        v = self.assert_fails(raw, "3 of 200 runs differ")
        self.assertEqual(v.failed, 3)

    def test_missing_paper_cell(self):
        raw = cosim_report()
        raw["facts"]["cells"].pop(0)
        self.assert_fails(raw, "never ran")

    def test_missing_metric(self):
        layers = cosim_layers()
        del layers["wire.cycles_per_op"]
        self.assert_fails(cosim_report(trace=True, layers=layers),
                          "wire.cycles_per_op missing")

    def test_nan_metric(self):
        raw = cosim_report()
        raw["op_ns"]["p99"] = float("nan")
        self.assert_fails(raw, "op_us_p99")
        layers = cosim_layers()
        layers["sim.host_ns_per_event"] = math.inf
        self.assert_fails(cosim_report(trace=True, layers=layers),
                          "sim.host_ns_per_event")

    def test_too_few_samples_for_p99(self):
        raw = cosim_report(attempted=900)
        self.assert_fails(raw, "p99 needs 10 beyond it")

    def test_threaded_conservation_break(self):
        raw = threaded_report()
        raw["facts"]["mix"]["named_takes"] -= 5  # five writes vanished
        v = self.assert_fails(raw, "conservation")
        self.assertGreaterEqual(v.failed, 5)

    def test_threaded_oracle_divergence(self):
        raw = threaded_report()
        raw["facts"]["oracle"] = {"records": 10, "equivalent": False,
                                  "divergence": "ticket 4: result mismatch"}
        self.assert_fails(raw, "OpLog replay diverged")

    def test_fed_undrained_and_unreplayable(self):
        raw = fed_report()
        raw["facts"]["episodes"][2]["residual"] = 3
        raw["facts"]["episodes"][2]["consumed"] = 1021
        v = self.assert_fails(raw, "undrained, 3 tuples left")
        self.assertEqual(v.failed, 1024 * 5)
        raw = fed_report()
        raw["facts"]["episodes"][0]["oracle_equivalent"] = False
        self.assert_fails(raw, "replay not equivalent")

    def test_program_reported_failures_count(self):
        raw = fed_report()
        raw["failed"] = 2
        raw["failures"] = ["episode 1 differs from its first run"]
        v = self.assert_fails(raw, "2 ops failed")
        self.assertEqual(v.failed, 2)

    def test_facts_missing(self):
        raw = copy.deepcopy(threaded_report())
        del raw["facts"]["mix"]["writes"]
        self.assert_fails(raw, "facts incomplete")


class BenchmarkFile(unittest.TestCase):
    def test_metrics_and_workloads_match_the_checks(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(check.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         check.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         check.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Command(unittest.TestCase):
    def test_fails_without_the_sources(self):
        """In a tree holding only the benchmark, run.py exits non-zero and
        prints no result."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fed_drain",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("correct", done.stdout)


if __name__ == "__main__":
    unittest.main()
