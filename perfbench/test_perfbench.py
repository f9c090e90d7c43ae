#!/usr/bin/env python3
"""Tests of the perfbench benchmark itself.

Run from anywhere: python3 perfbench/test_perfbench.py
It builds the benchmark (or reuses .bench_build) and makes short runs of
every workload, so it takes a few minutes.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = 2
SEED = 101


def run(workload, seed, trace):
    """Run one benchmark invocation; returns (result, record)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s" % (proc.returncode,
                                                       proc.stdout))
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    path = os.path.join(ROOT, ".bench_out",
                        "%s-s%d-t%d.json" % (workload, seed, trace))
    with open(path) as handle:
        record = json.load(handle)
    return result, record


class PerfbenchTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            cls.spec = json.load(handle)
        for workload in (w["name"] for w in cls.spec["workloads"]):
            for trace in (0, 1):
                cls.runs[(workload, trace)] = run(workload, SEED, trace)

    def test_metric_names_and_units_match_benchmark_json(self):
        for (workload, trace), (result, _) in self.runs.items():
            listed = self.spec["per_layer" if trace else "end_to_end"]
            expected = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, expected, (workload, trace))

    def test_output_is_well_formed(self):
        for key, (result, record) in self.runs.items():
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"}, key)
            self.assertIs(result["correct"], True, (key, record["problems"]))
            self.assertIsInstance(result["attempted"], int)
            self.assertIsInstance(result["failed"], int)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(result["failed"], 0, key)
            for name, metric in result["metrics"].items():
                self.assertEqual(set(metric), {"value", "unit"}, name)
                value = metric["value"]
                self.assertIsInstance(value, (int, float), name)
                self.assertTrue(math.isfinite(value), name)
            if key[1] == 0:
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, (key, name))
            for field in ("nproc", "kernel", "compiler", "build_type",
                          "commit", "cpus", "steal_ticks",
                          "calibration_ms"):
                self.assertIn(field, record["stamp"], key)

    def test_sim_gray_dag_is_deterministic(self):
        first, first_record = self.runs[("sim_gray_dag", 0)]
        again, again_record = run("sim_gray_dag", SEED, 0)
        for note in ("vt.p50_us", "vt.p99_us", "vt.goodput", "hi.scheduled",
                     "hi.ok", "health.ejected"):
            self.assertEqual(first_record["notes"][note],
                             again_record["notes"][note], note)
        self.assertEqual(first["metrics"]["hi.calls_per_req"],
                         again["metrics"]["hi.calls_per_req"])
        # Virtual time does not depend on tracing either.
        traced = self.runs[("sim_gray_dag", 1)][1]
        self.assertEqual(first_record["notes"]["vt.p50_us"],
                         traced["notes"]["vt.p50_us"])

    def test_traced_and_untraced_runs_see_the_same_outcomes(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            plain = self.runs[(workload, 0)][1]["notes"]
            traced = self.runs[(workload, 1)][1]["notes"]
            for note in ("hi.scheduled", "hi.ok", "hi.failed"):
                self.assertEqual(plain[note], traced[note], (workload, note))


if __name__ == "__main__":
    unittest.main()
