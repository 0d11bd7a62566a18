#!/usr/bin/env python3
"""Self-tests of the benchmark, on its tiny-n smoke mode.

    python3 perfbench/test_run.py

Run from the repository root. Checks that every metric BENCHMARK.json
names is printed with its unit on every workload, in both the untraced and
the traced run; that the exact counters repeat for one seed; that an
injected output mismatch is counted as a failure and fails the command;
and that the command fails without a result where the sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
EXACT = ("rounds", "messages", "wire_messages", "baseline_messages")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, seed=1, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, trace, declared):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                proc = run(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = result_of(proc)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                metrics = result["metrics"]
                self.assertEqual(list(metrics), [m["name"] for m in declared])
                for m in declared:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                    self.assertIsInstance(metrics[m["name"]]["value"],
                                          (int, float))

    def test_end_to_end_metrics_print(self):
        self.check_metrics(0, SPEC["end_to_end"])

    def test_per_layer_metrics_print(self):
        self.check_metrics(1, SPEC["per_layer"])

    def test_exact_counters_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = result_of(run(workload, 0, seed=5))["metrics"]
                b = result_of(run(workload, 0, seed=5))["metrics"]
                for name in EXACT:
                    self.assertEqual(a[name]["value"], b[name]["value"], name)

    def test_injected_mismatch_is_counted(self):
        proc = run(WORKLOADS[0], 0, "--inject-mismatch")
        self.assertNotEqual(proc.returncode, 0)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["failed"], result["attempted"])
        self.assertIn("check failed: elkin", proc.stderr)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(WORKLOADS[0], 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
