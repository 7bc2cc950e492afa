#!/usr/bin/env python3
"""The benchmark's own test: python3 perfbench/test_perfbench.py

Runs `run.py --smoke`, which builds perfbench and takes every workload
through the untraced and the traced pass at a quick size. It fails when a
run throws or diverges from its workload's reference (a decorated run
included, on one thread and on the sharded workload's worker threads),
when a phase-sum check misses its tolerance, or when a result line does not
carry exactly the metrics and units BENCHMARK.json names.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class SmokeTest(unittest.TestCase):
    def test_smoke(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.strip().splitlines()[-1], "smoke: PASS")

        results = [json.loads(line) for line in proc.stdout.splitlines()
                   if line.startswith("{")]
        workloads = [w["name"] for w in spec["workloads"]]
        # One untraced, then one traced result line per workload.
        self.assertEqual(len(results), 2 * len(workloads))
        for i, result in enumerate(results):
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            expected = spec["per_layer" if i % 2 else "end_to_end"]
            self.assertEqual(
                {name: m["unit"] for name, m in result["metrics"].items()},
                {m["name"]: m["unit"] for m in expected})


if __name__ == "__main__":
    unittest.main()
