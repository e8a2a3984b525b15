#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at small scale.

    python3 perfbench/test_perfbench.py

Runs every workload at --scale 0.05, in both trace modes, through
perfbench/run.py: the ones BENCHMARK.json declares and d1_long, which is
run by hand (see README.md). Each run must exit 0 with correct=true and
no failed operations, emit every declared metric with its unit (run.py
rejects anything else), and in trace mode reconcile its layer times to
0.9..1.1 of the traced wall clock. Takes about a minute; the first run
builds the benchmark program.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.05"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    return proc


class SmallScaleRuns(unittest.TestCase):
    def test_every_workload_in_both_modes(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for workload in ["d1_long", "d4_parse", "d1_tick"]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    declared = spec["per_layer" if trace else "end_to_end"]
                    self.assertEqual(
                        {m["name"]: m["unit"] for m in declared},
                        {k: v["unit"] for k, v in result["metrics"].items()})
                    if trace:
                        coverage = result["metrics"]["pipeline.coverage"]
                        self.assertGreaterEqual(coverage["value"], 0.9)
                        self.assertLessEqual(coverage["value"], 1.1)


if __name__ == "__main__":
    unittest.main()
