#!/usr/bin/env python3
"""Linearity gate: per-log cost must not grow with stream length.

    python3 tools/check_linearity.py

Runs the end-to-end benchmark's d1_long workload (perfbench/run.py, untraced)
once per seed in SEEDS, for SECONDS at SCALE. d1_long replays one long
stream in ten equal segments and reports `tail_slowdown`: the last segment's
per-log time over the first's.
The gate fails (exit 1) unless every run is correct with no failed
operations and the median `tail_slowdown` stays at or below MAX_SLOWDOWN. A
pipeline whose per-log cost grows with how much it has already seen — a
quadratic retention, an index that never stops growing — fails it.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
SECONDS = 5
SCALE = 0.5
MAX_SLOWDOWN = 1.25


def run_once(seed):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", "d1_long", "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0", "--scale", str(SCALE)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None, "seed %d: no result (exit %d)" % (seed, proc.returncode)
    try:
        return json.loads(lines[-1]), None
    except ValueError:
        return None, "seed %d: unreadable result (exit %d)" % (
            seed, proc.returncode)


def main():
    failures = []
    slowdowns = []
    for seed in SEEDS:
        result, error = run_once(seed)
        if error:
            failures.append(error)
            continue
        slowdown = result["metrics"]["tail_slowdown"]["value"]
        print("seed %d: correct=%s failed=%d tail_slowdown=%.3f" % (
            seed, result["correct"], result["failed"], slowdown))
        if not result["correct"] or result["failed"] != 0:
            failures.append("seed %d: correct=%s failed=%d" % (
                seed, result["correct"], result["failed"]))
        slowdowns.append(slowdown)

    if slowdowns:
        median = statistics.median(slowdowns)
        print("median tail_slowdown %.3f (bound %.2f)" % (
            median, MAX_SLOWDOWN))
        if median > MAX_SLOWDOWN:
            failures.append("median tail_slowdown %.3f > %.2f" % (
                median, MAX_SLOWDOWN))
    for f in failures:
        print("FAIL %s" % f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
