#!/usr/bin/env python3
"""LogLens end-to-end benchmark: builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload d1_long --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/CMakeLists.txt (the repo's src/ libraries
plus the benchmark program) into .bench_build at the repository root. It then
runs the program, checks that the result carries exactly the metrics
BENCHMARK.json declares for the trace mode, each with its unit, and prints
the result as the last line of stdout.
Build output and progress go to stderr. The exit code is non-zero when the
build fails, a correctness gate fails, or the result is malformed.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "loglens_perfbench"
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", TARGET],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, TARGET)


def check_metrics(result, trace):
    """Returns a list of problems with the result's shape."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys: %s" % sorted(result))
        return problems
    metrics = result["metrics"]
    for name in sorted(set(declared) - set(metrics)):
        problems.append("missing metric %s" % name)
    for name in sorted(set(metrics) - set(declared)):
        problems.append("undeclared metric %s" % name)
    for name, m in metrics.items():
        if name in declared and m.get("unit") != declared[name]:
            problems.append("%s: unit %r, declared %r"
                            % (name, m.get("unit"), declared[name]))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r" % (name, value))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["d1_long", "d4_parse", "d1_tick"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=[0, 1])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale (the self-test uses 0.05)")
    args = parser.parse_args()

    try:
        exe = build(os.path.join(ROOT, ".bench_build"))
    except (OSError, subprocess.CalledProcessError) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("no result from %s (exit %d)" % (TARGET, proc.returncode),
              file=sys.stderr)
        return 3
    problems = check_metrics(result, args.trace)
    for p in problems:
        print("bad result: %s" % p, file=sys.stderr)
    if problems:
        return 4
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
