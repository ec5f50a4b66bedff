#!/usr/bin/env python3
"""TopPriv serving benchmark: build, run one workload, print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the library sources it compiles) into the build
directory (CARGO_TARGET_DIR if set, else .bench_build), runs the benchmark
binary (every fixed setting of a workload is a constant in
toppriv_perfbench.cc), prints each metric by name and unit, and ends with
one JSON line:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. Exits non-zero if the build fails, an output check fails,
or a metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root):
    cmake_dir = os.path.join(build_root, "cmake")
    binary = os.path.join(cmake_dir, "toppriv_perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", cmake_dir, "--target", "toppriv_perfbench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0 or not os.path.exists(binary):
        return None
    return binary


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it exists."""
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spin-us", type=float, default=0.0,
                    help="spin this long before every engine evaluation "
                         "(sensitivity check only)")
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    if binary is None:
        log("build failed")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", build_root, "--spin-us", str(args.spin_us)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("benchmark timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("benchmark printed nothing (exit code %d)" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("benchmark did not end with a JSON line (exit code %d)" %
            proc.returncode)
        return 1

    for line in lines[:-1]:
        print(line)
    for name, m in result["metrics"].items():
        print("%-34s %16.6f %s" % (name, m["value"], m["unit"]))
    want = expected_metrics(bool(args.trace))
    missing = sorted(want - set(result["metrics"])) if want else []
    extra = sorted(set(result["metrics"]) - want) if want else []
    if missing or extra:
        log("metrics differ from BENCHMARK.json: missing %s, extra %s" %
            (missing, extra))
        return 1
    print(json.dumps(result))
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
