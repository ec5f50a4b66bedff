#!/usr/bin/env python3
"""Self-check of the benchmark: run-to-run spread, self-vs-self, sensitivity.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py spread      --workloads W[,W..] [--runs 10]
    python3 perfbench/selfcheck.py self        --workloads W[,W..] [--runs 10]
    python3 perfbench/selfcheck.py sensitivity --workloads W[,W..] --spin-us X

spread       runs each workload with --runs different seeds and prints, per
             end-to-end metric, the median and the interquartile range as a
             share of the median (statistics.quantiles, n=4), against the
             metric's bound from BENCHMARK.json.
self         two such sets (seeds 1..N, then N+1..2N) of the same build:
             every metric's second median must not be worse than the first
             by more than its bound.
sensitivity  a baseline set, then a set whose engine spins --spin-us before
             every evaluation; prints which metrics the bound flags.

Exits non-zero if a spread, a self-vs-self comparison, or (for
sensitivity) the expected flag fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, spin_us):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
           "0", "--spin-us", str(spin_us)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit("run failed: %s seed %d (exit %d)" %
                 (workload, seed, proc.returncode))
    return {k: v["value"] for k, v in result["metrics"].items()}


def run_set(workload, seeds, seconds, spin_us=0.0):
    runs = []
    for seed in seeds:
        runs.append(run_once(workload, seed, seconds, spin_us))
        print("  %s seed %d done" % (workload, seed), file=sys.stderr,
              flush=True)
    return {name: [r[name] for r in runs] for name in runs[0]}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def report_spread(workload, seeds, runs, metrics):
    """Prints each metric's median and IQR/median; False if one is wider
    than its bound."""
    print("\n%s (%d runs, seeds %d..%d)" %
          (workload, len(seeds), seeds[0], seeds[-1]))
    print("%-16s %14s %9s %7s %s" %
          ("metric", "median", "IQR/med", "bound", "verdict"))
    ok = True
    for name, values in runs.items():
        med, sp = spread(values)
        bound = metrics[name]["bound"]
        verdict = "ok" if sp <= bound / 3 else (
            "within bound" if sp <= bound else "TOO WIDE")
        if sp > bound:
            ok = False
        print("%-16s %14.5f %9.4f %7.3f %-12s %s" %
              (name, med, sp, bound, verdict,
               " ".join("%.4g" % v for v in values)))
    return ok


def worse_by(metric, base, new):
    """Relative worsening of median `new` against median `base`."""
    if metric["better"] == "lower":
        return (new - base) / base
    return (base - new) / base


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("spread", "self", "sensitivity"))
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--spin-us", type=float, default=0.0)
    args = ap.parse_args()
    spec = load_spec()
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    seeds_a = list(range(args.first_seed, args.first_seed + args.runs))
    seeds_b = [s + args.runs for s in seeds_a]
    for workload in args.workloads.split(","):
        a = run_set(workload, seeds_a, seconds)
        if not report_spread(workload, seeds_a, a, metrics):
            ok = False
        if args.mode == "spread":
            continue
        if args.mode == "self":
            b = run_set(workload, seeds_b, seconds)
            if not report_spread(workload, seeds_b, b, metrics):
                ok = False
            label = "second set (seeds %d..%d) vs first" % (seeds_b[0],
                                                              seeds_b[-1])
        else:
            b = run_set(workload, seeds_a, seconds, args.spin_us)
            label = "spin %.2f us per evaluation vs baseline" % args.spin_us
        print("  %s:" % label)
        flagged = []
        for name in a:
            base = statistics.median(a[name])
            new = statistics.median(b[name])
            w = worse_by(metrics[name], base, new)
            bad = w > metrics[name]["bound"]
            if bad:
                flagged.append(name)
            print("  %-16s %14.5f -> %14.5f worse by %+.4f %s" %
                  (name, base, new, w, "FLAGGED" if bad else ""))
        if args.mode == "self" and flagged:
            ok = False
        if args.mode == "sensitivity" and not flagged:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
