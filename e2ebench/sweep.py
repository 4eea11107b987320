#!/usr/bin/env python3
"""Runs the benchmark over a seed set and reports each metric's spread.

    python3 e2ebench/sweep.py --set default sim-contended check-corpus
    python3 e2ebench/sweep.py --set heldout soak-crash

Run from the repository root. For every workload it runs e2ebench/run.sh
once per seed of the set (ten seeds) and prints, per end-to-end metric,
the median, the quartiles (as statistics.quantiles(values, n=4) gives
them) and the spread (Q3 - Q1) / median next to the metric's bound from
BENCHMARK.json.
The tuning seeds are the "default" set; a gain claim must also hold on
the "heldout" set, which no benchmark or program change was tuned on.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEED_SETS = {
    "default": list(range(1, 11)),
    "heldout": list(range(21, 31)),
}


def run_once(workload, seed, seconds):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="*", help="workloads (default: all in BENCHMARK.json)")
    ap.add_argument("--set", choices=sorted(SEED_SETS), default="default")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    seeds = SEED_SETS[args.set]

    worst = 0.0
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        failed = 0
        for seed in seeds:
            res = run_once(w, seed, spec["run_seconds"])
            failed += res["failed"] + (0 if res["correct"] else 1)
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics),
                file=sys.stderr, flush=True)
        print(f"\n{w} ({args.set} seeds {seeds[0]}..{seeds[-1]}, failures {failed})")
        print(f"  {'metric':30s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in metrics:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:30s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {m['bound']:>6}")
    print(f"\nlargest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
