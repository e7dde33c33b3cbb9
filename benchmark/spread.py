#!/usr/bin/env python3
"""Runs the BENCHMARK.json command ten times per workload, each time with
another --seed, and prints for every end-to-end metric the distance between
the first and third quartile of its ten values as a share of their median,
next to the metric's bound: the check a benchmark must pass before it is
committed. Run from the repository root:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME ...] [--json FILE]

Exit status 1 if a run fails or a spread exceeds its bound."""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(manifest, workload, seed):
    cmd = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", "0",
    ]
    start = time.time()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    wall = time.time() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)}: exit status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)}: correct={result['correct']} failed={result['failed']}")
    return result, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="only this workload (repeatable)")
    ap.add_argument("--json", help="also write every run's metrics to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    names = args.workload or [w["name"] for w in manifest["workloads"]]
    wide = False
    record = {}
    for workload in names:
        values = {m["name"]: [] for m in manifest["end_to_end"]}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, wall = run_once(manifest, workload, seed)
            walls.append(wall)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        record[workload] = values
        print(f"\n{workload}: {args.runs} runs, wall {min(walls):.1f} to {max(walls):.1f} s each")
        print(f"  {'metric':<18} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>7}")
        for m in manifest["end_to_end"]:
            vals = values[m["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            verdict = ""
            if spread > m["bound"]:
                verdict, wide = "WIDE", True
            elif spread > m["bound"] / 3:
                verdict = "above a third of the bound"
            print(f"  {m['name']:<18} {q1:>12.4f} {med:>12.4f} {q3:>12.4f} {100*spread:>7.2f}% {100*m['bound']:>6.0f}% {verdict}")
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
