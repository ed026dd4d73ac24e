#!/usr/bin/env python3
"""Run one perfbench workload N times and print each metric's spread.

    python3 perfbench/spread.py --workload gateway-repeat --runs 10 [--first-seed 1] [--seconds 40]

Each run is an untraced run (--trace 0) with the next seed. For every
metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread: the distance between the quartiles as a share of the median — the
figure BENCHMARK.json's bounds are set against. Run from the root of the
repository; the README's reference figures come from this command.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(args, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"run with seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    args = ap.parse_args()

    results = []
    for k in range(args.runs):
        res = run_once(args, args.first_seed + k)
        results.append(res)
        print(f"seed {args.first_seed + k}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)
    print(f"{args.workload}: {args.runs} runs")
    print(f"{'metric':30} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in sorted(results[0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:30} {unit:8} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share per run: {sorted(shares)}")


if __name__ == "__main__":
    main()
