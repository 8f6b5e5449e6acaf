#!/usr/bin/env python3
"""Repeat mode: run one workload N times, one process per run, each with
its own seed, and print every metric's median and quartiles.

    python3 perfbench/repeat.py --workload op_sweep --runs 10
    python3 perfbench/repeat.py --workload op_sweep --runs 10 --save a.json
    python3 perfbench/repeat.py --workload op_sweep --runs 10 --against a.json

Checks against the bounds in BENCHMARK.json:
  - every end-to-end metric but setup_s spreads (third minus first
    quartile, as a share of the median) by no more than its bound;
  - every run is correct, and the share of failed operations is the same
    in every run;
  - with --against, no metric's median is worse than the saved set's by
    more than its bound.
Exits 1 when a check fails.  --trace 1 summarises the per-layer metrics
instead, without bounds.

Seeds 1..N are the tuning seeds; seed 9001 is held out for later claims
(run it with --first-seed 9001 --runs 1).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join(ROOT, "perfbench", "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"seed {seed}: no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit"] = proc.returncode
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--save", help="write the runs to this JSON file")
    ap.add_argument("--against", help="compare medians with runs saved by --save")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in bench[kind]}

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        r = run_once(args.workload, seed, bench["run_seconds"], args.trace)
        r["seed"] = seed
        runs.append(r)
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} exit={r['exit']}", file=sys.stderr)

    problems = []
    if set(runs[0]["metrics"]) != set(declared):
        problems.append(f"printed metrics {sorted(runs[0]['metrics'])} differ from BENCHMARK.json")
    for r in runs:
        if not r["correct"] or r["exit"] != 0:
            problems.append(f"seed {r['seed']}: correct={r['correct']} exit={r['exit']}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    if len(shares) > 1:
        problems.append(f"failed share differs between runs: {sorted(shares)}")

    saved = None
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)

    print(f"{args.workload}: {len(runs)} runs, seeds {runs[0]['seed']}..{runs[-1]['seed']}, "
          f"failed share {sorted(shares)}")
    print(f"  {'metric':34} {'unit':6} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, decl in declared.items():
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = decl.get("bound")
        print(f"  {name:34} {decl['unit']:6} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}")
        if bound is None:
            continue
        if name != "setup_s" and spread > bound:
            problems.append(f"{name}: spread {spread:.3f} exceeds bound {bound}")
        if saved is not None:
            old = statistics.median([r["metrics"][name]["value"] for r in saved])
            worse = (med - old) / old if decl["better"] == "lower" else (old - med) / old
            print(f"  {'':34} {'':6} saved median {old:12.6g}, worse by {worse:+.3f}")
            if worse > bound:
                problems.append(f"{name}: median worse than the saved set by {worse:.3f} > {bound}")
    if saved is not None:
        old_shares = {r["failed"] / r["attempted"] for r in saved}
        if old_shares != shares:
            problems.append(f"failed share {sorted(shares)} differs from the saved {sorted(old_shares)}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    for p in problems:
        print("FAIL: " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
