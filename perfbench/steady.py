#!/usr/bin/env python3
"""Steadiness report: run one workload k times, each with another seed,
and print each end-to-end metric's median and quartile spread.

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. A
metric whose spread exceeds its bound in BENCHMARK.json is flagged; so
is one above a third of its bound, the margin the benchmark aims for.

Run from the repository root:

    python3 perfbench/steady.py --workload oltp --runs 5
    python3 perfbench/steady.py --workload all --runs 10 --first-seed 100

Exits 1 when any run fails its output checks or any metric's spread
exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    problems = [l for l in lines if l.startswith("problem ")]
    return result, wall, problems


def report(bench, workload, runs, first_seed):
    metrics = bench["end_to_end"]
    values = {m["name"]: [] for m in metrics}
    ok = True
    for i in range(runs):
        seed = first_seed + i
        result, wall, problems = run_once(
            bench["command"], workload, seed, bench["run_seconds"])
        print(f"{workload} seed {seed}: {wall:.1f}s wall, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        for p in problems:
            print("  " + p)
        ok &= result["correct"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    print(f"\n{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
    print(f"{'metric':48} {'median':>14} {'spread':>8} {'bound':>6}")
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("inf")
        bound = m["bound"]
        flag = ""
        if spread > bound:
            flag = "EXCEEDS BOUND"
            ok = False
        elif spread > bound / 3:
            flag = "above bound/3"
        print(f"{m['name']:48} {med:14.6g} {spread:8.4f} {bound:6.2f} {flag}")
    print("values in run order:")
    for m in metrics:
        print(f"  {m['name']}: " + " ".join(f"{x:.6g}" for x in values[m["name"]]))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name or 'all'")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    ok = True
    for w in workloads:
        if w not in names:
            raise SystemExit(f"unknown workload {w}; BENCHMARK.json has {names}")
        ok &= report(bench, w, args.runs, args.first_seed)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
