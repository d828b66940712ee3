#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs every workload of BENCHMARK.json (or the ones named) several times,
each with another seed, and reports for each end-to-end metric the
distance between the first and third quartile of its values as a share
of their median, next to the metric's bound. A spread over the bound
or any failed run makes the exit code 1.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload NAME ...]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: wrong answer")
    return result, took


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        failed = attempted = 0
        for i in range(args.runs):
            seed = args.first_seed + i
            result, took = run_once(bench, workload, seed)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {took:.1f} s, "
                  + ", ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
                  flush=True)
        print(f"\n{workload}: {args.runs} runs, {failed}/{attempted} operations failed")
        print(f"  {'metric':<16} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            s, med = spread(values[m["name"]])
            verdict = "ok" if s <= m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
            if s > m["bound"]:
                bad = True
            print(f"  {m['name']:<16} {med:>14.6g} {s:>8.4f} {m['bound']:>6}  {verdict} ({m['unit']})")
        print(flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
