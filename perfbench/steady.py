#!/usr/bin/env python3
"""Steadiness check for the LTAM runtime benchmark.

Runs every workload of BENCHMARK.json repeatedly through
perfbench/run.py, alternating the workload order between rounds, with
seed r + 1 in round r, then prints, for each workload and end-to-end
metric, the median, the quartiles, and the spread (third minus first
quartile over the median) next to the metric's bound in BENCHMARK.json.
The bounds in BENCHMARK.json were set from this output.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 3 --trace-overhead

--trace-overhead additionally makes one traced run per round and
reports, per metric, the traced median against the untraced one: the
tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode())
        sys.exit("steady: %s seed %d failed" % (workload, seed))
    result = json.loads(done.stdout.decode().strip().splitlines()[-1])
    traced = None
    for line in done.stderr.decode().splitlines():
        if line.startswith("perfbench: traced end-to-end "):
            traced = json.loads(line[len("perfbench: traced end-to-end "):])
    return result, traced


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-overhead", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    results = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = r + 1
            result, _ = run(w, seed, bench["run_seconds"], 0)
            results[w].append(result)
            print("round %d %s seed %d: correct=%s attempted=%d failed=%d" % (
                r, w, seed, result["correct"], result["attempted"], result["failed"]),
                flush=True)
            if args.trace_overhead:
                _, t = run(w, seed, bench["run_seconds"], 1)
                traced[w].append(t)

    worst = 0.0
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("\n%s: failed share %s, all correct: %s" % (
            w, ", ".join("%.6f" % s for s in shares), all(r["correct"] for r in runs)))
        print("  %-22s %14s %14s %14s %8s %6s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "s/b"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, spread = summary(values)
            worst = max(worst, spread / bound)
            line = "  %-22s %14.6g %14.6g %14.6g %8.4f %6.3f %6.2f" % (
                name, median, q1, q3, spread, bound, spread / bound)
            if args.trace_overhead and traced[w] and traced[w][0]:
                t = statistics.median(x["metrics"][name]["value"] for x in traced[w])
                line += "   traced %.6g (%+.1f%%)" % (t, 100 * (t - median) / median)
            print(line)
    print("\nlargest spread/bound: %.2f" % worst)


if __name__ == "__main__":
    main()
