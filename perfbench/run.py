#!/usr/bin/env python3
"""Builds and runs one workload of the LTAM runtime benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload wire_mixed --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which builds the
repository's `ltam` library from source) into .bench_build/perfbench;
later calls rebuild incrementally. Build output goes to standard error.
The last line of standard output is the run's JSON result (see
perfbench/README.md). Exits nonzero, without a result, when the build
or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "ltam_perfbench")
WORKLOADS = ("wire_mixed", "history_retention", "replica_catchup")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("perfbench: the repository sources (CMakeLists.txt, src/) are missing")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "ltam_perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world-seed", type=int, help="default: --seed")
    parser.add_argument("--schedule-seed", type=int, help="default: --seed")
    args = parser.parse_args()

    build()
    workdir = os.path.join(BUILD_ROOT, "work")
    cmd = [
        BINARY,
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%d" % args.seconds,
        "--trace=%d" % args.trace,
        "--workdir=" + workdir,
    ]
    if args.world_seed is not None:
        cmd.append("--world-seed=%d" % args.world_seed)
    if args.schedule_seed is not None:
        cmd.append("--schedule-seed=%d" % args.schedule_seed)
    try:
        done = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=sys.stderr, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = done.stdout.decode()
    lines = out.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        sys.exit("perfbench: run failed with code %d" % done.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
