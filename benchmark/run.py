#!/usr/bin/env python3
"""Builds the benchmark if needed and runs one workload.

    python3 benchmark/run.py --workload NAME --seed N [--seconds S] --trace 0|1
                             [further tgsim_benchmark flags, e.g. --trace-out F]

Run it from the root of a tgsim checkout. --seconds defaults to run_seconds
of BENCHMARK.json, the run length every comparison uses. The first call
configures and builds benchmark/build/tgsim_benchmark from the checkout's
sources (Release); later calls only rebuild what changed. The benchmark's
own JSON line is
printed first; the last line is the summary

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json (--trace 0) or
its per-layer metrics (--trace 1). Exits 1 when a check failed.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
BINARY = os.path.join(BUILD, "tgsim_benchmark")
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))
RUN_TIMEOUT_S = 170


def run_to_stderr(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        print(f"run.py: {' '.join(cmd)} failed ({proc.returncode})", file=sys.stderr)
        sys.exit(proc.returncode)


def build():
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time, should several runs start together.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            run_to_stderr(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"])
        run_to_stderr(["cmake", "--build", BUILD, "--target", "tgsim_benchmark",
                       "-j", BUILD_JOBS])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    print(lines[-1])

    correct = bool(result["ok"]) and proc.returncode == 0
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != expected:
        print("run.py: metric names differ from BENCHMARK.json", file=sys.stderr)
        correct = False
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
