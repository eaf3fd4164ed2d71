#!/usr/bin/env python3
"""Runs the benchmark repeatedly and records each run's result line as JSONL.

    python3 benchmark/collect.py --runs 10 --out runs.jsonl
    python3 benchmark/collect.py --runs 10 --out change.jsonl \\
        --against ../parent-checkout --out-against parent.jsonl
    python3 benchmark/collect.py --runs 5 --fixed-seed --out base.jsonl \\
        --baseline benchmark/baseline.json

Run i uses seed SEED + i, or SEED every time with --fixed-seed. Each
workload runs through benchmark/run.py of the checkout that holds this
script. With --against, every run is a pair: the same workload and seed also
runs in the other checkout, and which side goes first alternates with i.
Each output line is the benchmark's own JSON line plus "run" and
"checkout". --baseline also writes the medians and quartiles of --out per
workload and metric, with nproc and the date. Feed two JSONL files to
compare.py.
"""
import argparse
import datetime
import json
import os
import subprocess
import sys

from compare import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_RUN_TIMEOUT_S = 900  # the first run of a checkout builds it


def run_once(checkout, workload, seed, trace):
    # The run length is left to run.py: run_seconds of BENCHMARK.json.
    cmd = [sys.executable, os.path.join("benchmark", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                          timeout=FIRST_RUN_TIMEOUT_S)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        sys.exit(f"collect.py: {checkout}: {workload} seed {seed} printed no result")
    return json.loads(lines[-2])  # the benchmark's line; the last is run.py's summary


def summarize(rows, runs, seed):
    workloads = {}
    for row in rows:
        if not row["ok"]:
            continue
        for name, m in row["metrics"].items():
            workloads.setdefault(row["workload"], {}).setdefault(name, (m["unit"], []))[1] \
                .append(m["value"])
    out = {}
    for workload, metrics in workloads.items():
        out[workload] = {}
        for name, (unit, values) in metrics.items():
            q1, med, q3 = quartiles(values)
            out[workload][name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                                   "unit": unit}
    return {"date": datetime.date.today().isoformat(), "nproc": os.cpu_count(),
            "runs_per_workload": runs, "seed": seed, "workloads": out}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--fixed-seed", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--against", help="another checkout to pair every run with")
    parser.add_argument("--out-against")
    parser.add_argument("--baseline", help="also write a baseline summary of --out here")
    args = parser.parse_args()
    if bool(args.against) != bool(args.out_against):
        parser.error("--against and --out-against go together")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    sides = [(ROOT, args.out, "this")]
    if args.against:
        sides.append((os.path.abspath(args.against), args.out_against, "against"))
    files = {label: open(path, "a") for _, path, label in sides}
    rows = []
    try:
        for i in range(args.runs):
            seed = args.seed if args.fixed_seed else args.seed + i
            order = sides if i % 2 == 0 else list(reversed(sides))
            for workload in workloads:
                for checkout, _, label in order:
                    row = run_once(checkout, workload, seed, args.trace)
                    row.update({"run": i, "checkout": label})
                    files[label].write(json.dumps(row) + "\n")
                    files[label].flush()
                    if label == "this":
                        rows.append(row)
                    print(f"run {i} {label:<7} {workload:<13} seed {seed} "
                          f"{'ok' if row['ok'] else 'FAILED'}", file=sys.stderr)
    finally:
        for f in files.values():
            f.close()
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(summarize(rows, args.runs, args.seed), f, indent=2)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
