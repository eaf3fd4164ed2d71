#!/usr/bin/env python3
"""Compares two sets of benchmark runs, workload by workload and metric by metric.

    python3 benchmark/compare.py PARENT.jsonl CHANGE.jsonl
    python3 benchmark/compare.py RUNS_A.jsonl RUNS_B.jsonl --same

The files are collect.py output. For every workload and every end-to-end
metric of BENCHMARK.json, it prints each side's median and quartiles and one
verdict. A spread is Q3 - Q1 as a share of the median; a run pairs with the
run of the other file that has the same "run" index and seed. A metric's
bound is its BENCHMARK.json bound, or FLOOR below as a share of the
parent's median where that is larger (setup_s: 50 ms).

  improved    at least 10 pairs, the change wins at least 9/10 of them (ties
              count for neither), it is better, and the medians differ by
              more than the parent's Q3 - Q1;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound, and both spreads are within the bound;
  unresolved  a spread is wider than the bound (unless every change run
              reads better than every parent run);
  no change   otherwise.

--same compares two sets of runs of one commit: there is no pairing, and a
median difference beyond the bound in either direction is reported as
regressed or improved. The exit code is 1 when a run failed its checks or
any verdict is "regressed", and, with --same, also when one is "improved":
the two sets then disagree. "unresolved" is printed but does not fail.
"""
import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")
MIN_PAIRS = 10
WIN_RATE = 0.9
# Absolute floors under the relative bounds of BENCHMARK.json, whose format
# has no field for them: a metric's bound is max(relative bound x parent
# median, floor). Set-up may worsen by max(25%, 50 ms). Several set-ups take
# well under a millisecond, where host jitter is a large share of the value
# and no user would notice the difference.
FLOOR = {"setup_s": 0.05}


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    """(Q1, median, Q3), as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summary(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, pairs, higher_is_better, bound, floor, same):
    pq1, pm, pq3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if pm:
        bound = max(bound, floor / abs(pm))
    sign = 1.0 if higher_is_better else -1.0
    gain = sign * (cm - pm) / abs(pm) if pm else 0.0  # > 0: the change is better
    wide = max(spread(parent), spread(change)) > bound
    if same:
        if wide:
            return "unresolved"
        if gain < -bound:
            return "regressed"
        return "improved" if gain > bound else "no change"
    if -gain > bound:
        return "unresolved" if wide else "regressed"
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_RATE * len(pairs) and gain > 0
            and abs(cm - pm) > pq3 - pq1):
        return "improved"
    everyone_better = (min(change) > max(parent)) if higher_is_better \
        else (max(change) < min(parent))
    if wide and not everyone_better:
        return "unresolved"
    return "no change"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="runs of the parent commit (or set A with --same)")
    parser.add_argument("change", help="runs of the change (or set B with --same)")
    parser.add_argument("--same", action="store_true",
                        help="both files hold runs of one commit")
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    parent = [r for r in load_runs(args.parent) if not r.get("trace")]
    change = [r for r in load_runs(args.change) if not r.get("trace")]
    status = 0
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<14} {'metric':<18} {'A median [Q1, Q3]':>32} "
          f"{'B median [Q1, Q3]':>32} {'B vs A':>8} {'pairs':>5} {'wins':>4}  verdict")
    for workload in workloads:
        a_runs = [r for r in parent if r["workload"] == workload]
        b_runs = [r for r in change if r["workload"] == workload]
        failed = [r for r in a_runs + b_runs if not r["ok"]]
        if failed:
            print(f"{workload:<14} {len(failed)} run(s) failed their checks: "
                  f"{failed[0]['errors']}")
            status = 1
        a_runs = [r for r in a_runs if r["ok"]]
        b_runs = [r for r in b_runs if r["ok"]]
        if not a_runs or not b_runs:
            print(f"{workload:<14} (no passing runs on both sides)")
            continue
        by_key = {(r.get("run"), r["seed"]): r for r in a_runs}
        matched = [(by_key[(r.get("run"), r["seed"])], r) for r in b_runs
                   if (r.get("run"), r["seed"]) in by_key]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            pairs = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                     for x, y in matched]
            higher = metric["better"] == "higher"
            v = verdict(a, b, pairs, higher, metric["bound"], FLOOR.get(name, 0.0),
                        args.same)
            sign = 1.0 if higher else -1.0
            wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
            _, am, _ = quartiles(a)
            _, bm, _ = quartiles(b)
            delta = (bm - am) / abs(am) if am else 0.0
            print(f"{workload:<14} {name:<18} {summary(a):>32} {summary(b):>32} "
                  f"{delta:>+8.1%} {len(pairs):>5} {wins:>4}  {v}")
            if v == "regressed" or (args.same and v == "improved"):
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
