#!/usr/bin/env python3
"""Compares two sets of benchmark runs, parent and change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories (or single files) of result JSON written
by run.py into <build dir>/results/. Untraced runs are compared on every
end-to-end metric of BENCHMARK.json, one row per workload x metric, with
each side's median and quartiles, the pairs the change won (runs paired by
seed, then by run order), and a verdict from stats.compare: "regressed"
when the change's median is worse than the parent's by more than the
metric's bound, "unresolved" when either side's spread exceeds the bound,
"improved" only when the change wins nine tenths of the pairs by more
than the parent's interquartile distance. The workloads' own figures
(query, append, fresh and tick latencies, ...) follow as rows without a
bound, for information. Exits 1 when any bounded row regressed.
"""

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import stats  # noqa: E402


def load(path):
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json"))
    runs = {}
    for f in files:
        with open(f) as data:
            result = json.load(data)
        if result.get("trace") == 0 and result.get("correct"):
            runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["seed"])  # stable: keeps run order
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(args.parent), load(args.change)

    rows = []
    bounded = {m["name"] for m in spec["end_to_end"]}
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in parent[workload]]
            c = [r["metrics"][name]["value"] for r in change[workload]]
            row = stats.compare(p, c, metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"])
            rows.append(row)
        # The workload's own figures (query, append, fresh, tick, ...) have
        # no bound: they are compared for information, never "regressed".
        for name in sorted(parent[workload][0]["workload_metrics"]):
            if name in bounded or name in ("fail_frac", "limit_met"):
                continue
            p = [r["workload_metrics"][name]["value"] for r in parent[workload]]
            c = [r["workload_metrics"][name]["value"] for r in change[workload]]
            better = "higher" if name.endswith("_per_s") else "lower"
            row = stats.compare(p, c, better, math.inf)
            row.update(workload=workload, metric=name, bound=None,
                       unit=parent[workload][0]["workload_metrics"][name]
                       ["unit"])
            rows.append(row)
    for workload in sorted(set(parent) ^ set(change)):
        print(f"note: {workload} has runs on one side only", file=sys.stderr)

    print(f"{'workload':14s} {'metric':16s} {'parent median [q1, q3]':>34s}"
          f" {'change median [q1, q3]':>34s} {'won':>7s} {'worse':>7s}"
          f" {'bound':>6s}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        print(f"{r['workload']:14s} {r['metric']:16s} "
              f"{p['median']:12.4g} [{p['q1']:9.4g}, {p['q3']:9.4g}] "
              f"{c['median']:12.4g} [{c['q1']:9.4g}, {c['q3']:9.4g}] "
              f"{r['pairs_won']:3d}/{r['pairs']:<3d} "
              f"{r['worsening']:+7.1%} "
              + (f"{r['bound']:6.0%}  {r['verdict']}" if r["bound"]
                 else f"{'none':>6s}  {r['verdict']}"))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
