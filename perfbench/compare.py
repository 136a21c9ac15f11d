#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the per-run detail files the driver writes
(`<build dir>/runs/<workload>-<seed>.json`; copy them aside after running
each commit). Untraced runs are compared on the end-to-end metrics of
BENCHMARK.json, pairing runs of the same workload by seed.

For every workload and metric it prints each side's median and quartiles
and a verdict:

- `improved`: the change wins at least 9/10 of the pairs (ties count for
  neither side) and its median beats the parent's by more than the
  parent's interquartile range;
- `regressed`: the change's median is worse than the parent's by more
  than the metric's bound;
- `unresolved`: either side's interquartile range, as a share of its
  median, exceeds the bound (unless every change run beats every parent
  run), so the data cannot tell;
- `unchanged`: none of the above.

Exits 1 when any metric regressed, 0 otherwise.
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_runs(directory):
    """{workload: {seed: {metric: value}}} for the untraced runs in a dir."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            try:
                run = json.load(handle)
            except ValueError:
                continue
        if not isinstance(run, dict) or run.get("trace") or "result" not in run:
            continue
        metrics = {name: entry["value"]
                   for name, entry in run["result"]["metrics"].items()}
        runs.setdefault(run["workload"], {})[run["seed"]] = metrics
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Applies the comparison rules to two lists (same seed order)."""
    lower = better == "lower"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    gap = (pm - cm) if lower else (cm - pm)
    worse = -gap
    spread_p = (p3 - p1) / abs(pm) if pm else float("inf")
    spread_c = (c3 - c1) / abs(cm) if cm else float("inf")
    dominates = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if pairs and wins >= 0.9 * len(pairs) and gap > (p3 - p1):
        return "improved", wins, len(pairs)
    if pm and worse > bound * abs(pm):
        return "regressed", wins, len(pairs)
    if (spread_p > bound or spread_c > bound) and not dominates:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(
                            os.path.dirname(os.path.abspath(__file__))),
                            "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as handle:
        spec = json.load(handle)
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    regressed = False
    header = "%-11s %-18s %-32s %-32s %-10s %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "verdict", "pairs won")
    print(header)
    for workload in spec["workloads"]:
        name = workload["name"]
        parent = parent_runs.get(name, {})
        change = change_runs.get(name, {})
        seeds = sorted(set(parent) & set(change))
        if not seeds:
            print("%-11s (no paired runs)" % name)
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            p = [parent[s][key] for s in seeds if key in parent[s]]
            c = [change[s][key] for s in seeds if key in change[s]]
            if len(p) != len(seeds) or len(c) != len(seeds):
                print("%-11s %-18s (missing in some runs)" % (name, key))
                continue
            result, wins, pairs = verdict(p, c, metric["better"], metric["bound"])
            regressed = regressed or result == "regressed"
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            print("%-11s %-18s %-32s %-32s %-10s %d/%d" % (
                name, key, "%.5g [%.5g, %.5g]" % (pm, p1, p3),
                "%.5g [%.5g, %.5g]" % (cm, c1, c3), result, wins, pairs))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
