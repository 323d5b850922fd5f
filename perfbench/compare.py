#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric and workload by
workload.

    python3 perfbench/compare.py runs/parent runs/change
    python3 perfbench/compare.py runs/a            # one set: spreads only

A set is a directory of saved run outputs (perfbench/sweep.py writes
them): each file holds one run's standard output, whose host line names
the workload and whose last line is the JSON result. For each metric and
workload the table gives each side's median and quartiles
(statistics.quantiles, n=4), the spread (interquartile distance over the
median), the change of the second median against the first, and the
verdict against the metric's bound in BENCHMARK.json:

  ok       the second median is not worse by more than the bound
  WORSE    it is worse by more than the bound
  NOISY    a side's spread exceeds the bound (setup_s is exempt), so the
           comparison cannot be trusted

Metrics without a bound (per-layer metrics of traced runs) are shown
without a verdict. The exit code is 1 when any verdict is WORSE or
NOISY, or when the two sets fail a different share of operations.
"""

import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        metrics[m["name"]] = m
    return metrics


def load_set(directory):
    """{workload: [result, ...]} from every run output in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        workload = None
        for line in lines:
            match = re.match(r"host: workload=(\S+)", line)
            if match:
                workload = match.group(1)
        if workload is None or not lines:
            print("skipping %s: not a run output" % path, file=sys.stderr)
            continue
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print("skipping %s: no JSON result" % path, file=sys.stderr)
            continue
        runs.setdefault(workload, []).append(result)
    return runs


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    return med, q1, q3, spread


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return failed / attempted if attempted else 0.0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sets = [load_set(d) for d in argv[1:]]
    status = 0
    workloads = sorted(set().union(*[s.keys() for s in sets]))
    for workload in workloads:
        sides = [s.get(workload, []) for s in sets]
        counts = " vs ".join(str(len(r)) for r in sides)
        incorrect = sum(1 for r in sum(sides, []) if not r["correct"])
        shares = [failed_share(r) for r in sides if r]
        print("\n%s  (runs: %s, incorrect runs: %d, failed share: %s)" % (
            workload, counts, incorrect,
            " vs ".join("%.6g" % s for s in shares)))
        if incorrect or (len(shares) == 2 and shares[0] != shares[1]):
            status = 1
        names = []
        for r in sum(sides, []):
            for name in r["metrics"]:
                if name not in names:
                    names.append(name)
        for name in names:
            m = spec.get(name, {})
            bound = m.get("bound")
            cols = []
            stats = []
            for results in sides:
                values = [r["metrics"][name]["value"] for r in results
                          if name in r["metrics"]]
                if not values:
                    cols.append("%-40s" % "-")
                    stats.append(None)
                    continue
                med, q1, q3, spread = summary(values)
                stats.append((med, spread))
                cols.append("%12.6g [%10.6g, %10.6g] %5.1f%%" % (
                    med, q1, q3, 100 * spread))
            verdict = ""
            if bound is not None:
                noisy = name != "setup_s" and any(
                    s is not None and s[1] > bound for s in stats)
                verdict = "NOISY" if noisy else "ok"
                if len(stats) == 2 and None not in stats and stats[0][0]:
                    change = (stats[1][0] - stats[0][0]) / stats[0][0]
                    worse = change if m["better"] == "lower" else -change
                    cols.append("%+6.1f%%" % (100 * change))
                    if worse > bound:
                        verdict = "WORSE"
                if verdict != "ok":
                    status = 1
                verdict += " (bound %g%%)" % (100 * bound)
            print("  %-24s %s  %s" % (name, "  ".join(cols), verdict))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
