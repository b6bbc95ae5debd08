#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py SET_A SET_B

A set is a directory of run reports as runset.py writes them
(<workload>-seed<n>.txt, the last line of each being the JSON result).
For every workload and end-to-end metric it prints each side's median
and quartiles, the spread (quartile distance over the median) against
the metric's bound, the share of seed-matched pairs that B wins, and
whether B's median is within the bound of A's. It also compares the
share of failed operations and warns when the two sets were measured
on different machines or builds. Exits 1 when any check fails.
"""
import glob
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MACHINE_KEYS = ("nproc", "cpu_model", "compiler", "build_type", "cxx_flags")


def load_set(path):
    """{workload: {seed: (result, machine)}}"""
    runs = {}
    for fname in sorted(glob.glob(os.path.join(path, "*-seed*.txt"))):
        m = re.match(r"(.+)-seed(\d+)\.txt$", os.path.basename(fname))
        with open(fname) as f:
            lines = f.read().strip().split("\n")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print("warning: %s holds no result line" % fname)
            continue
        machine = {}
        for line in lines:
            if line.startswith("machine: "):
                machine = json.loads(line[len("machine: "):])
        runs.setdefault(m.group(1), {})[int(m.group(2))] = (result, machine)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a, b = load_set(sys.argv[1]), load_set(sys.argv[2])
    ok = True
    for workload in sorted(set(a) & set(b)):
        ra, rb = a[workload], b[workload]
        print("== %s (%d runs vs %d runs)" % (workload, len(ra), len(rb)))
        ma = {k: v for run in ra.values() for k, v in run[1].items() if k in MACHINE_KEYS}
        mb = {k: v for run in rb.values() for k, v in run[1].items() if k in MACHINE_KEYS}
        if ma != mb:
            print("  WARNING: different machine or build: %s vs %s" % (ma, mb))
        share = []
        for runs in (ra, rb):
            share.append(set(r[0]["failed"] / r[0]["attempted"] for r in runs.values()))
            if not all(r[0]["correct"] for r in runs.values()):
                print("  a run reported correct=false")
                ok = False
        same_share = len(share[0]) == 1 and share[0] == share[1]
        print("  failed share: A %s, B %s -> %s" % (sorted(share[0]), sorted(share[1]),
                                                   "same" if same_share else "DIFFERENT"))
        ok = ok and same_share
        print("  %-12s %-34s %-34s %8s %8s %s" % ("metric", "A median [q1, q3] spread",
                                                 "B median [q1, q3] spread", "B wins", "B vs A",
                                                 "bound"))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            va = [r[0]["metrics"][name]["value"] for r in ra.values() if name in r[0]["metrics"]]
            vb = [r[0]["metrics"][name]["value"] for r in rb.values() if name in r[0]["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else float("inf")
            spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else float("inf")
            seeds = sorted(set(ra) & set(rb))
            wins = pairs = 0
            for s in seeds:
                x = ra[s][0]["metrics"][name]["value"]
                y = rb[s][0]["metrics"][name]["value"]
                pairs += 1
                if (y < x) if lower else (y > x):
                    wins += 1
            worse = (qb[1] - qa[1]) / qa[1] if lower else (qa[1] - qb[1]) / qa[1]
            within = worse <= bound
            steady = name == "setup_s" or (spread_a <= bound and spread_b <= bound)
            ok = ok and within and steady
            print("  %-12s %-34s %-34s %8s %+7.1f%% %s%s" % (
                name,
                "%.4g [%.4g, %.4g] %.1f%%" % (qa[1], qa[0], qa[2], 100 * spread_a),
                "%.4g [%.4g, %.4g] %.1f%%" % (qb[1], qb[0], qb[2], 100 * spread_b),
                "%d/%d" % (wins, pairs), 100 * worse, "%.0f%% " % (100 * bound),
                ("within" if within else "WORSE") + ("" if steady else ", SPREAD > bound")))
    print("OK" if ok else "NOT OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
