#!/usr/bin/env python3
"""Record a set of benchmark runs, one per seed, for compare.py.

    python3 perfbench/runset.py --out DIR [--workload W ...] [--seeds 1-10]
                                [--seconds N] [--trace 0|1] [--root NAME=PATH ...]

Each run's report goes to DIR/<NAME>/<workload>-seed<n>.txt. With two or
more --root checkouts (default: A=this checkout) the runs of one seed
alternate between them, and the order flips every seed, so that slow
drift of the machine falls on both sides alike. Compare two sets with
`python3 perfbench/compare.py DIR/A DIR/B`.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--root", action="append", default=[],
                    help="NAME=PATH of a checkout to run (repeatable)")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    roots = [r.split("=", 1) for r in args.root] or [["A", ROOT]]
    failures = 0
    for i, seed in enumerate(seed_list(args.seeds)):
        order = roots if i % 2 == 0 else list(reversed(roots))
        for workload in workloads:
            for name, root in order:
                dest = os.path.join(args.out, name)
                os.makedirs(dest, exist_ok=True)
                cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
                       "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
                path = os.path.join(dest, "%s-seed%d.txt" % (workload, seed))
                with open(path, "w") as f:
                    f.write(proc.stdout)
                status = "ok" if proc.returncode == 0 else "FAILED (%d)" % proc.returncode
                if proc.returncode != 0:
                    failures += 1
                    sys.stderr.write(proc.stderr[-2000:])
                print("%s %s seed %d: %s" % (name, workload, seed, status), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
