#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
the library and the benchmark binary from source in the build
directory ($CARGO_TARGET_DIR if set, else .bench_build); later calls
only check the build. The workload runs in its own process. Its report
lines are passed through, followed by a machine record and, last, one
JSON line: {"correct", "attempted", "failed", "metrics"}. A run with
--trace 0 reports the end-to-end metrics of BENCHMARK.json, a run with
--trace 1 its per-layer metrics (those of layers the workload never
calls read 0) and writes a Chrome trace under .bench_out/.
"""
import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig2-paper", "daemon-steady", "flow-continental")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure once, then (re)build the library and the benchmark binary."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "poc_perfbench", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step failed: %s: %s" % (" ".join(cmd), e), 3)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build step failed: %s\n%s" % (" ".join(cmd), tail), 3)
    return os.path.join(bdir, "poc_perfbench")


def source_digest():
    """SHA-256 over the library sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def machine_record(build_line):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    rec = {"nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit,
           "source_digest": source_digest()}
    rec.update(build_line)
    return rec


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s; run from the root of a full checkout" % ROOT, 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build(build_dir())
    out_dir = os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                                        args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S), 4)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("workload %s exited with code %d" % (args.workload, proc.returncode), 5)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("workload %s printed no result line" % args.workload, 5)
    build_line = {}
    for line in lines[:-1]:
        if line.startswith("build: "):
            build_line = json.loads(line[len("build: "):])
        else:
            print(line)

    # Report exactly the metrics BENCHMARK.json names for this kind of run.
    named = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    extra = sorted(set(result["metrics"]) - named)
    if extra:
        fail("workload reported metrics BENCHMARK.json does not name: %s" % ", ".join(extra), 6)
    known = {m["name"]: m["unit"] for m in wanted}
    metrics = {k: v for k, v in result["metrics"].items() if k in known}
    for name, unit in known.items():
        if name not in metrics:
            if not args.trace:
                fail("workload did not report end-to-end metric %s" % name, 6)
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metrics[name]["unit"], unit), 6)
    result["metrics"] = {name: metrics[name] for name in sorted(metrics)}
    print("machine: " + json.dumps(machine_record(build_line), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
