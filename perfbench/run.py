#!/usr/bin/env python3
"""Builds and runs the fresh-decision benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the benchmark with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the root; later runs only check that the build is up to
date. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Exits nonzero, printing no result,
when the build, the quantile unit checks or the benchmark fail.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_u03", "mixed_sat")


def check_call(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write("run.py: command failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = os.path.join(target, "perfbench")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", build])
    check_call(["cmake", "--build", build, "-j", str(min(4, os.cpu_count() or 1))])
    check_call([os.path.join(build, "perfbench_quantile_test")])

    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        sys.stderr.write("run.py: benchmark exited with %d\n" % result.returncode)
        sys.exit(1)

    lines = result.stdout.rstrip("\n").split("\n")
    summary = json.loads(lines[-1])
    names = list(summary["metrics"])
    if names != expected_metrics(args.trace):
        sys.stderr.write("run.py: metrics %s do not match BENCHMARK.json\n" % names)
        sys.exit(1)
    lines.insert(-1, digest_note(args.workload, args.seed, lines))
    sys.stdout.write("\n".join(lines) + "\n")


def digest_note(workload, seed, lines):
    """Compares the run's decision digest with the recorded one, if any."""
    prefix = "# digest %s seed %d: " % (workload, seed)
    digest = next((l[len(prefix):] for l in lines if l.startswith(prefix)), None)
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f).get(workload, {}).get(str(seed))
    if recorded is None:
        return "# digest: no recorded reference for this seed"
    if digest == recorded:
        return "# digest: matches the recorded reference"
    return "# digest CHANGED: recorded %s, now %s" % (recorded, digest)


if __name__ == "__main__":
    main()
