#!/usr/bin/env python3
"""Builds and runs one workload of the decomposed-stack benchmark.

    python3 perfbench/run.py --workload stream|rpc|churn --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the repo's src/ tree) into $CARGO_TARGET_DIR,
default .bench_build; later calls rebuild incrementally. The workload itself
runs in psdbench (one process per workload, so peak RSS is per workload),
whose stdout is passed through: its last line is the result object
{"correct", "attempted", "failed", "metrics"}. Any failure -- a missing
source tree, a build error, a failed correctness gate, a timeout -- exits
non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream", "rpc", "churn")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no source tree at {os.path.join(ROOT, 'src')}: run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "psdbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the benchmark.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "psdbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--scale", default="full", choices=("full", "smoke"))
    ap.add_argument("--expect-digest", help="override the stream content digest (hex)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 64)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--scale", args.scale,
           "--trace-dir", os.path.join(build_dir, "traces")]
    if args.expect_digest is not None:
        cmd += ["--expect-digest", args.expect_digest]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stdout.write("".join(line + "\n" for line in lines if not line.startswith("{")))
        fail(f"psdbench exited with {proc.returncode}", proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("psdbench printed no result object")
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys or result["correct"] is not True:
        fail("malformed result object")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
