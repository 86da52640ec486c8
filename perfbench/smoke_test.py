#!/usr/bin/env python3
"""Smoke test for the decomposed-stack benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at reduced scale through
perfbench/run.py (building it first if needed) and checks that:
  * --trace 0 prints exactly the end_to_end metrics, --trace 1 exactly the
    per_layer metrics, each with its declared unit;
  * two runs at one seed print bit-identical virtual-clock metrics;
  * a run given a wrong expected content digest fails without a result.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VIRTUAL = ("goodput_kb_s", "lat_p50_ms", "lat_p99_ms")


def run(workload, trace, seed=7, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
           "--scale", "smoke", *extra]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)


def result(proc, what):
    if proc.returncode != 0:
        sys.exit(f"FAIL {what}: exit {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics(got, declared, what):
    want = {m["name"]: m["unit"] for m in declared}
    units = {name: m["unit"] for name, m in got["metrics"].items()}
    if units != want:
        missing = sorted(set(want) - set(units))
        extra = sorted(set(units) - set(want))
        wrong = sorted(n for n in set(want) & set(units) if want[n] != units[n])
        sys.exit(f"FAIL {what}: missing {missing} extra {extra} wrong units {wrong}")
    if got["attempted"] < 1 or got["failed"] != 0:
        sys.exit(f"FAIL {what}: attempted {got['attempted']} failed {got['failed']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        first = result(run(name, 0), f"{name} trace 0")
        check_metrics(first, bench["end_to_end"], f"{name} trace 0")
        again = result(run(name, 0), f"{name} trace 0 rerun")
        for m in VIRTUAL:
            if first["metrics"][m]["value"] != again["metrics"][m]["value"]:
                sys.exit(f"FAIL {name}: {m} differs between runs at one seed")
        check_metrics(result(run(name, 1), f"{name} trace 1"), bench["per_layer"],
                      f"{name} trace 1")
        print(f"ok {name}")
    bad = run("stream", 0, extra=("--expect-digest", "1"))
    if bad.returncode == 0 or any(line.startswith("{") for line in bad.stdout.splitlines()):
        sys.exit("FAIL stream with a wrong expected digest did not fail")
    print("ok wrong digest fails")


if __name__ == "__main__":
    main()
