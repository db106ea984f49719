#!/usr/bin/env python3
"""Smoke test for the benchmark: runs every workload briefly, end to end and
traced, prints each run's summary, and checks that

* every run exits 0 and reports correct with 0 failed of >= 1 attempted,
* the end-to-end run emits exactly the end_to_end metrics of BENCHMARK.json
  and the traced run exactly its per_layer metrics, each with its unit,
* two end-to-end runs of one seed report the same outcome digest.

Usage, from the repository root: python3 perfbench/smoke.py [--seconds 2]
Exits 1 on the first failed check.
"""

import argparse
import json
import subprocess
import sys


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    print(proc.stdout, end="")
    lines = proc.stdout.strip().splitlines()
    detail = {}
    for line in proc.stderr.splitlines():
        if line.startswith('{"detail"'):
            detail = json.loads(line)["detail"]
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), detail


def expect(cond, what):
    if not cond:
        sys.exit(f"FAIL {what}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, e2e), (1, layers)):
            result, detail = run(bench, name, 7, args.seconds, trace)
            expect(result["correct"], f"{name} trace={trace}: not correct")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{name} trace={trace}: attempted {result['attempted']} failed {result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{name} trace={trace}: metrics {sorted(set(got) ^ set(wanted))} "
                                  f"missing or extra, or units differ")
            if trace == 0:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{name}: an end-to-end metric is not positive")
                _, again = run(bench, name, 7, args.seconds, 0)
                expect(detail.get("digest") == again.get("digest"),
                       f"{name}: digests differ between runs of one seed")
    print("smoke: ok")


if __name__ == "__main__":
    main()
