#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command in BENCHMARK.json on each workload with several seeds
(end-to-end mode) and reports, per (workload, metric), the median, the
quartiles from statistics.quantiles(values, n=4) and the spread
(q3 - q1) / median against the metric's bound. It also keeps every run's
per-lap rates and the host facts (effective cores, load average) recorded
at the start and end of each run, so a slow-band run can be recognised
later.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
        [--workloads sweep,churn,serve] [--out perfbench/results/steady.json]

Exits 1 if a run fails or a spread (other than setup_s) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    detail = None
    for line in proc.stderr.splitlines():
        if line.startswith('{"detail"'):
            detail = json.loads(line)["detail"]
    return proc.returncode, result, detail, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            code, result, detail, wall = run_once(bench, workload, seed, 0)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: exit {code}, result {result}")
                ok = False
                continue
            runs.append({
                "seed": seed,
                "wall_s": round(wall, 2),
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "lap_runs_per_sec": detail.get("lap_runs_per_sec") if detail else None,
                "lap_host_speed": detail.get("lap_host_speed") if detail else None,
                "wall_clock": detail.get("wall_clock") if detail else None,
                "host_start": detail.get("host_start") if detail else None,
                "host_end": detail.get("host_end") if detail else None,
                "digest": detail.get("digest") if detail else None,
            })
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        summary = {}
        if len(runs) >= 2:
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name] for r in runs]
                med, q1, q3, s = spread(values)
                bound = bounds.get(name)
                summary[name] = {"median": med, "q1": q1, "q3": q3,
                                 "spread": s, "bound": bound}
                flag = ""
                if bound is not None:
                    if s > bound and name != "setup_s":
                        flag = "  OVER BOUND"
                        ok = False
                    elif s > bound / 3:
                        flag = "  above a third of bound"
                print(f"  {workload:6} {name:16} median {med:<12.6g} spread {s:.4f}"
                      f" (bound {bound}){flag}")
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
