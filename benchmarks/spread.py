#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workloads train,sweep,dump --seeds 10 [--out FILE]

Runs one benchmark process at a time, with seeds 0..N-1 and ``--trace 0``.
For every end-to-end metric it prints the median over seeds and the quartile
spread, (Q3 - Q1) / median with the
quartiles of ``statistics.quantiles(values, n=4)``, next to the metric's
bound from BENCHMARK.json. ``--out`` saves the whole table as JSON, with the
environment recorded by the last run of each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="train,sweep,dump")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    table = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in range(args.seeds)]
        failed = sum(r["failed"] for r in runs)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        saved = os.path.join(ROOT, ".bench_out",
                             f"result-{workload}-seed{args.seeds - 1}-trace0.json")
        with open(saved, "r", encoding="utf-8") as f:
            environment = json.load(f)["environment"]
        table[workload] = {"runs": len(runs), "failed_ops": failed,
                           "all_correct": all(r["correct"] for r in runs),
                           "run_wall_s": summarize([r["wall_s"] for r in runs]),
                           "environment_of_last_run": environment,
                           "metrics": metrics}
        print(f"{workload}: {len(runs)} runs, all correct: {table[workload]['all_correct']}, "
              f"median run wall {table[workload]['run_wall_s']['median']:.1f} s")
        for name, s in metrics.items():
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f"bound {bound}, {'ok' if s['spread'] < bound / 3 else 'WIDE'} (< bound/3)")
            print(f"  {name:14s} median {s['median']:.6g}  spread {s['spread']:.4f}  {verdict}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(table, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
