#!/usr/bin/env python3
"""Regenerate benchmarks/reference.json, the stored values the oracles compare to.

    python3 benchmarks/make_reference.py

Run it only when gaplab's numerical results are meant to change, and say so
in the change: the train, sweep and dump oracles compare every op to this file.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {"train": {}, "sweep": {}, "dump": {}}
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(out, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="reference-", dir=out)
    try:
        train = workloads.Train(work_dir, 0, {})
        train.setup()
        for s in range(workloads.TRAIN_SEEDS):
            _, out_dir, rc = train.op(s)
            if rc != 0:
                raise SystemExit(f"gaplab train seed {s} exited {rc}")
            with open(os.path.join(out_dir, "history.jsonl"), "rb") as f:
                reference["train"][str(s)] = workloads.final_epoch(f.read())
        for s in range(workloads.SWEEP_SEEDS):
            sweep = workloads.Sweep(work_dir, s, {})
            sweep.setup()
            reference["sweep"][str(s)] = workloads.parse_sweep_csv(sweep.expected.decode("utf-8"))
        for s in range(workloads.DUMP_SEEDS):
            dump = workloads.Dump(work_dir, s, {})
            dump.setup()
            _, cluster, probe = workloads.dump_eval(
                dump.path("images.emb"), dump.path("texts.emb"), s)
            reference["dump"][str(s)] = {
                "ari": float(cluster.ari),
                "v_measure": float(cluster.v_measure),
                "inertia": float(cluster.inertia),
                "probe_accuracy": float(probe),
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as f:
        json.dump(reference, f, indent=2)
        f.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
