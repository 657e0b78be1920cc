"""Quick-mode smoke test of the benchmark: one op per phase on every workload.

    python3 -m pytest benchmarks/tests -q

Checks the last-line result schema, that the metric names and units match
BENCHMARK.json, and that every oracle passes. It does not check speed.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
    SPEC = json.load(f)


def run_quick(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_passes_its_oracles_and_matches_the_spec(workload, trace):
    result, report = run_quick(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))

    # the report names every end-to-end metric of the workload, with a unit
    named = {line.split()[1]: line for line in report if line.startswith(f"{workload} ")}
    throughput = {"train": "train_steps_per_s", "sweep": "sweep_cells_per_s",
                  "dump": "dump_pairs_per_s"}[workload]
    expected = ["setup_s", "cold_op_s", "op_s_mean", "op_s_p50", "peak_rss_mb",
                "setup_rss_mb", "error_rate", throughput]
    expected += ["op_s_p90"] if workload == "train" else []
    for name in expected:
        assert name in named, name
        assert len(named[name].split()) >= 5, named[name]
    assert "error_rate = 0.0 ratio" in named["error_rate"]
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
