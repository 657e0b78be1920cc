#!/usr/bin/env python3
"""gaplab benchmark: one closed-loop client driving gaplab in-process.

    python3 benchmarks/run.py --workload {train,sweep,dump} --seed N \\
        --seconds S --trace {0,1} [--quick]

Run from the repository root. The workload seed fixes every input. Each run
sets up several times (``setup_s`` is the import plus the median set-up),
runs one cold op, then runs ops back to back for ``--seconds`` and checks
each one against its oracle outside the timed region. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` spends half the window untraced and
half with span wrappers installed and reports the per-layer metrics.
``--quick`` runs one op per phase and skips the repeated set-up.

The thread environment (GAPLAB_THREADS, OPENBLAS_NUM_THREADS, ...) is left
as found and recorded, so a run measures what a user gets by default.

Output: a report of every metric by name and unit, then, as the last line,
one JSON object with the keys correct, attempted, failed and metrics. The
full result, with the environment, is also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
MIN_TIMED_OPS = 3
THREAD_ENV = ("GAPLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Gated end-to-end metrics, reported by every workload with --trace 0. The
# gated op time is the mean: a sweep op is bimodal (2 pool workers with 2
# BLAS threads each on 2 CPUs), and the median of its ~10 ops a run flips
# between the modes from run to run, where the mean moves by the mixture.
END_TO_END = {"setup_s": "s", "op_s_mean": "s", "peak_rss_mb": "MB"}

# The other end-to-end metrics (cold_op_s, op_s_p50, op_s_p90, error_rate and
# these per-workload throughputs) are printed and saved, not in the last line.
THROUGHPUT = {"train": ("train_steps_per_s", "steps/s"),
              "sweep": ("sweep_cells_per_s", "cells/s"),
              "dump": ("dump_pairs_per_s", "pairs/s")}

_CALLS = ["losses.cma_loss", "numerics.similarity_matrix", "numerics.row_cross_entropy",
          "numerics.as_matrix", "trainkit.synth_dataset", "trainkit.encode_pairs",
          "curriculum.scheduler_step", "geometry.gap_report", "embfile.read_embeddings",
          "embfile.write_embeddings", "sweep.run_single"]
_BUSY = ["losses.cma_loss", "losses.reweighted_loss", "losses.intra_loss",
         "numerics.similarity_matrix", "numerics.row_cross_entropy", "numerics.as_matrix",
         "numerics.singular_values", "trainkit.encoder_forward", "trainkit.encoder_backward",
         "trainkit.adam_step", "curriculum.scheduler_step", "geometry.gap_report",
         "geometry.effective_rank", "geometry.mean_center", "evalkit.recall_at_k",
         "evalkit.kmeans", "evalkit.joint_clustering_eval", "evalkit.interchangeability_probe",
         "embfile.read_embeddings", "embfile.write_embeddings", "sweep.run_single"]
_SELF = ["losses.cma_loss", "evalkit.recall_at_k",
         "cli.train", "cli.sweep", "cli.analyze", "cli.center",
         "cli", "sweep", "trainkit", "losses", "curriculum", "geometry", "evalkit",
         "embfile", "numerics"]

# Per-layer metrics, reported by every workload with --trace 1 (0 where idle).
# Values are per traced op (median over ops) unless the name says otherwise;
# *.flops and *.bytes are computed from shapes, not measured.
PER_LAYER = {
    **{f"{f}.calls": "count" for f in _CALLS},
    **{f"{f}.busy_s": "s" for f in _BUSY},
    **{f"{f}.self_s": "s" for f in _SELF},
    "losses.cma_loss.call_us_p50": "us",
    "geometry.gap_report.call_us_p50": "us",
    "numerics.similarity_matrix.flops": "flop",
    "numerics.similarity_matrix.gflops": "GFLOP/s",
    "embfile.read_embeddings.bytes": "B",
    "embfile.read_embeddings.mb_per_s": "MB/s",
    "embfile.write_embeddings.bytes": "B",
    "embfile.write_embeddings.mb_per_s": "MB/s",
    "sweep.workers": "count",
    "sweep.worker_busy_ratio": "ratio",
    "sweep.pool_overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.ops": "count",
}
RATE_SCALE = {"gflops": 1e9, "mb_per_s": 1e6}  # computed work / busy_s, in these units


def import_gaplab() -> float:
    """Import gaplab from this checkout's src/ only; returns the seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "gaplab", "__init__.py")):
        raise SystemExit(f"error: no gaplab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import gaplab
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(gaplab.__file__))) != SRC:
        raise SystemExit(f"error: imported gaplab from {gaplab.__file__}, not {SRC}")
    return elapsed


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import gaplab; print(time.perf_counter() - start)")


def fresh_import_seconds(repeats: int) -> list:
    """Seconds to import gaplab in each of ``repeats`` fresh interpreters."""
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                             text=True, timeout=120, stdin=subprocess.DEVNULL, check=True)
        times.append(float(out.stdout))
    return times


def environment(seed: int) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gaplab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "start_method": (multiprocessing.get_start_method(allow_none=True)
                         or multiprocessing.get_all_start_methods()[0]),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not its own git repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             stdin=subprocess.DEVNULL)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


class Loop:
    """Closed loop with one client: each op starts after the previous one ends."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list = []
        self.traces: list = []

    def op(self, tracer=None) -> float:
        i = self.attempted
        self.attempted += 1
        error = None
        start = time.perf_counter()
        try:
            result = self.workload.op(i)
        except Exception as exc:  # an op that raises counts as failed
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            self.traces.append(tracer.op_trace(elapsed))
        try:
            if error is not None:
                raise error
            self.workload.check(result)
        except Exception as exc:  # a failed op is counted and the loop goes on
            self.failures.append({"op": i, "error": f"{type(exc).__name__}: {exc}",
                                  "traceback": traceback.format_exc()})
        if tracer is not None:
            tracer.take()  # nothing outside an op belongs to it
        return elapsed

    def until(self, seconds: float, min_ops: int, tracer=None) -> list:
        """Ops back to back until the next one would end after the window."""
        deadline = time.perf_counter() + seconds
        times = [self.op(tracer)]
        while len(times) < min_ops or time.perf_counter() + times[-1] <= deadline:
            times.append(self.op(tracer))
        return times


def _rate(stats: dict, stem: str, scale: float) -> float:
    busy = stats.get(f"{stem}.busy_s", 0.0)
    return stats.get(f"{stem}.work", 0.0) / busy / scale if busy else 0.0


def per_layer(traces: list, untraced: list, traced: list) -> dict:
    import tracing

    per_op = [tracing.op_layer_stats(t) for t in traces]

    def median_of(key):
        return statistics.median(s["stats"].get(key, 0.0) for s in per_op)

    values = {}
    for name in PER_LAYER:
        stem, _, kind = name.rpartition(".")
        if kind in ("flops", "bytes"):
            values[name] = median_of(f"{stem}.work")
        elif kind in RATE_SCALE:
            values[name] = statistics.median(
                _rate(s["stats"], stem, RATE_SCALE[kind]) for s in per_op)
        elif kind == "call_us_p50":
            pooled = [us for s in per_op for us in s["call_us"].get(stem, [])]
            values[name] = statistics.median(pooled) if pooled else 0.0
        else:
            values[name] = median_of(name)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    values["trace.ops"] = len(traces)
    return values


def run(args, import_s: float, work_dir: str) -> dict:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](work_dir, args.seed, workloads.load_reference())
    repeats = 1 if args.quick else SETUP_REPEATS
    imports = [import_s] + fresh_import_seconds(repeats - 1)
    setups = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)

    setup_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loop = Loop(workload)
    cold = loop.op()
    window = 0.0 if args.quick else float(args.seconds)
    metrics = {"setup_s": statistics.median(imports) + statistics.median(setups)}
    extra = {"cold_op_s": (cold, "s")}
    if args.trace:
        untraced = loop.until(window / 2, 1)
        tracer = tracing.Tracer(work_dir)
        tracer.install()
        traced = loop.until(window / 2, 1, tracer)
        layer = per_layer(loop.traces, untraced, traced)
        timed = untraced
    else:
        timed = [cold] if args.quick else loop.until(window, MIN_TIMED_OPS)
        layer = None

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "sweep":
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics["op_s_mean"] = statistics.fmean(timed)
    metrics["peak_rss_mb"] = rss_kb / 1024.0
    name, unit = THROUGHPUT[args.workload]
    extra[name] = (workload.work_per_op / metrics["op_s_mean"], unit)
    extra["op_s_p50"] = (statistics.median(timed), "s")
    if args.workload == "train":
        extra["op_s_p90"] = (statistics.quantiles(timed, n=10)[-1] if len(timed) > 1
                             else timed[0], "s")
    extra["setup_rss_mb"] = (setup_rss_kb / 1024.0, "MB")
    extra["error_rate"] = (len(loop.failures) / loop.attempted, "ratio")
    extra["timed_ops"] = (len(timed), "count")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures,
        "end_to_end": {k: (v, END_TO_END[k]) for k, v in metrics.items()},
        "workload_metrics": extra,
        "per_layer": ({k: (v, PER_LAYER[k]) for k, v in layer.items()} if layer else None),
        "import_samples_s": imports,
        "setup_samples_s": setups,
        "timed_samples_s": timed,
        "traces": loop.traces,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "sweep", "dump"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one op per phase and a single set-up; for smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_gaplab()
    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        result = run(args, import_s, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["environment"] = environment(args.seed)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    traces = result.pop("traces")
    if args.trace:
        with open(os.path.join(OUT_DIR, f"spans-{stem}.json"), "w", encoding="utf-8") as f:
            json.dump({"names": traces[0].names if traces else [],
                       "columns": ["name", "start_ns", "end_ns", "parent", "work"],
                       "ops": [t.to_json() for t in traces]}, f)
    with open(os.path.join(OUT_DIR, f"result-{stem}.json"), "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)

    print(f"environment {json.dumps(result['environment'], sort_keys=True)}")
    for failure in result["failures"][:10]:
        print(f"FAILED op {failure['op']}: {failure['error']}")
    shown = {**result["end_to_end"], **result["workload_metrics"], **(result["per_layer"] or {})}
    for key, (value, unit) in shown.items():
        print(f"{args.workload} {key} = {value} {unit}")

    gated = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
