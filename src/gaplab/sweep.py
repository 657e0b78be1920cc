"""Alpha-target sweeps: train one model per (alpha_target, seed), evaluate it,
and tabulate the results.

Each run is fully independent (its own data, initialization, and batch order,
all derived from its seed), so runs may execute in parallel worker processes.
The GAPLAB_THREADS environment variable caps the worker count; 1 forces a
plain in-process loop. Each pool worker runs OpenBLAS with one thread: the
cells already fill the CPUs, and at these sizes threads inside a cell only
spin. Output rows keep the input order regardless of completion order:
per-seed rows first, then one mean row per alpha block.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .evalkit import (
    SWEEP_FIELDS,
    SweepRecord,
    interchangeability_probe,
    joint_clustering_eval,
    recall_at_k,
)
from .trainkit import SynthConfig, TrainConfig, epoch_steps, train

__all__ = [
    "CSV_HEADER",
    "run_single",
    "run_sweep",
    "mean_record",
    "sweep_to_csv",
    "SweepRunError",
    "worker_count",
]

CSV_HEADER = "seed," + ",".join(SWEEP_FIELDS)


class SweepRunError(RuntimeError):
    """One run failed; carries the rows completed before the failure."""

    def __init__(self, alpha: float, seed: int, cause: BaseException, rows: list):
        self.alpha = alpha
        self.seed = seed
        self.cause = cause
        self.rows = rows
        super().__init__(f"run (alpha_target={alpha}, seed={seed}) failed: {cause}")


def worker_count() -> int:
    """Sweep parallelism: GAPLAB_THREADS if set, else the CPUs this process may use."""
    raw = os.environ.get("GAPLAB_THREADS", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"GAPLAB_THREADS must be an integer, got {raw!r}") from exc
        if value < 1:
            raise ValueError(f"GAPLAB_THREADS must be >= 1, got {value}")
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _openblas(name: str):
    """The function openblas_<name> of the OpenBLAS mapped into this process, or None.

    Only Linux lists its mappings (/proc/self/maps). A system OpenBLAS exports
    the plain name; NumPy's wheels rename it: a 64_ suffix for 64-bit integer
    builds (NumPy 1.x) and a scipy_ prefix as well (NumPy 2.x).
    """
    try:
        with open("/proc/self/maps", "rb") as f:
            fields = [line.split(None, 5) for line in f]
    except OSError:
        return None
    paths = sorted({os.fsdecode(f[5].strip()) for f in fields
                    if len(f) == 6 and b"openblas" in f[5].lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"openblas_{name}", f"openblas_{name}64_",
                       f"scipy_openblas_{name}", f"scipy_openblas_{name}64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def _one_blas_thread() -> None:
    """Pool initializer: pin this worker's OpenBLAS to one thread, if it has one."""
    set_threads = _openblas("set_num_threads")
    if set_threads is not None:
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)


def run_single(train_cfg: TrainConfig, synth_cfg: SynthConfig, alpha_target: float,
               seed: int, scheduled: bool = True) -> SweepRecord:
    """Train one model and evaluate every sweep metric on its eval split.

    The seed overrides both the data seed and the training seed; alpha_target
    overrides the curriculum target. scheduled=False trains with alpha pinned
    at alpha_target from the first step (the curriculum ablation).
    """
    tc = replace(
        train_cfg,
        seed=seed,
        curriculum=replace(train_cfg.curriculum, alpha_target=alpha_target),
    )
    sc = replace(synth_cfg, seed=seed)
    _, _, history = train(tc, sc, alpha=None if scheduled else alpha_target)
    images, texts = history.eval_batches
    report = history[-1].gap
    cluster = joint_clustering_eval(images, texts, seed=seed)
    i2t, t2i = recall_at_k(images.vectors, texts.vectors, 1)
    probe = interchangeability_probe(texts, images)
    return SweepRecord(
        alpha_target=float(alpha_target),
        raw_gap=report.raw_gap,
        centroid_gap=report.centroid_gap,
        distribution_gap=report.distribution_gap,
        ari=cluster.ari,
        v_measure=cluster.v_measure,
        i2t_r1=i2t,
        t2i_r1=t2i,
        probe_accuracy=probe,
        erank_image=report.erank_image,
        erank_text=report.erank_text,
        fusion_index=report.fusion_index,
    )


def mean_record(records: list) -> SweepRecord:
    """Field-wise arithmetic mean of several records (one alpha block)."""
    if not records:
        raise ValueError("cannot average zero records")
    values = {
        name: sum(getattr(r, name) for r in records) / len(records)
        for name in SWEEP_FIELDS
    }
    return SweepRecord(**values)


def _worker(args):
    train_cfg, synth_cfg, alpha, seed, scheduled = args
    return run_single(train_cfg, synth_cfg, alpha, seed, scheduled)


def run_sweep(train_cfg: TrainConfig, synth_cfg: SynthConfig, alphas, seeds,
              scheduled: bool = True, max_workers: int | None = None) -> list:
    """All (alpha, seed) runs, as ordered rows of (seed_label, SweepRecord).

    Per alpha block: one row per seed (labels are the seed values as strings)
    followed by a "mean" row. Invalid inputs raise ValueError before any run
    starts. A failing run raises SweepRunError carrying the rows that
    completed before it, so callers can persist a partial table; runs not yet
    started in the pool are cancelled.
    """
    alphas = [float(a) for a in alphas]
    seeds = [int(s) for s in seeds]
    if not alphas or not seeds:
        raise ValueError("need at least one alpha and one seed")
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha_target must be in [0, 1], got {a}")
    for s in seeds:
        if s < 0:
            raise ValueError(f"seeds must be >= 0, got {s}")
    epoch_steps(train_cfg, synth_cfg)
    if max_workers is None:
        max_workers = worker_count()
    max_workers = min(max_workers, len(alphas) * len(seeds))

    jobs = [(train_cfg, synth_cfg, a, s, scheduled) for a in alphas for s in seeds]
    rows: list = []

    def consume(results_iter):
        it = iter(results_iter)
        for a in alphas:
            block = []
            for s in seeds:
                try:
                    record = next(it)
                except Exception as exc:
                    raise SweepRunError(a, s, exc, rows) from exc
                block.append(record)
                rows.append((str(s), record))
            rows.append(("mean", mean_record(block)))
        return rows

    if max_workers <= 1:
        return consume(_worker(job) for job in jobs)
    with ProcessPoolExecutor(max_workers=max_workers, initializer=_one_blas_thread) as pool:
        futures = [pool.submit(_worker, job) for job in jobs]
        try:
            return consume(f.result() for f in futures)
        except SweepRunError:
            pool.shutdown(cancel_futures=True)
            raise


def sweep_to_csv(rows, failure: tuple | None = None) -> str:
    """Render ordered (seed_label, SweepRecord) rows as the sweep CSV.

    failure, when given, is (alpha, seed) of an aborted run; it becomes a
    trailing marker row with label "failed" and only the alpha column filled.
    """
    lines = [CSV_HEADER]
    for label, record in rows:
        values = [repr(float(getattr(record, name))) for name in SWEEP_FIELDS]
        lines.append(",".join([label, *values]))
    if failure is not None:
        alpha, seed = failure
        blanks = [""] * (len(SWEEP_FIELDS) - 1)
        lines.append(",".join([f"failed:seed={seed}", repr(float(alpha)), *blanks]))
    return "\n".join(lines) + "\n"
