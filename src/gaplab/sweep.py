"""Alpha-target sweeps: train one model per (alpha_target, seed), evaluate it,
and tabulate the results.

A run's data, initialization, and batch order derive from its seed alone, and
nothing reads alpha_target before the anchor ends (the anchor phase pins
alpha at 0; the loss EMAs start at the ramp). So a sweep trains each seed's
anchor epochs once and forks that run per alpha target, and every cell keeps
the bits of a run trained alone (run_single), though its alpha-0 steps skip
the zero-weight intra term. Anchor runs go to the parallel worker processes
first; a seed's cells are ready once its own anchor run is done, and the pool
holds one job beyond its workers, the first ready cell in row order. The
GAPLAB_THREADS environment variable caps the worker count; 1 forces a plain
in-process path, which also settles the cells in row order (so it stops at the
first failing row) and holds one anchor run per seed. Each pool worker runs
OpenBLAS with one thread: the cells already fill the CPUs, and at these sizes
threads inside a cell only spin (training runs on one thread on either path).
Forked workers inherit it from the parent, which holds one thread while the
pool runs, so they call no setter: after a fork, any call re-creates OpenBLAS's
pool, whose new helper thread busy-waits. A cell encodes the eval split and
reports its gap at its final epoch only, the one its row reads. Rows keep the
input order, whatever the completion order: per-seed rows first, then one mean
row per alpha block.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import fields, replace

from .evalkit import (
    SWEEP_FIELDS,
    SweepRecord,
    interchangeability_probe,
    joint_clustering_eval,
    recall_at_k,
)
from .geometry import EmbeddingBatch
from .numerics import _scalar
from .trainkit import SynthConfig, TrainConfig, _blas_threads, _one_blas_thread, _Run, synth_dataset, train

__all__ = ["run_single", "run_sweep", "sweep_to_csv", "SweepRunError"]


class SweepRunError(RuntimeError):
    """One run failed; carries the rows completed before the failure."""

    def __init__(self, alpha: float, seed: int, cause: BaseException, rows: list):
        self.alpha = alpha
        self.seed = seed
        self.cause = cause
        self.rows = rows
        super().__init__(f"run (alpha_target={alpha}, seed={seed}) failed: {cause}")


def _worker_count() -> int:
    """Sweep parallelism: GAPLAB_THREADS if set, else the CPUs this process may use."""
    raw = os.environ.get("GAPLAB_THREADS", "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"GAPLAB_THREADS must be an integer, got {raw!r}") from exc
        return _scalar(value, "GAPLAB_THREADS", integer=True, low=1)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    return _record(history.eval_pair, history[-1].gap, tc.curriculum.alpha_target, tc.seed)


def _record(eval_pair, report, alpha_target: float, seed: int) -> SweepRecord:
    """Every sweep metric of a trained run's eval_pair and last gap report."""
    vi, vt, labels = eval_pair
    images = EmbeddingBatch(vi, labels)
    texts = EmbeddingBatch(vt, labels, "text")
    cluster = joint_clustering_eval(images, texts, seed=seed)
    i2t, t2i = recall_at_k(vi, vt, 1)
    probe = interchangeability_probe(texts, images)
    gaps = {f.name: getattr(report, f.name) for f in fields(report) if f.name in SWEEP_FIELDS}
    return SweepRecord(alpha_target=alpha_target, ari=cluster.ari, v_measure=cluster.v_measure,
                       i2t_r1=i2t, t2i_r1=t2i, probe_accuracy=probe, **gaps)


def _mean_record(records: list) -> SweepRecord:
    """Field-wise arithmetic mean of several records (one alpha block)."""
    if not records:
        raise ValueError("cannot average zero records")
    values = {
        name: sum(getattr(r, name) for r in records) / len(records)
        for name in SWEEP_FIELDS
    }
    return SweepRecord(**values)


def _anchor(train_cfg: TrainConfig, synth_cfg: SynthConfig, seed: int, scheduled: bool) -> _Run:
    """seed's run through the epochs its cells share: none when alpha is pinned."""
    sc = replace(synth_cfg, seed=seed)
    run = _Run(replace(train_cfg, seed=seed), sc, None if scheduled else 0.0)
    run.advance(synth_dataset(sc), run.scheduler.config.anchor_epochs, final_report_only=True)
    return run


def _cell(run: _Run, synth_cfg: SynthConfig, alpha_target: float, seed: int) -> SweepRecord:
    """Cell (alpha_target, seed): a fork of seed's anchor run, trained and evaluated.
    It rebuilds the data: kept over the evaluation, it would raise peak memory."""
    branch = run.fork(alpha_target)
    branch.advance(synth_dataset(replace(synth_cfg, seed=seed)), run.train_cfg.epochs,
                   final_report_only=True)
    return _record(branch.eval_pair, branch.records[-1].gap, alpha_target, seed)


def _save_anchor(path: str, *args) -> None:
    """_anchor in a pool worker, pickling the run to path for its cells."""
    with open(path, "wb") as f:
        pickle.dump(_anchor(*args), f)


def _load_cell(path: str, *args) -> SweepRecord:
    """_cell in a pool worker, on the anchor run _save_anchor wrote to path."""
    with open(path, "rb") as f:
        return _cell(pickle.load(f), *args)


def run_sweep(train_cfg: TrainConfig, synth_cfg: SynthConfig, alphas, seeds,
              scheduled: bool = True, max_workers: int | None = None) -> list:
    """All (alpha, seed) runs, as ordered rows of (seed_label, SweepRecord).

    Per alpha block: one row per seed (labels are the seed values as strings)
    followed by a "mean" row. Invalid inputs, including a seed whose synthetic
    views are not finite, raise ValueError, and a run too large to allocate
    MemoryError, before any run starts. The first failing cell in row order
    raises SweepRunError carrying the rows before it, so callers can persist a
    partial table; a failed anchor run fails all its seed's cells. Both paths
    settle cells in row order. In process (max_workers 1), no cell after the
    failing one runs, and each seed's anchor run is built at its first cell
    and held to the end; in the pool, any exception cancels the runs not yet
    started.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    alphas = [_scalar(a, "alphas", low=0, high=1) for a in alphas]
    seeds = [_scalar(s, "seeds", integer=True, low=0) for s in seeds]
    max_workers = (_worker_count() if max_workers is None
                   else _scalar(max_workers, "max_workers", integer=True, low=1))
    if not alphas or not seeds:
        raise ValueError("need at least one alpha and one seed")
    _Run(train_cfg, synth_cfg)  # a bad batch size, or arrays too large to allocate
    for s in seeds:
        synth_dataset(replace(synth_cfg, seed=s))  # ValueError if a view is not finite
    max_workers = min(max_workers, len(alphas) * len(seeds))

    rows: list = []

    def consume(settle):  # settle(i, j) is cell (alphas[i], seeds[j])'s record, or raises
        for i, a in enumerate(alphas):
            block = []
            for j, s in enumerate(seeds):
                try:
                    record = settle(i, j)
                except Exception as exc:
                    raise SweepRunError(a, s, exc, rows) from exc
                block.append(record)
                rows.append((str(s), record))
            rows.append(("mean", _mean_record(block)))
        return rows

    if max_workers <= 1:
        runs: dict = {}  # seed index -> anchor run, built by its seed's first cell
        def settle(i, j):
            if j not in runs:
                runs[j] = _anchor(train_cfg, synth_cfg, seeds[j], scheduled)
            return _cell(runs[j], synth_cfg, alphas[i], seeds[j])
        with _one_blas_thread():  # else each run's restore wakes OpenBLAS's spinning helpers
            return consume(settle)
    # Anchor runs reach their cells through files: sent through the parent,
    # each would raise its peak memory by about its size.
    # Forked workers inherit one BLAS thread; the initializer pins spawned ones.
    with _one_blas_thread(), tempfile.TemporaryDirectory() as tmp, \
            ProcessPoolExecutor(max_workers=max_workers, initializer=_blas_threads,
                                initargs=(1,)) as pool:
        paths = [os.path.join(tmp, f"{j}.pickle") for j in range(len(seeds))]
        anchors = {pool.submit(_save_anchor, path, train_cfg, synth_cfg, s, scheduled): j
                   for j, (path, s) in enumerate(zip(paths, seeds))}
        cells: dict = {}  # (alpha index, seed index) -> Future
        ready, running = [], set(anchors)  # cells whose anchor run is done; jobs not done
        def settle(i, j):  # running the pool until cell (i, j) is done
            while (i, j) not in cells or not cells[i, j].done():
                ready.sort()  # row order
                while ready and len(running) <= max_workers:
                    ai, si = ready.pop(0)  # alpha and seed index
                    cells[ai, si] = pool.submit(_load_cell, paths[si], synth_cfg, alphas[ai], seeds[si])
                    running.add(cells[ai, si])
                done = wait(running, return_when=FIRST_COMPLETED).done
                running.difference_update(done)
                for anchor in done & anchors.keys():
                    if anchor.exception() is not None:  # it fails its seed's first cell
                        cells[0, anchors[anchor]] = anchor
                    else:
                        ready.extend((ai, anchors[anchor]) for ai in range(len(alphas)))
            return cells[i, j].result()
        try:
            return consume(settle)
        except BaseException:  # a failed cell, or any other exit such as Ctrl-C
            pool.shutdown(cancel_futures=True)
            raise


def sweep_to_csv(rows, failure: tuple | None = None) -> str:
    """Render ordered (seed_label, SweepRecord) rows as the sweep CSV.

    failure, when given, is (alpha, seed) of an aborted run; it becomes a
    trailing marker row with label "failed" and only the alpha column filled.
    """
    lines = ["seed," + ",".join(SWEEP_FIELDS)]
    for label, record in rows:
        values = [repr(float(getattr(record, name))) for name in SWEEP_FIELDS]
        lines.append(",".join([label, *values]))
    if failure is not None:
        alpha, seed = failure
        blanks = [""] * (len(SWEEP_FIELDS) - 1)
        lines.append(",".join([f"failed:seed={seed}", repr(float(alpha)), *blanks]))
    return "\n".join(lines) + "\n"
