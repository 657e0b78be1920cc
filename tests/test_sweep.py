import dataclasses
import functools
import multiprocessing
import os
import pickle
import time

import numpy as np
import pytest

import gaplab as gl
from gaplab import losses, trainkit
from gaplab import sweep as sweep_mod

from conftest import encode_pairs


def tiny_configs():
    cur = gl.CurriculumConfig(anchor_epochs=1, ramp_epochs=1, stabilize_epochs=1, alpha_target=0.5)
    tc = gl.TrainConfig(curriculum=cur, batch_size=8, hidden_dim=8, embed_dim=4, seed=0)
    sc = gl.SynthConfig(n_classes=4, samples_per_class=10, latent_dim=4,
                        image_input_dim=6, text_input_dim=5, seed=0)
    return tc, sc


def dummy_record(alpha=0.5, base=0.1) -> gl.SweepRecord:
    values = {name: base + i * 0.01 for i, name in enumerate(gl.SWEEP_FIELDS)}
    values["alpha_target"] = alpha
    return gl.SweepRecord(**values)


def fieldwise_mean(records) -> gl.SweepRecord:
    """The mean row of a block, computed here rather than by the sweep."""
    return gl.SweepRecord(**{name: sum(getattr(r, name) for r in records) / len(records)
                             for name in gl.SWEEP_FIELDS})


# --------------------------------------------------------------- run_single

def test_run_single_stamps_alpha_and_is_deterministic():
    tc, sc = tiny_configs()
    a = gl.run_single(tc, sc, 0.3, seed=1)
    b = gl.run_single(tc, sc, 0.3, seed=1)
    assert a == b
    assert a.alpha_target == 0.3
    assert 0.0 <= a.probe_accuracy <= 1.0
    assert -1.0 <= a.ari <= 1.0


def test_run_single_seed_overrides_config_seeds():
    tc, sc = tiny_configs()
    other_tc = dataclasses.replace(tc, seed=99)
    other_sc = dataclasses.replace(sc, seed=77)
    assert gl.run_single(tc, sc, 0.2, seed=5) == gl.run_single(other_tc, other_sc, 0.2, seed=5)
    assert gl.run_single(tc, sc, 0.2, seed=5) != gl.run_single(tc, sc, 0.2, seed=6)


def test_run_single_constant_alpha_variant_differs():
    tc, sc = tiny_configs()
    scheduled = gl.run_single(tc, sc, 0.5, seed=0, scheduled=True)
    pinned = gl.run_single(tc, sc, 0.5, seed=0, scheduled=False)
    assert scheduled != pinned


@pytest.mark.parametrize("scheduled", [True, False])
def test_run_single_matches_a_fresh_encode_of_the_eval_split(scheduled):
    # reference: retrain, rebuild the dataset and re-encode its eval split
    tc, sc = tiny_configs()
    sc = dataclasses.replace(sc, samples_per_class=30)  # 24 eval rows
    record = gl.run_single(tc, sc, 0.4, seed=2, scheduled=scheduled)
    tc = dataclasses.replace(tc, seed=2,
                             curriculum=dataclasses.replace(tc.curriculum, alpha_target=0.4))
    sc = dataclasses.replace(sc, seed=2)
    (img, txt), _, _ = gl.train(tc, sc, alpha=None if scheduled else 0.4)
    data = gl.synth_dataset(sc)
    images, texts = encode_pairs(img, txt, data, data.eval_idx)
    report = gl.gap_report(images, texts)
    cluster = gl.joint_clustering_eval(images, texts, seed=2)
    i2t, t2i = gl.recall_at_k(images.vectors, texts.vectors, 1)
    assert record == gl.SweepRecord(
        alpha_target=0.4,
        raw_gap=report.raw_gap,
        centroid_gap=report.centroid_gap,
        distribution_gap=report.distribution_gap,
        ari=cluster.ari,
        v_measure=cluster.v_measure,
        i2t_r1=i2t,
        t2i_r1=t2i,
        probe_accuracy=gl.interchangeability_probe(texts, images),
        erank_image=report.erank_image,
        erank_text=report.erank_text,
        fusion_index=report.fusion_index,
    )


# ------------------------------------------------------------- _mean_record

def test_mean_record_is_fieldwise():
    a = dummy_record(base=0.0)
    b = dummy_record(base=1.0)
    mean = sweep_mod._mean_record([a, b])
    for name in gl.SWEEP_FIELDS:
        assert getattr(mean, name) == pytest.approx(
            (getattr(a, name) + getattr(b, name)) / 2.0, abs=1e-15)
    with pytest.raises(ValueError):
        sweep_mod._mean_record([])


# ---------------------------------------------------------------- run_sweep

def test_run_sweep_row_order_and_means():
    tc, sc = tiny_configs()
    rows = gl.run_sweep(tc, sc, alphas=[0.0, 0.5], seeds=[0, 1], max_workers=1)
    labels = [label for label, _ in rows]
    assert labels == ["0", "1", "mean", "0", "1", "mean"]
    block = [rec for _, rec in rows[:2]]
    assert rows[2][1] == fieldwise_mean(block)
    assert all(rec.alpha_target == 0.0 for _, rec in rows[:3])
    assert all(rec.alpha_target == 0.5 for _, rec in rows[3:])


def test_run_sweep_parallel_matches_serial():
    tc, sc = tiny_configs()
    serial = gl.run_sweep(tc, sc, alphas=[0.0, 0.25, 1.0], seeds=[0, 1], max_workers=1)
    parallel = gl.run_sweep(tc, sc, alphas=[0.0, 0.25, 1.0], seeds=[0, 1], max_workers=2)
    assert serial == parallel


def test_run_sweep_validates_inputs():
    tc, sc = tiny_configs()
    with pytest.raises(ValueError):
        gl.run_sweep(tc, sc, alphas=[], seeds=[0])
    with pytest.raises(ValueError):
        gl.run_sweep(tc, sc, alphas=[0.5], seeds=[])
    with pytest.raises(ValueError):
        gl.run_sweep(tc, sc, alphas=[1.5], seeds=[0])


def test_run_sweep_rejects_a_negative_seed_before_any_run(monkeypatch):
    tc, sc = tiny_configs()
    calls = []
    for hook in ("_anchor", "_cell"):
        monkeypatch.setattr(sweep_mod, hook, lambda *args, **kw: calls.append(args))
    for workers in (1, 2):
        with pytest.raises(ValueError, match="seeds must be >= 0, got -1"):
            gl.run_sweep(tc, sc, alphas=[0.5], seeds=[0, -1], max_workers=workers)
    assert calls == []


def test_run_sweep_rejects_oversized_batch_before_any_run(monkeypatch):
    import dataclasses
    tc, sc = tiny_configs()
    calls = []
    for hook in ("_anchor", "_cell"):
        monkeypatch.setattr(sweep_mod, hook, lambda *args, **kw: calls.append(args))
    big = dataclasses.replace(tc, batch_size=5000)
    for workers in (1, 2):
        with pytest.raises(ValueError, match="batch_size 5000 exceeds the train split size 32"):
            gl.run_sweep(big, sc, alphas=[0.5], seeds=[0, 1], max_workers=workers)
    assert calls == []


def test_run_sweep_failure_carries_completed_rows(monkeypatch):
    tc, sc = tiny_configs()
    good = dummy_record()

    def fake_cell(run, synth_cfg, alpha, seed):
        if seed == 1:
            raise ValueError("boom")
        return good

    monkeypatch.setattr(sweep_mod, "_cell", fake_cell)
    with pytest.raises(gl.SweepRunError) as info:
        gl.run_sweep(tc, sc, alphas=[0.5], seeds=[0, 1], max_workers=1)
    err = info.value
    assert err.alpha == 0.5 and err.seed == 1
    assert err.rows == [("0", good)]
    assert "boom" in str(err)


def branching_configs(anchor_epochs: int):
    """tiny_configs with four steps per epoch and a two-epoch ramp."""
    tc, sc = tiny_configs()
    cur = dataclasses.replace(tc.curriculum, anchor_epochs=anchor_epochs, ramp_epochs=2)
    return dataclasses.replace(tc, curriculum=cur), sc


def independent_rows(tc, sc, alphas, seeds, scheduled=True) -> list:
    """The rows run_sweep should return, each cell trained alone by run_single."""
    rows = []
    for a in alphas:
        block = [gl.run_single(tc, sc, a, s, scheduled=scheduled) for s in seeds]
        rows += [(str(s), record) for s, record in zip(seeds, block)]
        rows.append(("mean", fieldwise_mean(block)))
    return rows


@pytest.mark.parametrize("scheduled", [True, False])
@pytest.mark.parametrize("anchor_epochs", [2, 0])
@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_rows_equal_independent_runs(workers, anchor_epochs, scheduled):
    # Every cell forks its seed's anchor run; run_single trains the cell alone.
    tc, sc = branching_configs(anchor_epochs)
    alphas, seeds = [0.0, 0.3, 1.0], [1, 0]
    rows = gl.run_sweep(tc, sc, alphas, seeds, scheduled=scheduled, max_workers=workers)
    assert rows == independent_rows(tc, sc, alphas, seeds, scheduled)


def test_fork_leaves_its_parent_unchanged_and_owns_its_buffers():
    tc, sc = branching_configs(2)
    data = gl.synth_dataset(sc)
    parent = trainkit._Run(tc, sc)
    parent.advance(data, 2)
    arrays = {name: getattr(parent, name).copy() for name in ("flat", "m", "v")}
    weights = [[p.copy() for p in (enc.w1, enc.b1, enc.w2, enc.b2)] for enc in parent.encoders]
    state = (parent.count, dataclasses.asdict(parent.scheduler), parent.alpha,
             parent.order.bit_generator.state, list(parent.records))

    # a pickled run (as a pool worker receives it) holds copies, not views
    for source in (parent, pickle.loads(pickle.dumps(parent))):
        fork = source.fork(0.7)
        fork.advance(data, tc.epochs)
        assert fork.scheduler.config.alpha_target == 0.7 and len(fork.records) == tc.epochs
        for enc, grads in zip(fork.encoders, fork.grads):
            for p in (enc.w1, enc.b1, enc.w2, enc.b2):
                assert np.shares_memory(p, fork.flat)
                assert not np.shares_memory(p, parent.flat)
            assert all(np.shares_memory(g, fork.grad) for g in grads)

    for name, before in arrays.items():
        assert np.array_equal(getattr(parent, name), before)
    for enc, before in zip(parent.encoders, weights):
        for p, q in zip((enc.w1, enc.b1, enc.w2, enc.b2), before):
            assert np.array_equal(p, q) and np.shares_memory(p, parent.flat)
    assert state == (parent.count, dataclasses.asdict(parent.scheduler), parent.alpha,
                     parent.order.bit_generator.state, parent.records)
    assert parent.scheduler.config.alpha_target == tc.curriculum.alpha_target


def test_an_unpickled_run_views_its_own_buffers_and_trains_on():
    # a pool worker's cells start from an unpickled anchor run
    tc, sc = branching_configs(2)
    data = gl.synth_dataset(sc)
    run = trainkit._Run(tc, sc)
    run.advance(data, 2)
    again = pickle.loads(pickle.dumps(run))
    for enc, grads in zip(again.encoders, again.grads):
        assert all(np.shares_memory(p, again.flat) for p in (enc.w1, enc.b1, enc.w2, enc.b2))
        assert all(np.shares_memory(g, again.grad) for g in grads)
    run.advance(data, tc.epochs)
    again.advance(data, tc.epochs)
    assert np.array_equal(again.flat, run.flat) and again.records == run.records


@pytest.mark.parametrize("workers", [1, 2])
def test_an_anchor_only_sweep_reports_its_anchor_runs(workers):
    # ramp = stabilize = 0: the cells train nothing, and each row reads its
    # anchor run's final eval
    tc, sc = tiny_configs()
    cur = dataclasses.replace(tc.curriculum, anchor_epochs=2, ramp_epochs=0, stabilize_epochs=0)
    tc = dataclasses.replace(tc, curriculum=cur)
    rows = gl.run_sweep(tc, sc, [0.0, 1.0], [0, 1], max_workers=workers)
    assert rows == independent_rows(tc, sc, [0.0, 1.0], [0, 1])


def test_a_sweep_reports_each_cells_final_epoch_only(monkeypatch):
    tc, sc = branching_configs(2)
    reports = []
    real_report = trainkit.gap_report

    def counted(*args):
        reports.append(1)
        return real_report(*args)

    monkeypatch.setattr(trainkit, "gap_report", counted)
    gl.run_sweep(tc, sc, alphas=[0.0, 0.3, 1.0], seeds=[0, 1], max_workers=1)
    assert len(reports) == 6
    # train's history keeps every epoch's report
    assert len(gl.train(tc, sc)[2]) == tc.epochs and len(reports) == 6 + tc.epochs


def test_an_anchor_runs_pickle_holds_its_buffers_once():
    # what a pool worker writes for its seed's cells, at the default config
    tc, sc = gl.TrainConfig(), gl.SynthConfig()
    run = trainkit._Run(tc, sc)
    run.advance(gl.synth_dataset(sc), tc.curriculum.anchor_epochs)
    eval_bytes = sum(b.vectors.nbytes + b.labels.nbytes for b in run.eval_batches)
    # flat, grad and both Adam moments once each (the encoders and the
    # gradient views into them would add 92,672 bytes), the eval batches and
    # a few KiB of schedule, records and config
    assert len(pickle.dumps(run)) <= 4 * run.flat.nbytes + eval_bytes + 4096
    again = pickle.loads(pickle.dumps(run))
    assert again.eval_batches[0].vectors.tobytes() == run.eval_batches[0].vectors.tobytes()
    for enc, grads in zip(again.encoders, again.grads):
        assert all(np.shares_memory(p, again.flat) for p in (enc.w1, enc.b1, enc.w2, enc.b2))
        assert all(np.shares_memory(g, again.grad) for g in grads)
    assert np.array_equal(again.encoders[1].w2, run.encoders[1].w2)


def test_sweep_trains_each_anchor_phase_once(monkeypatch):
    tc, sc = branching_configs(2)
    steps = []
    real_step = trainkit._Run.step

    def counting_step(self, *args):
        steps.append(1)
        return real_step(self, *args)

    monkeypatch.setattr(trainkit._Run, "step", counting_step)
    gl.run_sweep(tc, sc, alphas=[0.0, 0.3, 1.0], seeds=[0, 1], max_workers=1)
    per_epoch = trainkit._Run(tc, sc).steps_per_epoch
    anchor = tc.curriculum.anchor_epochs * per_epoch
    rest = (tc.epochs - tc.curriculum.anchor_epochs) * per_epoch
    assert len(steps) == 2 * (anchor + 3 * rest) < 6 * (anchor + rest)


def test_sweep_steps_at_alpha_0_skip_the_intra_term(monkeypatch):
    tc, sc = branching_configs(2)
    calls = []
    real_intra = losses._intra

    def counted(*args):
        calls.append(1)
        return real_intra(*args)

    monkeypatch.setattr(losses, "_intra", counted)
    for scheduled in (True, False):
        gl.run_sweep(tc, sc, alphas=[0.0], seeds=[0], scheduled=scheduled, max_workers=1)
    assert calls == []
    # train keeps the full kernel, and with it every record's diagnostics
    history = gl.train(tc, sc)[2]
    assert len(calls) == tc.epochs * trainkit._Run(tc, sc).steps_per_epoch
    assert all(np.isfinite(r.intra_term) for r in history.records)


def _fail_at(cells, run, synth_cfg, alpha, seed):
    if (alpha, seed) in cells:
        raise ValueError(f"boom at {alpha}, {seed}")
    return dummy_record(alpha)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_fails_at_the_first_failing_cell_in_row_order(monkeypatch, workers):
    # Rows are alpha-major: (0.0, 1) is the first failure in row order though
    # (0.5, 0) is the first a seed-by-seed order reaches.
    ran = []  # the cells run in this process, in order: none in the pool

    def cell(run, synth_cfg, alpha, seed):
        ran.append((alpha, seed))
        return _fail_at({(0.5, 0), (0.0, 1)}, run, synth_cfg, alpha, seed)

    tc, sc = tiny_configs()
    monkeypatch.setattr(sweep_mod, "_cell", cell)
    with pytest.raises(gl.SweepRunError) as info:
        gl.run_sweep(tc, sc, alphas=[0.0, 0.5], seeds=[0, 1], max_workers=workers)
    assert (info.value.alpha, info.value.seed) == (0.0, 1)
    assert info.value.rows == [("0", dummy_record(0.0))]
    assert "boom at 0.0, 1" in str(info.value)
    if workers == 1:  # no cell after the failing one in row order runs
        assert ran == [(0.0, 0), (0.0, 1)]


def test_a_failing_anchor_run_fails_every_cell_of_its_seed(monkeypatch):
    tc, sc = tiny_configs()
    real_anchor = sweep_mod._anchor

    def anchor(train_cfg, synth_cfg, seed, scheduled):
        if seed == 1:
            raise trainkit.NonFiniteLossError(0, 1, 0.0, float("inf"))
        return real_anchor(train_cfg, synth_cfg, seed, scheduled)

    monkeypatch.setattr(sweep_mod, "_anchor", anchor)
    monkeypatch.setattr(sweep_mod, "_cell", functools.partial(_fail_at, set()))
    with pytest.raises(gl.SweepRunError) as info:
        gl.run_sweep(tc, sc, alphas=[0.0, 0.5], seeds=[0, 1, 2], max_workers=1)
    assert (info.value.alpha, info.value.seed) == (0.0, 1)
    assert info.value.rows == [("0", dummy_record(0.0))]
    assert isinstance(info.value.cause, trainkit.NonFiniteLossError)


def test_each_seeds_cells_start_when_its_own_anchor_run_ends(monkeypatch):
    # seed 0's anchor run waits for a cell of seed 1: a pool that queued
    # cells seed by seed would wait on seed 0 first and never start it
    released = multiprocessing.get_context("fork").Event()
    real_anchor = sweep_mod._anchor

    def anchor(train_cfg, synth_cfg, seed, scheduled):
        if seed == 0 and not released.wait(5.0):
            raise TimeoutError("seed 1's cells never started")
        return real_anchor(train_cfg, synth_cfg, seed, scheduled)

    def cell(run, synth_cfg, alpha, seed):
        if seed == 1:
            released.set()
        return dummy_record(alpha)

    monkeypatch.setattr(sweep_mod, "_anchor", anchor)
    monkeypatch.setattr(sweep_mod, "_cell", cell)
    tc, sc = tiny_configs()
    rows = gl.run_sweep(tc, sc, alphas=[0.0, 0.5], seeds=[0, 1], max_workers=2)
    assert [label for label, _ in rows] == ["0", "1", "mean"] * 2


def test_any_exception_in_the_parent_cancels_the_queued_cells(monkeypatch, tmp_path):
    # the first block's mean raises: each cell leaves a file when it starts.
    # The pool runs ready cells in row order with one job queued beyond its
    # workers, so about the first block and three more start, not all 16
    def cell(run, synth_cfg, alpha, seed):
        (tmp_path / f"{alpha}-{seed}").touch()
        time.sleep(0.05)
        return dummy_record(alpha)

    def mean_record(records):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(sweep_mod, "_cell", cell)
    monkeypatch.setattr(sweep_mod, "_mean_record", mean_record)
    tc, sc = tiny_configs()
    alphas = [i / 8 for i in range(8)]
    with pytest.raises(RuntimeError, match="interrupted"):
        gl.run_sweep(tc, sc, alphas, seeds=[0, 1], max_workers=2)
    assert 2 <= len(list(tmp_path.iterdir())) < 8


# ------------------------------------------------------------- sweep_to_csv

def test_csv_header_and_float_round_trip():
    rows = [("0", dummy_record(base=0.123456789012345)), ("mean", dummy_record(base=1.0))]
    text = gl.sweep_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "seed," + ",".join(gl.SWEEP_FIELDS)
    assert lines[0].split(",")[0] == "seed"
    cells = lines[1].split(",")
    assert cells[0] == "0"
    # repr round-trips every float exactly
    for name, cell in zip(gl.SWEEP_FIELDS, cells[1:]):
        assert float(cell) == getattr(rows[0][1], name)


def test_csv_failure_marker_row():
    text = gl.sweep_to_csv([], failure=(0.5, 3))
    lines = text.strip().split("\n")
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "failed:seed=3"
    assert float(cells[1]) == 0.5
    assert cells[2:] == [""] * (len(gl.SWEEP_FIELDS) - 1)
    assert len(cells) == len(lines[0].split(","))


# ------------------------------------------------------------ _worker_count

def test_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("GAPLAB_THREADS", "3")
    assert sweep_mod._worker_count() == 3
    monkeypatch.setenv("GAPLAB_THREADS", "0")
    with pytest.raises(ValueError):
        sweep_mod._worker_count()
    monkeypatch.setenv("GAPLAB_THREADS", "many")
    with pytest.raises(ValueError):
        sweep_mod._worker_count()
    monkeypatch.delenv("GAPLAB_THREADS")
    assert sweep_mod._worker_count() >= 1


def test_worker_count_defaults_to_usable_cpus(monkeypatch):
    monkeypatch.delenv("GAPLAB_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert sweep_mod._worker_count() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert sweep_mod._worker_count() == 64


# ------------------------------------------------------- BLAS threads in the pool

def _report_threads(run, synth_cfg, alpha, seed):
    threads = float(trainkit._openblas()[0]())
    return gl.SweepRecord(**{name: threads for name in gl.SWEEP_FIELDS})


def test_pool_workers_run_one_blas_thread(monkeypatch):
    if trainkit._openblas() is None:
        pytest.skip("no OpenBLAS library mapped into this process")
    get_threads, set_threads = trainkit._openblas()
    before = get_threads()
    parent_threads = max(before, 2)

    # the pool forks, so the workers inherit the patched module attribute
    monkeypatch.setattr(sweep_mod, "_cell", _report_threads)
    tc, sc = tiny_configs()
    set_threads(parent_threads)
    try:
        rows = gl.run_sweep(tc, sc, alphas=[0.0, 0.5], seeds=[0, 1], max_workers=2)
        assert get_threads() == parent_threads
    finally:
        set_threads(before)
    assert len(rows) == 6
    assert all(rec.probe_accuracy == 1.0 for _, rec in rows)


def _report_os_threads(run, synth_cfg, alpha, seed):
    threads = float(len(os.listdir("/proc/self/task")))
    return gl.SweepRecord(**{name: threads for name in gl.SWEEP_FIELDS})


def test_pool_workers_run_no_blas_helper_thread(monkeypatch):
    # A fork shuts OpenBLAS's thread pool down, and any setter call after it
    # starts the pool again: a busy-waiting helper thread beside each worker.
    if trainkit._openblas() is None or not os.path.isdir("/proc/self/task"):
        pytest.skip("needs an OpenBLAS library mapped into this process and /proc")
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers inherit the parent's thread count only when forked")
    get_threads, set_threads = trainkit._openblas()
    before = get_threads()
    monkeypatch.setattr(sweep_mod, "_cell", _report_os_threads)
    tc, sc = tiny_configs()
    set_threads(max(before, 2))
    try:
        rows = gl.run_sweep(tc, sc, alphas=[0.0, 0.5], seeds=[0, 1], max_workers=2)
    finally:
        set_threads(before)
    assert [rec.probe_accuracy for _, rec in rows] == [1.0] * 6


def fake_openblas(monkeypatch, log, threads: int):
    """Stand-in OpenBLAS hooks at threads threads. Each setter call, in this
    process or a forked one, appends its (pid, count) to the file log; the
    returned function reads them back."""
    current = [threads]
    log.write_text("")

    def set_threads(count):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {count}\n")
        current[0] = count

    monkeypatch.setattr(trainkit, "_openblas", lambda: (lambda: current[0], set_threads))
    return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def test_blas_threads_at_the_current_count_calls_no_setter(monkeypatch, tmp_path):
    calls = fake_openblas(monkeypatch, tmp_path / "set.log", 2)
    assert trainkit._blas_threads(2) == 2
    assert calls() == []
    assert trainkit._blas_threads(1) == 2
    assert calls() == [(os.getpid(), 1)]


@pytest.mark.parametrize("failing", [set(), {(0.0, 1)}])
@pytest.mark.parametrize("workers", [1, 2])
def test_a_sweep_sets_blas_threads_only_in_the_parent(monkeypatch, tmp_path, workers, failing):
    # The parent drops to one thread once, before the pool forks or the first
    # serial run, and restores the caller's count once at the end, also after
    # a failed cell; the runs and the forked workers inherit one thread and
    # call no setter, in the initializer or in training.
    calls = fake_openblas(monkeypatch, tmp_path / "set.log", 3)
    tc, sc = tiny_configs()
    sweep = functools.partial(gl.run_sweep, tc, sc, alphas=[0.0, 0.5], seeds=[0, 1],
                              max_workers=workers)
    if failing:
        monkeypatch.setattr(sweep_mod, "_cell", functools.partial(_fail_at, failing))
        with pytest.raises(gl.SweepRunError):
            sweep()
    else:
        assert len(sweep()) == 6
    assert calls() == [(os.getpid(), 1), (os.getpid(), 3)]
    assert trainkit._openblas()[0]() == 3


def test_blas_pinning_is_a_no_op_without_openblas(monkeypatch):
    monkeypatch.setattr(trainkit, "_openblas", lambda: None)
    assert trainkit._blas_threads(1) is None
    tc, sc = tiny_configs()
    # the pool workers fork, so their initializer and training see the patch too
    record = gl.run_single(tc, sc, 0.5, 0)
    assert gl.run_sweep(tc, sc, alphas=[0.5], seeds=[0], max_workers=2) == \
        [("0", record), ("mean", record)]
