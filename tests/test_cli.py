import csv
import dataclasses
import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import gaplab as gl
from gaplab import cli as cli_mod
from gaplab import sweep as sweep_mod

from conftest import unit_rows


TINY_CONFIG = {
    "synth": {"n_classes": 4, "samples_per_class": 10, "latent_dim": 4,
              "image_input_dim": 6, "text_input_dim": 5, "seed": 0},
    "train": {"batch_size": 8, "hidden_dim": 8, "embed_dim": 4, "seed": 0,
              "curriculum": {"anchor_epochs": 1, "ramp_epochs": 1,
                             "stabilize_epochs": 1, "alpha_target": 0.5}},
}


@pytest.fixture
def tiny_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


@pytest.fixture
def emb_pair(tmp_path):
    rng = np.random.default_rng(0)
    v = unit_rows(rng, 30, 6)
    t = unit_rows(rng, 30, 6)
    labels = np.arange(30) % 5
    vp = tmp_path / "images.emb"
    tp = tmp_path / "texts.emb"
    gl.write_embeddings(vp, v, labels)
    gl.write_embeddings(tp, t, labels)
    return vp, tp


def run_cli(argv, capsys):
    code = cli_mod.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- run configs

def test_load_run_config_defaults_and_overrides(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    tc, sc = cli_mod.load_run_config(empty)
    assert tc == gl.TrainConfig()
    assert sc == gl.SynthConfig()

    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({
        "synth": {"noise_sigma": 0.8},
        "train": {"learning_rate": 0.01, "curriculum": {"alpha_target": 0.9}},
    }))
    tc, sc = cli_mod.load_run_config(partial)
    assert sc.noise_sigma == 0.8
    assert tc.learning_rate == 0.01
    assert tc.curriculum.alpha_target == 0.9
    assert tc.curriculum.anchor_epochs == 3      # untouched default


def test_load_run_config_rejects_unknown_and_badly_typed_keys(tmp_path):
    cases = [
        {"typo": {}},
        {"synth": {"n_class": 4}},
        {"train": {"curriculum": {"ramp": 1}}},
        {"train": {"batch_size": 8.5}},
        {"synth": {"seed": True}},
        {"train": {"learning_rate": "fast"}},
        {"train": {"curriculum": {"steps_per_epoch": 12}}},
    ]
    for i, payload in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            cli_mod.load_run_config(path)
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ValueError):
        cli_mod.load_run_config(broken)


# each run-config section and the fields it offers; the integer fields are
# written out here so the CLI's type check, derived from the dataclass field
# types, is pinned independently
RUN_CONFIG_SECTIONS = {
    "synth": (gl.SynthConfig, set()),
    "train": (gl.TrainConfig, {"curriculum"}),
    "train.curriculum": (gl.CurriculumConfig, {"steps_per_epoch"}),
}
INT_FIELDS = {
    "n_classes", "samples_per_class", "latent_dim", "image_input_dim",
    "text_input_dim", "seed", "batch_size", "hidden_dim", "embed_dim",
    "anchor_epochs", "ramp_epochs", "stabilize_epochs",
}
# float fields whose valid range holds no integer
NO_INTEGER_VALUE = {"train_fraction", "ema_slow_decay", "ema_fast_decay"}
RUN_CONFIG_FIELDS = [
    (section, f.name)
    for section, (cls, hidden) in RUN_CONFIG_SECTIONS.items()
    for f in dataclasses.fields(cls) if f.name not in hidden
]


def _config_with(tmp_path, section, name, value):
    payload = {name: value}
    for key in reversed(section.split(".")):
        payload = {key: payload}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("section,name", RUN_CONFIG_FIELDS)
def test_run_config_type_check_follows_the_field_type(tmp_path, section, name):
    if name in INT_FIELDS:
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="must be an integer"):
                cli_mod.load_run_config(_config_with(tmp_path, section, name, bad))
        return
    with pytest.raises(ValueError, match="must be a number"):
        cli_mod.load_run_config(_config_with(tmp_path, section, name, "fast"))
    integer = 0 if name.startswith("adam_beta") else 1
    path = _config_with(tmp_path, section, name, integer)
    if name in NO_INTEGER_VALUE:
        # the type check passes the integer on; the config's range check rejects it
        with pytest.raises(ValueError) as info:
            cli_mod.load_run_config(path)
        assert "must be a number" not in str(info.value)
        return
    tc, sc = cli_mod.load_run_config(path)
    owner = {"synth": sc, "train": tc, "train.curriculum": tc.curriculum}[section]
    value = getattr(owner, name)
    assert value == integer and type(value) is float


# ------------------------------------------------------------------ analyze

def test_analyze_matches_in_memory_report(tmp_path, emb_pair, capsys):
    vp, tp = emb_pair
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(["analyze", "--images", vp, "--texts", tp, "--out", out], capsys)
    assert code == 0
    assert "raw_gap=" in stdout

    data = json.loads(out.read_text())
    v, vl = gl.read_embeddings(vp)
    t, tl = gl.read_embeddings(tp)
    report = gl.gap_report(gl.EmbeddingBatch(v, labels=vl),
                           gl.EmbeddingBatch(t, labels=tl, modality="text"))
    assert data == dataclasses.asdict(report)


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    code, _, stderr = run_cli(
        ["analyze", "--images", tmp_path / "no.emb", "--texts", tmp_path / "no.emb",
         "--out", tmp_path / "r.json"], capsys)
    assert code == 2
    assert "no.emb" in stderr


def test_analyze_pair_mismatch_exits_2(tmp_path, emb_pair, capsys):
    vp, _ = emb_pair
    short = tmp_path / "short.emb"
    gl.write_embeddings(short, np.eye(3))
    code, _, stderr = run_cli(["analyze", "--images", vp, "--texts", short,
                               "--out", tmp_path / "r.json"], capsys)
    assert code == 2
    assert "mismatch" in stderr


# ------------------------------------------------------------------- center

def test_center_zeroes_centroids_and_keeps_distribution_gap(tmp_path, emb_pair, capsys):
    vp, tp = emb_pair
    ov = tmp_path / "cv.emb"
    ot = tmp_path / "ct.emb"
    code, stdout, _ = run_cli(["center", "--images", vp, "--texts", tp,
                               "--out-images", ov, "--out-texts", ot], capsys)
    assert code == 0
    assert stdout.count("raw_gap=") == 2        # before and after summaries

    v, vl = gl.read_embeddings(vp)
    t, _ = gl.read_embeddings(tp)
    cv, cvl = gl.read_embeddings(ov)
    ct, _ = gl.read_embeddings(ot)
    assert np.array_equal(cvl, vl)              # labels ride along
    assert gl.centroid_gap(cv, ct) < 1e-6
    before, _ = gl.distribution_gap(v, t)
    after, _ = gl.distribution_gap(cv, ct)
    assert abs(before - after) < 1e-5           # float32 file round-trip


def test_center_renormalize_gives_unit_rows(tmp_path, emb_pair, capsys):
    vp, tp = emb_pair
    ov = tmp_path / "cv.emb"
    ot = tmp_path / "ct.emb"
    code, _, _ = run_cli(["center", "--images", vp, "--texts", tp,
                          "--out-images", ov, "--out-texts", ot, "--renormalize"], capsys)
    assert code == 0
    cv, _ = gl.read_embeddings(ov)
    assert np.allclose(np.linalg.norm(cv, axis=1), 1.0, atol=1e-5)


# -------------------------------------------------------------------- train

def test_train_writes_all_artifacts(tmp_path, tiny_config_path, capsys):
    out_dir = tmp_path / "run"
    code, stdout, _ = run_cli(["train", "--config", tiny_config_path, "--out-dir", out_dir], capsys)
    assert code == 0
    assert "epochs=3" in stdout

    names = sorted(p.name for p in out_dir.iterdir())
    assert names == sorted([
        "history.jsonl", "eval_images.emb", "eval_texts.emb", "temperature.json",
        "image_w1.emb", "image_b1.emb", "image_w2.emb", "image_b2.emb",
        "text_w1.emb", "text_b1.emb", "text_w2.emb", "text_b2.emb",
    ])

    lines = (out_dir / "history.jsonl").read_text().strip().split("\n")
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["alpha"] == 0.0                 # anchor epoch
    last = json.loads(lines[-1])
    assert last["alpha"] == 0.5                  # stabilized at target

    temp = json.loads((out_dir / "temperature.json").read_text())
    assert temp["log_scale"] <= gl.LOG_SCALE_MAX

    emb, labels = gl.read_embeddings(out_dir / "eval_images.emb")
    assert emb.shape == (8, 4)
    assert labels is not None

    w1, none_labels = gl.read_embeddings(out_dir / "image_w1.emb")
    assert w1.shape == (6, 8) and none_labels is None


def test_train_is_byte_deterministic(tmp_path, tiny_config_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert run_cli(["train", "--config", tiny_config_path, "--out-dir", d], capsys)[0] == 0
    for name in ("history.jsonl", "eval_images.emb", "temperature.json", "text_w2.emb"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_train_eval_embeddings_match_a_fresh_encode_of_the_eval_split(
        tmp_path, tiny_config_path, capsys):
    out_dir = tmp_path / "run"
    assert run_cli(["train", "--config", tiny_config_path, "--out-dir", out_dir], capsys)[0] == 0
    tc, sc = cli_mod.load_run_config(tiny_config_path)
    data = gl.synth_dataset(sc)
    (img, txt), _, _ = gl.train(tc, sc)
    fresh = gl.encode_pairs(img, txt, data, data.eval_idx)

    def from_checkpoint(name):
        w1, b1, w2, b2 = (gl.read_embeddings(out_dir / f"{name}_{p}.emb")[0]
                          for p in ("w1", "b1", "w2", "b2"))
        return gl.Encoder(w1, b1[0], w2, b2[0])

    reloaded = gl.encode_pairs(from_checkpoint("image"), from_checkpoint("text"),
                               data, data.eval_idx)
    for name, batch, again in zip(("eval_images.emb", "eval_texts.emb"), fresh, reloaded):
        vectors, labels = gl.read_embeddings(out_dir / name)
        assert np.array_equal(labels, data.labels[data.eval_idx])
        assert np.array_equal(vectors, batch.vectors.astype(np.float32))
        # the checkpoint holds float32 weights, so its encodings may round
        # to the neighbouring float32
        np.testing.assert_allclose(vectors, again.vectors.astype(np.float32), rtol=0, atol=1.2e-7)


def test_train_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"unknown_knob": 1}}))
    code, _, stderr = run_cli(["train", "--config", bad, "--out-dir", tmp_path / "x"], capsys)
    assert code == 2
    assert "unknown_knob" in stderr


@pytest.fixture
def oversized_batch_config(tmp_path):
    path = tmp_path / "big_batch.json"
    path.write_text(json.dumps({"train": {"batch_size": 5000}}))
    return path


def test_train_rejected_config_leaves_no_out_dir(tmp_path, oversized_batch_config, capsys):
    out_dir = tmp_path / "never"
    code, _, stderr = run_cli(["train", "--config", oversized_batch_config,
                               "--out-dir", out_dir], capsys)
    assert code == 2
    assert "batch_size 5000 exceeds the train split size 1600" in stderr
    assert not out_dir.exists()


def test_train_rejects_steps_per_epoch_and_leaves_no_out_dir(tmp_path, capsys):
    config = tmp_path / "spe.json"
    config.write_text(json.dumps({"train": {"curriculum": {"steps_per_epoch": 12}}}))
    out_dir = tmp_path / "never"
    code, _, stderr = run_cli(["train", "--config", config, "--out-dir", out_dir], capsys)
    assert code == 2
    assert "unknown key(s) in train.curriculum: steps_per_epoch" in stderr
    assert not out_dir.exists()


def test_train_numerical_failure_exits_3(tmp_path, tiny_config_path, capsys, monkeypatch):
    def explode(train_cfg, synth_cfg):
        raise gl.trainkit.NonFiniteLossError(0, 4, 0.1, float("nan"))

    monkeypatch.setattr(cli_mod, "train", explode)
    code, _, stderr = run_cli(["train", "--config", tiny_config_path,
                               "--out-dir", tmp_path / "x"], capsys)
    assert code == 3
    assert "numerical failure" in stderr


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("learning_rate", [1e300, 1e200])
def test_train_diverging_run_exits_3(tmp_path, capsys, learning_rate):
    # Valid config, diverging run: the row norms overflow after the first
    # update. That is a numerical failure, not bad input.
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({"train": {"learning_rate": learning_rate}}))
    code, _, stderr = run_cli(["train", "--config", config, "--out-dir", tmp_path / "x"], capsys)
    assert code == 3
    assert "numerical failure: non-finite encoder output norm inf at epoch 0, step 1" in stderr


# -------------------------------------------------------------------- sweep

def test_sweep_csv_structure_and_determinism(tmp_path, tiny_config_path, capsys, monkeypatch):
    monkeypatch.setenv("GAPLAB_THREADS", "1")
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(["sweep", "--config", tiny_config_path,
                               "--alphas", "0,0.5", "--seeds", "0,1", "--out", out], capsys)
    assert code == 0
    assert "wrote 6 rows" in stdout

    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == gl.CSV_HEADER
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "1", "mean", "0", "1", "mean"]

    with out.open(newline="") as f:
        rows = list(csv.DictReader(f))
    block = [r for r in rows[:2]]
    mean_row = rows[2]
    for field in gl.SWEEP_FIELDS:
        expected = (float(block[0][field]) + float(block[1][field])) / 2.0
        assert float(mean_row[field]) == pytest.approx(expected, abs=1e-15)

    code2, _, _ = run_cli(["sweep", "--config", tiny_config_path,
                           "--alphas", "0,0.5", "--seeds", "0,1", "--out", out], capsys)
    assert code2 == 0
    assert out.read_text() == text


def test_sweep_parallel_workers_match_serial(tmp_path, tiny_config_path, capsys, monkeypatch):
    out_serial = tmp_path / "serial.csv"
    out_par = tmp_path / "par.csv"
    monkeypatch.setenv("GAPLAB_THREADS", "1")
    assert run_cli(["sweep", "--config", tiny_config_path, "--alphas", "0.3",
                    "--seeds", "0,1", "--out", out_serial], capsys)[0] == 0
    monkeypatch.setenv("GAPLAB_THREADS", "2")
    assert run_cli(["sweep", "--config", tiny_config_path, "--alphas", "0.3",
                    "--seeds", "0,1", "--out", out_par], capsys)[0] == 0
    assert out_serial.read_text() == out_par.read_text()


def test_sweep_single_alpha_matches_run_single(tmp_path, tiny_config_path, capsys, monkeypatch):
    monkeypatch.setenv("GAPLAB_THREADS", "1")
    out = tmp_path / "one.csv"
    assert run_cli(["sweep", "--config", tiny_config_path, "--alphas", "0.5",
                    "--seeds", "3", "--out", out], capsys)[0] == 0
    with out.open(newline="") as f:
        rows = list(csv.DictReader(f))
    tc, sc = cli_mod.load_run_config(tiny_config_path)
    record = gl.run_single(tc, sc, 0.5, seed=3)
    for field in gl.SWEEP_FIELDS:
        assert float(rows[0][field]) == getattr(record, field)


def test_sweep_constant_alpha_flag_changes_results(tmp_path, tiny_config_path, capsys, monkeypatch):
    monkeypatch.setenv("GAPLAB_THREADS", "1")
    scheduled = tmp_path / "sched.csv"
    pinned = tmp_path / "pinned.csv"
    base = ["sweep", "--config", tiny_config_path, "--alphas", "0.5", "--seeds", "0"]
    assert run_cli(base + ["--out", scheduled], capsys)[0] == 0
    assert run_cli(base + ["--out", pinned, "--constant-alpha"], capsys)[0] == 0
    assert scheduled.read_text() != pinned.read_text()


def test_sweep_bad_alpha_list_exits_2(tmp_path, tiny_config_path, capsys):
    code, _, stderr = run_cli(["sweep", "--config", tiny_config_path,
                               "--alphas", "0.2,high", "--out", tmp_path / "s.csv"], capsys)
    assert code == 2
    assert "--alphas" in stderr


def test_sweep_oversized_batch_exits_2_like_train(tmp_path, oversized_batch_config,
                                                  capsys, monkeypatch):
    monkeypatch.setenv("GAPLAB_THREADS", "2")
    out = tmp_path / "s.csv"
    code, _, sweep_err = run_cli(["sweep", "--config", oversized_batch_config,
                                  "--alphas", "0.5", "--seeds", "0,1", "--out", out], capsys)
    assert code == 2
    assert not out.exists()
    train_code, _, train_err = run_cli(["train", "--config", oversized_batch_config,
                                        "--out-dir", tmp_path / "t"], capsys)
    assert train_code == 2
    assert sweep_err == train_err


def test_sweep_bad_worker_count_exits_2_before_any_cell(tmp_path, tiny_config_path,
                                                       capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(sweep_mod, "run_single", lambda *args, **kwargs: ran.append(args))
    monkeypatch.setenv("GAPLAB_THREADS", "0")
    out = tmp_path / "s.csv"
    code, _, stderr = run_cli(["sweep", "--config", tiny_config_path,
                               "--alphas", "0.5", "--seeds", "0,1", "--out", out], capsys)
    assert code == 2
    assert "GAPLAB_THREADS must be >= 1" in stderr
    assert ran == []
    assert not out.exists()


def test_sweep_pool_cancels_pending_cells_after_a_failure(tmp_path, tiny_config_path,
                                                          capsys, monkeypatch):
    ran = tmp_path / "ran.txt"
    good = gl.SweepRecord(**{name: 0.5 for name in gl.SWEEP_FIELDS})

    def first_cell_fails(train_cfg, synth_cfg, alpha, seed, scheduled=True):
        with open(ran, "a") as f:
            f.write(f"{alpha},{seed}\n")
        if (alpha, seed) == (0.0, 0):
            raise gl.trainkit.NonFiniteLossError(0, 0, alpha, float("nan"))
        time.sleep(0.5)
        return good

    # the pool forks, so the workers inherit the patched module attribute
    monkeypatch.setattr(sweep_mod, "run_single", first_cell_fails)
    monkeypatch.setenv("GAPLAB_THREADS", "2")
    out = tmp_path / "partial.csv"
    code, _, stderr = run_cli(["sweep", "--config", tiny_config_path,
                               "--alphas", "0,0.25,0.5,0.75,1", "--seeds", "0,1",
                               "--out", out], capsys)
    assert code == 3
    assert "partial" in stderr
    # calls already handed to a worker cannot be cancelled: besides the two
    # running cells, the executor queues up to workers + 1 more, so at most
    # six of the ten cells can start
    assert len(ran.read_text().splitlines()) < 10
    lines = out.read_text().strip().split("\n")
    assert lines[0] == gl.CSV_HEADER
    assert lines[1].startswith("failed:seed=0,0.0,")


def test_sweep_failure_writes_partial_csv_and_exits_3(tmp_path, tiny_config_path,
                                                      capsys, monkeypatch):
    values = {name: 0.5 for name in gl.SWEEP_FIELDS}
    good = gl.SweepRecord(**values)

    def fail(train_cfg, synth_cfg, alphas, seeds, scheduled=True, max_workers=None):
        raise gl.SweepRunError(0.5, 1, ValueError("synthetic"), [("0", good)])

    monkeypatch.setattr(cli_mod, "run_sweep", fail)
    out = tmp_path / "partial.csv"
    code, _, stderr = run_cli(["sweep", "--config", tiny_config_path,
                               "--alphas", "0.5", "--seeds", "0,1", "--out", out], capsys)
    assert code == 3
    assert "partial" in stderr
    lines = out.read_text().strip().split("\n")
    assert lines[0] == gl.CSV_HEADER
    assert lines[1].startswith("0,")
    assert lines[2].startswith("failed:seed=1,0.5,")


# ---------------------------------------------------------------- correlate

def test_correlate_prefers_mean_rows(tmp_path, tiny_config_path, capsys, monkeypatch):
    monkeypatch.setenv("GAPLAB_THREADS", "1")
    sweep_csv = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--config", tiny_config_path, "--alphas", "0,0.3,0.6",
                    "--seeds", "0", "--out", sweep_csv], capsys)[0] == 0
    out = tmp_path / "fit.json"
    code, stdout, _ = run_cli(["correlate", "--sweep", sweep_csv,
                               "--x", "distribution_gap", "--y", "probe_accuracy",
                               "--out", out], capsys)
    assert code == 0
    assert "r_squared" in stdout
    data = json.loads(out.read_text())
    assert data["x"] == "distribution_gap"
    assert data["y"] == "probe_accuracy"
    assert data["n_rows"] == 3                  # one mean row per alpha
    assert set(data) == {"x", "y", "n_rows", "slope", "intercept", "r_squared",
                         "r_squared_distribution_gap", "r_squared_raw_gap"}
    assert data["r_squared_distribution_gap"] == pytest.approx(data["r_squared"])


def test_correlate_exact_line_and_fallback_rows(tmp_path, capsys):
    path = tmp_path / "line.csv"
    path.write_text(
        "seed,alpha_target,metric\n"
        "0,0.0,1.0\n"
        "1,0.2,1.4\n"
        "2,0.4,1.8\n"
    )
    out = tmp_path / "fit.json"
    code, _, _ = run_cli(["correlate", "--sweep", path, "--x", "alpha_target",
                          "--y", "metric", "--out", out], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n_rows"] == 3                  # digit-seed fallback rows
    assert data["slope"] == pytest.approx(2.0, abs=1e-12)
    assert data["intercept"] == pytest.approx(1.0, abs=1e-12)
    assert data["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert data["r_squared_raw_gap"] is None    # column absent from this CSV


def test_correlate_missing_column_exits_2(tmp_path, capsys):
    path = tmp_path / "line.csv"
    path.write_text("seed,a\nmean,1.0\nmean,2.0\nmean,3.0\n")
    code, _, stderr = run_cli(["correlate", "--sweep", path, "--x", "a", "--y", "b",
                               "--out", tmp_path / "f.json"], capsys)
    assert code == 2
    assert "'b'" in stderr


def test_correlate_constant_x_exits_2(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("seed,a,b\nmean,1.0,1.0\nmean,1.0,2.0\nmean,1.0,3.0\n")
    code, _, _ = run_cli(["correlate", "--sweep", path, "--x", "a", "--y", "b",
                          "--out", tmp_path / "f.json"], capsys)
    assert code == 2


# --------------------------------------------------------------------- plot

def test_plot_produces_valid_deterministic_svg(tmp_path, emb_pair, capsys):
    vp, tp = emb_pair
    out = tmp_path / "scatter.svg"
    code, stdout, _ = run_cli(["plot", "--images", vp, "--texts", tp, "--out", out], capsys)
    assert code == 0
    assert "60 points" in stdout

    text = out.read_text()
    root = ET.fromstring(text)                   # well-formed XML, single root
    assert root.tag.endswith("svg")
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    squares = [e for e in root.iter() if e.tag.endswith("rect") and e.get("fill") == "#cc3333"]
    assert len(circles) == 30 and len(squares) == 30
    texts_elems = [e for e in root.iter() if e.tag.endswith("text")]
    assert any("raw_gap=" in (e.text or "") for e in texts_elems)

    assert run_cli(["plot", "--images", vp, "--texts", tp, "--out", out], capsys)[0] == 0
    assert out.read_text() == text


# ------------------------------------------------------------------- parser

def test_parser_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        cli_mod.main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        cli_mod.main(["frobnicate"])
    capsys.readouterr()


def test_entrypoint_exits_with_main_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["gaplab", "analyze", "--images", "a", "--texts", "b",
                                     "--out", str(tmp_path / "r.json")])
    with pytest.raises(SystemExit) as info:
        cli_mod.entrypoint()
    assert info.value.code == 2
    capsys.readouterr()


def _run_module(*argv):
    env = dict(os.environ)
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", *argv], capture_output=True, text=True,
                          env=env, timeout=60)


def test_python_dash_m_gaplab_prints_usage():
    result = _run_module("gaplab", "--help")
    assert result.returncode == 0
    assert result.stdout.startswith("usage: gaplab")


def test_python_dash_m_gaplab_cli_runs_the_parser():
    result = _run_module("gaplab.cli", "analyze")
    assert result.returncode == 2
    assert "the following arguments are required" in result.stderr
