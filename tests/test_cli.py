import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import gaplab as gl
from gaplab import cli as cli_mod
from gaplab import sweep as sweep_mod

from conftest import encode_pairs, unit_rows


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


# a section that is not an object, each of a type that once slipped past the check
NOT_OBJECT_SECTIONS = [{"train": None}, {"train": 5}, {"train": [[1, 2]]}, {"train": "ab"}]
# integer literals too large for a float64, in a number field and an integer field
BEYOND_FLOAT64 = [{"train": {"learning_rate": 10**400}}, {"synth": {"n_classes": 10**400}}]


def test_load_run_config_rejects_unknown_and_badly_typed_keys(tmp_path):
    cases = [
        {"typo": {}},
        {"synth": {"n_class": 4}},
        {"train": {"curriculum": {"ramp": 1}}},
        {"train": {"batch_size": 8.5}},
        {"synth": {"seed": True}},
        {"train": {"learning_rate": "fast"}},
        {"train": {"curriculum": {"steps_per_epoch": 12}}},
        *NOT_OBJECT_SECTIONS,
        *BEYOND_FLOAT64,
    ]
    for i, payload in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            cli_mod.load_run_config(path)
    for i, payload in enumerate(NOT_OBJECT_SECTIONS):
        path = tmp_path / f"section{i}.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="'synth' and 'train' must be JSON objects"):
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
    "train.curriculum": (gl.CurriculumConfig, set()),
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


# a value just outside each field's range, written out here so the bounds the
# config fields declare are pinned independently
OUT_OF_RANGE = {
    "synth": {"n_classes": 1, "samples_per_class": 1, "latent_dim": 0, "image_input_dim": 0,
              "text_input_dim": 0, "noise_sigma": -0.1, "train_fraction": 1.0, "seed": -1},
    "train": {"batch_size": 1, "learning_rate": 0.0, "adam_beta1": 1.0, "adam_beta2": -0.5,
              "adam_eps": 0.0, "hidden_dim": 0, "embed_dim": 0, "init_log_scale": 5.0, "seed": -1},
    "train.curriculum": {"anchor_epochs": -1, "ramp_epochs": -1, "stabilize_epochs": -1,
                         "alpha_target": 1.5, "ema_slow_decay": 1.0, "ema_fast_decay": 0.0},
}


@pytest.mark.parametrize("section,name", RUN_CONFIG_FIELDS)
def test_an_out_of_range_field_exits_2_naming_it_before_any_work(tmp_path, capsys, monkeypatch,
                                                                 section, name):
    monkeypatch.setattr(cli_mod, "train", lambda *args, **kwargs: pytest.fail("train ran"))
    config = _config_with(tmp_path, section, name, OUT_OF_RANGE[section][name])
    out_dir = tmp_path / "never"
    code, _, stderr = run_cli(["train", "--config", config, "--out-dir", out_dir], capsys)
    assert code == 2
    assert stderr.startswith(f"error: {section}.{name} must be ")
    assert not out_dir.exists()


def test_readme_run_config_block_holds_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Run-config JSON", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    assert json.loads(block) == {"synth": dataclasses.asdict(gl.SynthConfig()),
                                 "train": dataclasses.asdict(gl.TrainConfig())}


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


@pytest.mark.parametrize("shape, message", [((29, 6), "pair count mismatch"),
                                            ((30, 5), "embedding dim mismatch")])
@pytest.mark.parametrize("command, outputs", [
    ("analyze", [("--out", "r.json")]),
    ("center", [("--out-images", "ci.emb"), ("--out-texts", "ct.emb")]),
])
def test_a_mismatched_pair_exits_2_and_writes_nothing(tmp_path, emb_pair, capsys, command,
                                                      outputs, shape, message):
    vp, tp = emb_pair
    gl.write_embeddings(tp, unit_rows(np.random.default_rng(1), *shape))
    argv = command_argv(command, outputs, tmp_path, emb_pair, None)
    before = sorted(os.listdir(tmp_path))
    code, stdout, stderr = run_cli(argv, capsys)
    assert (code, stdout) == (2, "")
    assert message in stderr
    assert sorted(os.listdir(tmp_path)) == before


def test_correlate_fits_a_column_at_any_finite_scale(tmp_path, capsys):
    path = tmp_path / "tiny.csv"
    path.write_text("seed,a,b\nmean,1e-200,1.0\nmean,2e-200,2.0\nmean,3e-200,3.0\n")
    out = tmp_path / "f.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run_cli(["correlate", "--sweep", path, "--x", "a", "--y", "b",
                              "--out", out], capsys)
    assert code == 0

    def reject(constant):
        raise AssertionError(f"{constant} is not valid JSON")

    data = json.loads(out.read_text(), parse_constant=reject)
    assert data["slope"] == pytest.approx(1e200, rel=1e-14)
    assert abs(data["intercept"]) < 1e-14
    assert data["r_squared"] == pytest.approx(1.0, abs=1e-14)


def command_argv(command, outputs, tmp_path, emb_pair, config_path) -> list:
    """argv for a subcommand with valid inputs and the given outputs under tmp_path."""
    vp, tp = emb_pair
    sweep_csv = tmp_path / "sweep.csv"
    sweep_csv.write_text("alpha_target,seed,raw_gap\n0.0,mean,0.5\n0.5,mean,0.3\n1.0,mean,0.2\n")
    inputs = {
        "train": ["--config", config_path],
        "sweep": ["--config", config_path, "--alphas", "0,0.5", "--seeds", "0"],
        "correlate": ["--sweep", sweep_csv, "--x", "alpha_target", "--y", "raw_gap"],
    }
    argv = [command, *inputs.get(command, ["--images", vp, "--texts", tp])]
    for flag, name in outputs:
        argv += [flag, tmp_path / name]
    return argv


@pytest.mark.parametrize("command, outputs", [
    ("analyze", [("--out", "missing/r.json")]),
    ("center", [("--out-images", "ci.emb"), ("--out-texts", "missing/ct.emb")]),
    ("train", [("--out-dir", "missing/run")]),  # "missing" is a file here: makedirs fails
    ("sweep", [("--out", "missing/s.csv")]),
    ("correlate", [("--out", "missing/c.json")]),
])
def test_missing_output_directory_exits_2_before_any_work(tmp_path, emb_pair, tiny_config_path,
                                                          capsys, monkeypatch, command, outputs):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran before the output directories were checked")

    for owner, name in [(cli_mod, "read_embeddings"), (cli_mod, "gap_report"), (cli_mod, "train"),
                        (cli_mod, "run_sweep"), (sweep_mod, "_anchor"), (sweep_mod, "_cell"),
                        (cli_mod, "linear_fit_r2")]:
        monkeypatch.setattr(owner, name, must_not_run)
    argv = command_argv(command, outputs, tmp_path, emb_pair, tiny_config_path)
    if command == "train":
        (tmp_path / "missing").write_text("")
    before = sorted(os.listdir(tmp_path))
    code, stdout, stderr = run_cli(argv, capsys)
    assert code == 2
    assert "missing" in stderr
    assert command == "train" or "does not exist" in stderr
    assert stdout == ""
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command, outputs", [
    ("analyze", [("--out", "taken")]),
    ("center", [("--out-images", "ci.emb"), ("--out-texts", "taken")]),
    ("sweep", [("--out", "taken")]),
    ("correlate", [("--out", "taken")]),
])
def test_output_path_that_is_a_directory_exits_2_before_any_input_is_read(
        tmp_path, emb_pair, tiny_config_path, capsys, monkeypatch, command, outputs):
    def must_not_run(*args, **kwargs):
        raise AssertionError("read an input before the output paths were checked")

    for owner, name in [(cli_mod, "read_embeddings"), (cli_mod, "load_run_config"),
                        (cli_mod.csv, "DictReader")]:
        monkeypatch.setattr(owner, name, must_not_run)
    argv = command_argv(command, outputs, tmp_path, emb_pair, tiny_config_path)
    (tmp_path / "taken").mkdir()
    before = sorted(os.listdir(tmp_path))
    code, stdout, stderr = run_cli(argv, capsys)
    assert code == 2
    assert stderr == f"error: {tmp_path / 'taken'}: output path is a directory\n"
    assert stdout == ""
    assert sorted(os.listdir(tmp_path)) == before
    assert os.listdir(tmp_path / "taken") == []


@pytest.mark.parametrize("command, outputs, other", [
    ("analyze", [("--out", "images.emb")], "images.emb"),
    ("analyze", [("--out", "alias/../texts.emb")], "texts.emb"),
    ("center", [("--out-images", "c.emb"), ("--out-texts", "c.emb")], "c.emb"),
    ("center", [("--out-images", "ci.emb"), ("--out-texts", "images.emb")], "images.emb"),
    ("sweep", [("--out", "config.json")], "config.json"),
    ("correlate", [("--out", "sweep.csv")], "sweep.csv"),
])
def test_output_path_that_names_an_input_or_another_output_exits_2_before_any_input_is_read(
        tmp_path, emb_pair, tiny_config_path, capsys, monkeypatch, command, outputs, other):
    def must_not_run(*args, **kwargs):
        raise AssertionError("read an input before the output paths were checked")

    for owner, name in [(cli_mod, "read_embeddings"), (cli_mod, "load_run_config"),
                        (cli_mod.csv, "DictReader")]:
        monkeypatch.setattr(owner, name, must_not_run)
    argv = command_argv(command, outputs, tmp_path, emb_pair, tiny_config_path)
    (tmp_path / "alias").mkdir()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    code, stdout, stderr = run_cli(argv, capsys)
    assert code == 2
    out = tmp_path / outputs[-1][1]
    assert stderr == f"error: {out}: output path is the same file as {tmp_path / other}\n"
    assert stdout == ""
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before
    assert sorted(os.listdir(tmp_path)) == sorted([*before, "alias"])


def test_unwritable_output_directory_exits_2(tmp_path, emb_pair, capsys, monkeypatch):
    # Simulated: the suite may run as root, for whom every directory is writable.
    vp, tp = emb_pair
    monkeypatch.setattr(cli_mod.os, "access", lambda path, mode: False)
    code, _, stderr = run_cli(["analyze", "--images", vp, "--texts", tp,
                               "--out", tmp_path / "r.json"], capsys)
    monkeypatch.undo()
    assert code == 2
    assert "is not writable" in stderr
    assert not (tmp_path / "r.json").exists()


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
    after = gl.gap_report(cv, ct)
    assert after.centroid_gap < 1e-6
    before = gl.gap_report(v, t).distribution_gap
    assert abs(before - after.distribution_gap) < 1e-5  # float32 file round-trip


def test_center_beyond_float32_exits_2_and_writes_neither_file(tmp_path, capsys):
    # Valid float32 texts whose centered first column reaches 4e38: the
    # texts output cannot be written, so the images output is not either.
    v = unit_rows(np.random.default_rng(3), 3, 2)
    t = np.array([[3e38, 1.0], [-3e38, 2.0], [-3e38, 4.0]])
    vp, tp = tmp_path / "v.emb", tmp_path / "t.emb"
    gl.write_embeddings(vp, v)
    gl.write_embeddings(tp, t)
    ot = tmp_path / "ct.emb"
    code, stdout, stderr = run_cli(["center", "--images", vp, "--texts", tp,
                                    "--out-images", tmp_path / "cv.emb", "--out-texts", ot], capsys)
    assert code == 2
    assert stderr == f"error: {ot}: values beyond the float32 range cannot be written\n"
    assert stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["t.emb", "v.emb"]


def test_center_checks_each_matrix_three_times(tmp_path, capsys, monkeypatch):
    # numerics._checked_matrix calls, through every gaplab module that binds
    # it: the gap reports before and after centering check each matrix once,
    # and each output's float32 range is checked once, both before either
    # file is written; the writes do not check again.
    rng = np.random.default_rng(8)
    vp, tp = tmp_path / "v.emb", tmp_path / "t.emb"
    gl.write_embeddings(vp, unit_rows(rng, 64, 8))
    gl.write_embeddings(tp, unit_rows(rng, 64, 8))
    checks = []
    original = gl.numerics._checked_matrix

    def counted(*args, **kwargs):
        checks.append(args[1])
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("gaplab") and getattr(mod, "_checked_matrix", None) is original:
            monkeypatch.setattr(mod, "_checked_matrix", counted)
    code, _, _ = run_cli(["center", "--images", vp, "--texts", tp, "--out-images", tmp_path / "cv.emb",
                          "--out-texts", tmp_path / "ct.emb", "--renormalize"], capsys)
    assert code == 0
    assert checks == ["images", "texts"] * 2 + ["matrix"] * 2


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


def test_train_builds_the_dataset_once(tmp_path, tiny_config_path, capsys, monkeypatch):
    # the build that rejects an overflowing config is the one trained on
    built = []
    real = gl.trainkit.synth_dataset

    def counted(config):
        built.append(config)
        return real(config)

    monkeypatch.setattr(gl.trainkit, "synth_dataset", counted)
    assert run_cli(["train", "--config", tiny_config_path, "--out-dir", tmp_path / "run"],
                   capsys)[0] == 0
    assert len(built) == 1


def test_train_eval_embeddings_match_a_fresh_encode_of_the_eval_split(
        tmp_path, tiny_config_path, capsys):
    out_dir = tmp_path / "run"
    assert run_cli(["train", "--config", tiny_config_path, "--out-dir", out_dir], capsys)[0] == 0
    tc, sc = cli_mod.load_run_config(tiny_config_path)
    data = gl.synth_dataset(sc)
    (img, txt), _, _ = gl.train(tc, sc)
    fresh = encode_pairs(img, txt, data, data.eval_idx)

    def from_checkpoint(name):
        w1, b1, w2, b2 = (gl.read_embeddings(out_dir / f"{name}_{p}.emb")[0]
                          for p in ("w1", "b1", "w2", "b2"))
        return gl.Encoder(w1, b1[0], w2, b2[0])

    reloaded = encode_pairs(from_checkpoint("image"), from_checkpoint("text"),
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


@pytest.mark.parametrize("payload", NOT_OBJECT_SECTIONS)
def test_train_section_that_is_not_an_object_exits_2_and_leaves_no_out_dir(tmp_path, capsys, payload):
    config = tmp_path / "section.json"
    config.write_text(json.dumps(payload))
    out_dir = tmp_path / "never"
    code, _, stderr = run_cli(["train", "--config", config, "--out-dir", out_dir], capsys)
    assert code == 2
    assert stderr == f"error: {config}: 'synth' and 'train' must be JSON objects\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("payload, message", [
    ({"train": {"curriculum": 3}}, "train.curriculum must be a CurriculumConfig, got 3"),
    ({"train": {"curriculum": []}}, "train.curriculum must be a CurriculumConfig, got []"),
    ({"train": {"curriculum": {"ramp": 1}}}, "unknown key(s) in train.curriculum: ramp"),
    ({"train": {"curriculum": {"ramp_epochs": 1.5}}},
     "train.curriculum.ramp_epochs must be an integer, got 1.5"),
], ids=["number", "list", "unknown key", "bad field"])
def test_a_bad_nested_section_exits_2_before_any_output(tmp_path, capsys, payload, message):
    config = tmp_path / "nested.json"
    config.write_text(json.dumps(payload))
    out_dir, out = tmp_path / "never", tmp_path / "never.csv"
    for argv in (["train", "--config", config, "--out-dir", out_dir],
                 ["sweep", "--config", config, "--alphas", "0.5", "--out", out]):
        assert run_cli(argv, capsys)[::2] == (2, f"error: {message}\n")
    assert not out_dir.exists() and not out.exists()


@pytest.mark.parametrize("section", ["synth", "train"])
def test_train_negative_seed_exits_2_before_any_work(tmp_path, capsys, monkeypatch, section):
    monkeypatch.setattr(cli_mod, "train", lambda *args, **kwargs: pytest.fail("train ran"))
    config = tmp_path / "seed.json"
    config.write_text(json.dumps({section: {"seed": -1}}))
    out_dir = tmp_path / "never"
    code, _, stderr = run_cli(["train", "--config", config, "--out-dir", out_dir], capsys)
    assert code == 2
    assert f"{section}.seed must be >= 0, got -1" in stderr
    assert not out_dir.exists()


def test_train_numerical_failure_exits_3(tmp_path, tiny_config_path, capsys, monkeypatch):
    def explode(train_cfg, synth_cfg):
        raise gl.trainkit.NonFiniteLossError(0, 4, 0.1, float("nan"))

    monkeypatch.setattr(cli_mod, "train", explode)
    code, _, stderr = run_cli(["train", "--config", tiny_config_path,
                               "--out-dir", tmp_path / "x"], capsys)
    assert code == 3
    assert "numerical failure" in stderr


@pytest.mark.parametrize("learning_rate", [1e300, 1e200])
def test_train_diverging_run_exits_3(tmp_path, capsys, learning_rate):
    # Valid config, diverging run: the row norms overflow after the first
    # update. That is a numerical failure, not bad input.
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({"train": {"learning_rate": learning_rate}}))
    code, _, stderr = run_cli(["train", "--config", config, "--out-dir", tmp_path / "x"], capsys)
    assert code == 3
    assert "numerical failure: non-finite encoder output norm inf at epoch 0, step 1" in stderr


@pytest.mark.parametrize("out_dir", ["run", "a/b/run"])
def test_a_diverging_train_leaves_no_out_dir(tmp_path, capsys, out_dir):
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({"train": {"learning_rate": 1e300}}))
    assert run_cli(["train", "--config", config, "--out-dir", tmp_path / out_dir], capsys)[0] == 3
    assert os.listdir(tmp_path) == ["diverge.json"]


def test_a_failing_train_removes_only_the_directories_it_made(tmp_path, capsys):
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({"train": {"learning_rate": 1e300}}))
    mine, empty = tmp_path / "mine", tmp_path / "empty"
    mine.mkdir()
    empty.mkdir()
    (mine / "notes.txt").write_bytes(b"keep me\n")
    for out_dir in (mine, empty / "run"):
        assert run_cli(["train", "--config", config, "--out-dir", out_dir], capsys)[0] == 3
    assert os.listdir(mine) == ["notes.txt"] and (mine / "notes.txt").read_bytes() == b"keep me\n"
    assert os.listdir(empty) == []


def test_train_divergence_prints_only_the_failure_line(tmp_path, capfd):
    # A fresh interpreter with the default warning filters, as a user runs it:
    # NumPy's overflow warnings must not reach stderr ahead of the message.
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({"train": {"learning_rate": 1e300}}))
    result = _run_module("gaplab", "train", "--config", str(config),
                         "--out-dir", str(tmp_path / "x"), capture=False)
    assert result.returncode == 3
    assert capfd.readouterr().err == (
        "numerical failure: non-finite encoder output norm inf at epoch 0, step 1, "
        "alpha 0.000000\n"
    )


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
    assert lines[0] == "seed," + ",".join(gl.SWEEP_FIELDS)
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
    for hook in ("_anchor", "_cell"):
        monkeypatch.setattr(sweep_mod, hook, lambda *args, **kwargs: ran.append(args))
    monkeypatch.setenv("GAPLAB_THREADS", "0")
    out = tmp_path / "s.csv"
    code, _, stderr = run_cli(["sweep", "--config", tiny_config_path,
                               "--alphas", "0.5", "--seeds", "0,1", "--out", out], capsys)
    assert code == 2
    assert "GAPLAB_THREADS must be >= 1" in stderr
    assert ran == []
    assert not out.exists()


def test_sweep_negative_seed_exits_2_before_any_cell(tmp_path, tiny_config_path,
                                                    capsys, monkeypatch):
    ran = []
    for hook in ("_anchor", "_cell"):
        monkeypatch.setattr(sweep_mod, hook, lambda *args, **kwargs: ran.append(args))
    monkeypatch.setenv("GAPLAB_THREADS", "1")
    out = tmp_path / "s.csv"
    code, _, stderr = run_cli(["sweep", "--config", tiny_config_path,
                               "--alphas", "0.5", "--seeds", "0,-1", "--out", out], capsys)
    assert code == 2
    assert "seeds must be >= 0, got -1" in stderr
    assert ran == []
    assert not out.exists()


def _first_cell_fails(ran, run, synth_cfg, alpha, seed):
    with open(ran, "a") as f:
        f.write(f"{alpha},{seed}\n")
    if (alpha, seed) == (0.0, 0):
        raise gl.trainkit.NonFiniteLossError(0, 0, alpha, float("nan"))
    time.sleep(0.5)
    return gl.SweepRecord(**{name: 0.5 for name in gl.SWEEP_FIELDS})


def test_sweep_pool_cancels_pending_cells_after_a_failure(tmp_path, tiny_config_path,
                                                          capsys, monkeypatch):
    ran = tmp_path / "ran.txt"
    # the pool forks, so the workers inherit the patched module attribute; the
    # hook is sent to them pickled, so it is a module-level function
    monkeypatch.setattr(sweep_mod, "_cell", functools.partial(_first_cell_fails, ran))
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
    assert lines[0] == "seed," + ",".join(gl.SWEEP_FIELDS)
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
    assert lines[0] == "seed," + ",".join(gl.SWEEP_FIELDS)
    assert lines[1].startswith("0,")
    assert lines[2].startswith("failed:seed=1,0.5,")


@pytest.mark.parametrize("config, key", [
    ({"synth": {"noise_sigma": math.nan}}, "synth.noise_sigma"),
    ({"train": {"adam_eps": math.inf}}, "train.adam_eps"),
    ({"train": {"curriculum": {"ema_fast_decay": -math.inf}}}, "train.curriculum.ema_fast_decay"),
    (BEYOND_FLOAT64[0], "train.learning_rate"),
    (BEYOND_FLOAT64[1], "synth.n_classes"),
])
def test_non_finite_run_config_exits_2_before_any_work(tmp_path, capsys, monkeypatch, config, key):
    monkeypatch.setattr(cli_mod, "train", lambda *args, **kwargs: pytest.fail("train ran"))
    for hook in ("_anchor", "_cell"):
        monkeypatch.setattr(sweep_mod, hook, lambda *args, **kwargs: pytest.fail("cell ran"))
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(config))  # NaN / Infinity: json.load accepts them
    out_dir = tmp_path / "never"
    code, _, train_err = run_cli(["train", "--config", path, "--out-dir", out_dir], capsys)
    assert code == 2
    assert f"{key} must be finite" in train_err
    assert not out_dir.exists()
    out = tmp_path / "s.csv"
    code, _, sweep_err = run_cli(["sweep", "--config", path, "--alphas", "0.5",
                                  "--seeds", "0,1", "--out", out], capsys)
    assert code == 2
    assert sweep_err == train_err
    assert not out.exists()


def test_overflowing_synthetic_views_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    # A finite config whose noise overflows the views is bad input, caught
    # before train makes its directory and before any sweep cell runs.
    for hook in ("_anchor", "_cell"):
        monkeypatch.setattr(sweep_mod, hook, lambda *args, **kwargs: pytest.fail("cell ran"))
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"synth": {"noise_sigma": 1e308}}))
    out_dir = tmp_path / "never"
    code, _, train_err = run_cli(["train", "--config", path, "--out-dir", out_dir], capsys)
    assert code == 2
    assert train_err == "error: images contains NaN or Inf entries\n"
    assert not out_dir.exists()
    for workers in ("1", "2"):
        monkeypatch.setenv("GAPLAB_THREADS", workers)
        out = tmp_path / "s.csv"
        code, _, sweep_err = run_cli(["sweep", "--config", path, "--alphas", "0.5",
                                      "--seeds", "0,1", "--out", out], capsys)
        assert code == 2
        assert sweep_err == train_err
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_unallocatable_config_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, command):
    # A 20 x 1e12 float64 prototype block (146 TiB) or a 32 x 1e12 first
    # encoder weight (233 TiB) fails at allocation, before any page of it
    # is touched.
    for hook in ("_anchor", "_cell"):
        monkeypatch.setattr(sweep_mod, hook, lambda *args, **kwargs: pytest.fail("cell ran"))
    path = tmp_path / "huge.json"
    out = tmp_path / "out"
    argv = {"train": ["train", "--config", path, "--out-dir", out],
            "sweep": ["sweep", "--config", path, "--alphas", "0.5", "--seeds", "0",
                      "--out", out]}[command]
    for payload in ({"synth": {"latent_dim": 10**12}}, {"train": {"hidden_dim": 10**12}}):
        path.write_text(json.dumps(payload))
        for workers in ("1", "2"):
            monkeypatch.setenv("GAPLAB_THREADS", workers)
            code, stdout, stderr = run_cli(argv, capsys)
            assert code == 2, payload
            assert stderr.startswith("error: Unable to allocate") and stderr.count("\n") == 1
            assert stdout == ""
            assert sorted(os.listdir(tmp_path)) == ["huge.json"]


def test_a_split_with_one_eval_row_exits_2_before_any_step(tmp_path, capsys, monkeypatch):
    # 1,999 train rows and 1 eval row, which centering always zeroes
    monkeypatch.setattr(gl.trainkit._Run, "step", lambda *args: pytest.fail("a step ran"))
    path = tmp_path / "split.json"
    path.write_text(json.dumps({"synth": {"train_fraction": 0.9995}}))
    message = "error: train_fraction leaves an empty train split or fewer than 2 eval rows\n"
    out_dir = tmp_path / "never"
    assert run_cli(["train", "--config", path, "--out-dir", out_dir], capsys) == (2, "", message)
    assert not out_dir.exists()
    for workers in ("1", "2"):
        monkeypatch.setenv("GAPLAB_THREADS", workers)
        out = tmp_path / "s.csv"
        assert run_cli(["sweep", "--config", path, "--alphas", "0.5", "--seeds", "0,1",
                        "--out", out], capsys) == (2, "", message)
        assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_diverging_anchor_run_writes_the_partial_csv(tmp_path, capsys, monkeypatch, workers):
    # Every cell diverges at its first update, inside the shared anchor epochs:
    # the first cell in row order is reported, with no completed row.
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({"train": {"learning_rate": 1e300}}))
    monkeypatch.setenv("GAPLAB_THREADS", workers)
    out = tmp_path / "partial.csv"
    code, _, stderr = run_cli(["sweep", "--config", config, "--alphas", "0.25,0.5",
                               "--seeds", "3,1", "--out", out], capsys)
    assert code == 3
    assert out.read_text() == gl.sweep_to_csv([], failure=(0.25, 3))
    assert stderr == (f"sweep aborted, partial table in {out}: run (alpha_target=0.25, seed=3) "
                      "failed: non-finite encoder output norm inf at epoch 0, step 1, alpha 0.000000\n")


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


def test_correlate_short_row_exits_2_and_writes_nothing(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("seed,a,b\nmean,1.0,1.0\nmean,0.1\nmean,3.0,3.0\n")
    out = tmp_path / "f.json"
    code, _, stderr = run_cli(["correlate", "--sweep", path, "--x", "a", "--y", "b",
                               "--out", out], capsys)
    assert code == 2
    assert stderr == f"error: {path}: a row is too short to hold column 'b'\n"
    assert not out.exists()


def test_correlate_constant_x_exits_2(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("seed,a,b\nmean,1.0,1.0\nmean,1.0,2.0\nmean,1.0,3.0\n")
    code, _, _ = run_cli(["correlate", "--sweep", path, "--x", "a", "--y", "b",
                          "--out", tmp_path / "f.json"], capsys)
    assert code == 2


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_correlate_non_finite_entry_exits_2_and_writes_nothing(tmp_path, capsys, bad):
    path = tmp_path / "bad.csv"
    path.write_text(f"seed,a,b\nmean,1.0,1.0\nmean,2.0,{bad}\nmean,3.0,3.0\n")
    out = tmp_path / "f.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, stderr = run_cli(["correlate", "--sweep", path, "--x", "a", "--y", "b",
                                   "--out", out], capsys)
    assert code == 2
    assert "must be finite" in stderr
    assert not out.exists()


def test_correlate_non_finite_gap_column_reports_null(tmp_path, capsys):
    path = tmp_path / "gaps.csv"
    path.write_text("seed,a,b,raw_gap,distribution_gap\n"
                    "mean,1.0,1.0,0.1,nan\n"
                    "mean,2.0,2.5,0.2,0.2\n"
                    "mean,3.0,2.9,0.3,inf\n")
    out = tmp_path / "f.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run_cli(["correlate", "--sweep", path, "--x", "a", "--y", "b",
                              "--out", out], capsys)
    assert code == 0

    def reject(constant):
        raise AssertionError(f"{constant} is not valid JSON")

    data = json.loads(out.read_text(), parse_constant=reject)
    assert data["r_squared_distribution_gap"] is None
    assert data["r_squared_raw_gap"] == pytest.approx(data["r_squared"])


# ------------------------------------------------------------------- parser

def test_parser_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        cli_mod.main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit):
        cli_mod.main(["frobnicate"])
    capsys.readouterr()


def test_the_retired_plot_subcommand_is_refused(tmp_path, emb_pair, capsys):
    vp, tp = emb_pair
    out = tmp_path / "scatter.svg"
    with pytest.raises(SystemExit) as info:
        cli_mod.main(["plot", "--images", str(vp), "--texts", str(tp), "--out", str(out)])
    assert info.value.code == 2
    assert "invalid choice: 'plot'" in capsys.readouterr().err
    assert not out.exists()


def test_readme_lists_the_parser_subcommands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("gaplab ")]
    parser_subcommands = next(a for a in cli_mod.build_parser()._actions
                              if isinstance(a, argparse._SubParsersAction)).choices
    assert listed == list(parser_subcommands)


def test_entrypoint_exits_with_main_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["gaplab", "analyze", "--images", "a", "--texts", "b",
                                     "--out", str(tmp_path / "r.json")])
    with pytest.raises(SystemExit) as info:
        cli_mod.entrypoint()
    assert info.value.code == 2
    capsys.readouterr()


def _run_module(*argv, capture=True):
    env = dict(os.environ)
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", *argv], capture_output=capture, text=True,
                          env=env, timeout=60)


def test_python_dash_m_gaplab_prints_usage():
    result = _run_module("gaplab", "--help")
    assert result.returncode == 0
    assert result.stdout.startswith("usage: gaplab")


def test_python_dash_m_gaplab_cli_runs_the_parser():
    result = _run_module("gaplab.cli", "analyze")
    assert result.returncode == 2
    assert "the following arguments are required" in result.stderr
