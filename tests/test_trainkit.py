import math
import pickle

import numpy as np
import pytest

import gaplab as gl

from conftest import end_to_end_fd_error


def small_synth(**kw):
    base = dict(n_classes=4, samples_per_class=10, latent_dim=4,
                image_input_dim=6, text_input_dim=5, seed=0)
    base.update(kw)
    return gl.SynthConfig(**base)


def small_train(**kw):
    cur = kw.pop("curriculum", gl.CurriculumConfig(
        anchor_epochs=1, ramp_epochs=2, stabilize_epochs=1,
        alpha_target=0.5, steps_per_epoch=1))
    base = dict(curriculum=cur, batch_size=8, learning_rate=1e-3,
                hidden_dim=8, embed_dim=4, seed=0)
    base.update(kw)
    return gl.TrainConfig(**base)


# ---------------------------------------------------------------- synthetic

def test_synth_dataset_shapes_and_balance():
    cfg = small_synth()
    data = gl.synth_dataset(cfg)
    assert data.images.shape == (40, 6)
    assert data.texts.shape == (40, 5)
    assert np.bincount(data.labels).tolist() == [10, 10, 10, 10]
    assert data.train_idx.size == 32 and data.eval_idx.size == 8
    together = np.sort(np.concatenate([data.train_idx, data.eval_idx]))
    assert np.array_equal(together, np.arange(40))


def test_synth_dataset_is_deterministic():
    a = gl.synth_dataset(small_synth())
    b = gl.synth_dataset(small_synth())
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.texts, b.texts)
    assert np.array_equal(a.train_idx, b.train_idx)
    c = gl.synth_dataset(small_synth(seed=1))
    assert not np.array_equal(a.images, c.images)


def test_synth_zero_noise_collapses_classes():
    data = gl.synth_dataset(small_synth(noise_sigma=0.0))
    for k in range(4):
        rows = data.images[data.labels == k]
        assert np.max(np.abs(rows - rows[0])) == 0.0


def test_synth_config_validation():
    with pytest.raises(ValueError):
        small_synth(n_classes=1)
    with pytest.raises(ValueError):
        small_synth(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        small_synth(train_fraction=1.0)


# ------------------------------------------------------------------ encoder

def test_encoder_forward_unit_norms():
    rng = np.random.default_rng(0)
    enc = gl.Encoder.random(5, 7, 3, rng)
    emb, cache = gl.encoder_forward(enc, rng.standard_normal((6, 5)))
    assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)
    assert not cache.degenerate.any()
    with pytest.raises(ValueError):
        gl.encoder_forward(enc, rng.standard_normal((2, 4)))


def test_encoder_zero_weights_flag_degenerate_rows():
    enc = gl.Encoder(np.zeros((4, 3)), np.zeros(3), np.zeros((3, 2)), np.zeros(2))
    emb, cache = gl.encoder_forward(enc, np.ones((2, 4)))
    assert cache.degenerate.all()
    assert np.array_equal(emb, np.zeros((2, 2)))


def test_encoder_forward_normalizes_with_the_norms_it_caches():
    # One norm pass serves both the embeddings and the cache; both must equal
    # the public two-pass formula bit for bit, degenerate rows included.
    rng = np.random.default_rng(1)
    enc = gl.Encoder.random(5, 7, 3, rng)
    enc.w2[:, :] *= rng.uniform(0.01, 100.0)
    x = rng.standard_normal((9, 5))
    x[4] = 0.0
    enc.b2[:] = 0.0
    emb, cache = gl.encoder_forward(enc, x)
    want, degenerate = gl.l2_normalize_rows(cache.pre_norm)
    assert np.array_equal(emb, want)
    assert np.array_equal(cache.embeddings, want)
    assert np.array_equal(cache.norms, np.linalg.norm(cache.pre_norm, axis=1))
    assert np.array_equal(cache.degenerate, degenerate)
    assert degenerate.tolist() == [False] * 4 + [True] + [False] * 4


def test_encoder_shape_validation():
    with pytest.raises(ValueError):
        gl.Encoder(np.zeros((4, 3)), np.zeros(2), np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        gl.Encoder(np.zeros((4, 3)), np.zeros(3), np.zeros((5, 2)), np.zeros(2))


def test_backward_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(1)
    enc = gl.Encoder.random(5, 6, 3, rng)
    emb, cache = gl.encoder_forward(enc, rng.standard_normal((4, 5)))
    grads = gl.encoder_backward(enc, cache, np.zeros_like(emb))
    for g in grads.values():
        assert np.max(np.abs(g)) == 0.0


def test_backward_kills_radial_gradient_component():
    # Normalization makes the output norm constant, so a gradient pointing
    # along each embedding row must vanish through the Jacobian.
    rng = np.random.default_rng(2)
    enc = gl.Encoder.random(5, 6, 3, rng)
    emb, cache = gl.encoder_forward(enc, rng.standard_normal((4, 5)))
    grads = gl.encoder_backward(enc, cache, emb.copy())
    for g in grads.values():
        assert np.max(np.abs(g)) < 1e-12


def test_backward_rejects_stale_cache_and_bad_shape():
    rng = np.random.default_rng(3)
    enc = gl.Encoder.random(5, 6, 3, rng)
    emb, cache = gl.encoder_forward(enc, rng.standard_normal((4, 5)))
    with pytest.raises(ValueError):
        gl.encoder_backward(enc, cache, emb[:2])
    enc.note_update()
    with pytest.raises(ValueError):
        gl.encoder_backward(enc, cache, emb)


def test_full_backprop_matches_finite_differences():
    for seed in range(3):
        assert end_to_end_fd_error(seed) < 1e-4


# --------------------------------------------------------------------- adam

def test_adam_zero_gradient_is_a_no_op():
    params = {"w": np.array([1.0, -2.0]), "log_scale": 0.5}
    grads = {"w": np.zeros(2), "log_scale": 0.0}
    gl.adam_step(params, grads, gl.AdamState(), lr=0.1)
    assert np.array_equal(params["w"], [1.0, -2.0])
    assert params["log_scale"] == 0.5


def test_adam_first_step_size_is_about_lr():
    params = {"w": np.zeros(3)}
    grads = {"w": np.ones(3)}
    gl.adam_step(params, grads, gl.AdamState(), lr=0.01)
    # bias-corrected first step is lr * g / (|g| + eps)
    assert np.allclose(params["w"], -0.01, atol=1e-6)


def test_adam_updates_arrays_in_place_and_rebinds_scalars():
    w = np.ones(2)
    params = {"w": w, "log_scale": 0.0}
    grads = {"w": np.full(2, 0.5), "log_scale": -1.0}
    gl.adam_step(params, grads, gl.AdamState(), lr=0.1)
    assert params["w"] is w                     # same buffer, mutated
    assert w[0] != 1.0
    assert params["log_scale"] > 0.0            # negative gradient pushes up


def test_adam_clamps_log_scale_at_cap():
    params = {"log_scale": gl.LOG_SCALE_MAX}
    grads = {"log_scale": -5.0}                 # wants to push further up
    gl.adam_step(params, grads, gl.AdamState(), lr=0.5)
    assert params["log_scale"] == gl.LOG_SCALE_MAX


def test_adam_requires_matching_keys():
    with pytest.raises(ValueError):
        gl.adam_step({"a": np.zeros(1)}, {"b": np.zeros(1)}, gl.AdamState(), lr=0.1)


def test_adam_two_steps_match_reference_formula():
    params = {"w": np.array([0.0])}
    state = gl.AdamState()
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    m = v = 0.0
    ref = 0.0
    for t, g in enumerate([0.3, -0.7], start=1):
        gl.adam_step(params, {"w": np.array([g])}, state, lr, (b1, b2), eps)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
    assert abs(params["w"][0] - ref) < 1e-15


# ----------------------------------------------------------------- training

def test_train_history_and_alpha_phases():
    (img, txt), temp, history = gl.train(small_train(), small_synth())
    assert len(history) == 4
    assert history[0].alpha == 0.0              # anchor epoch
    assert history[-1].alpha == 0.5             # stabilized at target
    assert all(np.isfinite(r.loss) for r in history)
    assert isinstance(temp, gl.Temperature)
    assert img.embed_dim == txt.embed_dim == 4


def test_train_is_deterministic():
    runs = [gl.train(small_train(), small_synth()) for _ in range(2)]
    (img_a, _), temp_a, hist_a = runs[0]
    (img_b, _), temp_b, hist_b = runs[1]
    assert np.array_equal(img_a.w1, img_b.w1)
    assert np.array_equal(img_a.w2, img_b.w2)
    assert temp_a.log_scale == temp_b.log_scale
    assert hist_a.to_jsonl() == hist_b.to_jsonl()


def test_constant_alpha_zero_matches_scheduled_zero_target():
    cur = gl.CurriculumConfig(anchor_epochs=1, ramp_epochs=2, stabilize_epochs=1,
                              alpha_target=0.0, steps_per_epoch=1)
    tc = small_train(curriculum=cur)
    syn = small_synth()
    (img_a, txt_a), temp_a, hist_a = gl.train(tc, syn)
    (img_b, txt_b), temp_b, hist_b = gl.train(tc, syn, alpha=0.0)
    assert np.array_equal(img_a.w1, img_b.w1)
    assert np.array_equal(txt_a.w2, txt_b.w2)
    assert temp_a.log_scale == temp_b.log_scale
    assert hist_a.to_jsonl() == hist_b.to_jsonl()


def test_constant_alpha_is_recorded_every_epoch():
    _, _, history = gl.train(small_train(), small_synth(), alpha=0.3)
    assert [r.alpha for r in history.records] == [0.3, 0.3, 0.3, 0.3]
    with pytest.raises(ValueError):
        gl.train(small_train(), small_synth(), alpha=1.2)


def test_train_recomputes_steps_per_epoch_from_data():
    # The config says 999 steps per epoch; the data (32 train rows / batch 8)
    # says 4. The schedule must still reach its target by the last epoch.
    cur = gl.CurriculumConfig(anchor_epochs=1, ramp_epochs=2, stabilize_epochs=1,
                              alpha_target=0.5, steps_per_epoch=999)
    _, _, history = gl.train(small_train(curriculum=cur), small_synth())
    assert history[-1].alpha == 0.5


def test_train_rejects_oversized_batch():
    with pytest.raises(ValueError):
        gl.train(small_train(batch_size=64), small_synth())  # only 32 train rows


def test_train_config_validation():
    with pytest.raises(ValueError):
        small_train(batch_size=1)
    with pytest.raises(ValueError):
        small_train(learning_rate=0.0)
    with pytest.raises(ValueError):
        small_train(init_log_scale=gl.LOG_SCALE_MAX + 0.1)


def test_epoch_records_serialize():
    _, _, history = gl.train(small_train(), small_synth())
    lines = history.to_jsonl().strip().split("\n")
    assert len(lines) == 4
    import json
    row = json.loads(lines[0])
    assert set(row) == {"epoch", "alpha", "loss", "rw_term", "intra_term",
                        "grad_norm_ratio", "gap"}
    assert row["gap"]["n_pairs"] == 8


# ------------------------------------------------------------- encode_pairs

def test_encode_pairs_labels_and_modalities():
    syn = small_synth()
    data = gl.synth_dataset(syn)
    rng = np.random.default_rng(4)
    img = gl.Encoder.random(6, 8, 4, rng)
    txt = gl.Encoder.random(5, 8, 4, rng)
    bi, bt = gl.encode_pairs(img, txt, data, data.eval_idx)
    assert bi.modality == "image" and bt.modality == "text"
    assert np.array_equal(bi.labels, data.labels[data.eval_idx])
    assert np.allclose(np.linalg.norm(bi.vectors, axis=1), 1.0, atol=1e-12)


# -------------------------------------------------------------------- error

def test_non_finite_loss_error_carries_context_and_pickles():
    err = gl.trainkit.NonFiniteLossError(3, 17, 0.25, float("nan"))
    assert err.epoch == 3 and err.step == 17 and err.alpha == 0.25
    assert "epoch 3" in str(err)
    again = pickle.loads(pickle.dumps(err))
    assert isinstance(again, gl.trainkit.NonFiniteLossError)
    assert again.epoch == 3 and again.step == 17
    assert math.isnan(again.loss)
