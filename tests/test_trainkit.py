import copy
import dataclasses
import math
import pickle
import sys
from dataclasses import dataclass, field

import numpy as np
import pytest

import gaplab as gl
from gaplab import trainkit
from gaplab.trainkit import _Run, _adam, _forward

from conftest import encoder_grads, end_to_end_fd_error


def small_synth(**kw):
    base = dict(n_classes=4, samples_per_class=10, latent_dim=4,
                image_input_dim=6, text_input_dim=5, seed=0)
    base.update(kw)
    return gl.SynthConfig(**base)


def small_train(**kw):
    cur = kw.pop("curriculum", gl.CurriculumConfig(
        anchor_epochs=1, ramp_epochs=2, stabilize_epochs=1, alpha_target=0.5))
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
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sigma must be finite"):
            small_synth(noise_sigma=bad)
    with pytest.raises(ValueError):
        small_synth(train_fraction=1.0)
    # one eval row always centers to zero; two are the fewest a gap report reads
    assert gl.SynthConfig(train_fraction=0.999).n_train == 1998
    with pytest.raises(ValueError, match="fewer than 2 eval rows"):
        gl.SynthConfig(train_fraction=0.9995).n_train
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        small_synth(seed=-1)
    # each count fits in a float64, their product does not
    huge = gl.SynthConfig(n_classes=10**200, samples_per_class=10**200)
    with pytest.raises(ValueError, match="n_classes \\* samples_per_class is too large"):
        huge.n_train


CONFIG_FIELDS = [(cls, f.name, f.type) for cls in (gl.SynthConfig, gl.TrainConfig, gl.CurriculumConfig)
                 for f in dataclasses.fields(cls) if f.name != "curriculum"]


@pytest.mark.parametrize("cls, name, kind", CONFIG_FIELDS,
                         ids=[f"{cls.__name__}-{name}" for cls, name, _ in CONFIG_FIELDS])
def test_every_config_checks_its_field_types_when_built(cls, name, kind):
    # the library door applies the run-config loader's rule, before any range check
    assert kind in ("int", "float")
    huge = 10**400  # beyond float64; JSON parsing accepts it
    if kind == "int":
        for bad in (2.5, 64.0, True, "3", None):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                cls(**{name: bad})
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            cls(**{name: huge})
        value = getattr(cls(**{name: np.int64(3)}), name)
        assert value == 3 and type(value) is int
        return
    for bad in ("fast", True, None):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
            cls(**{name: bad})
    for bad in (math.nan, math.inf, -math.inf, huge):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            cls(**{name: bad})
    if name in ("train_fraction", "ema_slow_decay", "ema_fast_decay"):
        return  # no integer lies in their valid range
    integer = 0 if name.startswith("adam_beta") else 1
    value = getattr(cls(**{name: integer}), name)
    assert value == integer and type(value) is float


# ------------------------------------------------------------------ encoder

def test_encoder_forward_unit_norms():
    rng = np.random.default_rng(0)
    enc = gl.Encoder.random(5, 7, 3, rng)
    emb, cache = _forward(enc, rng.standard_normal((6, 5)))
    assert np.allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-12)
    assert not cache.degenerate.any()
    with pytest.raises(ValueError):
        _forward(enc, rng.standard_normal((2, 4)))


def test_encoder_zero_weights_flag_degenerate_rows():
    enc = gl.Encoder(np.zeros((4, 3)), np.zeros(3), np.zeros((3, 2)), np.zeros(2))
    emb, cache = _forward(enc, np.ones((2, 4)))
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
    emb, cache = _forward(enc, x)
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
    emb, cache = _forward(enc, rng.standard_normal((4, 5)))
    for g in encoder_grads(enc, cache, np.zeros_like(emb)):
        assert np.max(np.abs(g)) == 0.0


def test_backward_kills_radial_gradient_component():
    # Normalization makes the output norm constant, so a gradient pointing
    # along each embedding row must vanish through the Jacobian.
    rng = np.random.default_rng(2)
    enc = gl.Encoder.random(5, 6, 3, rng)
    emb, cache = _forward(enc, rng.standard_normal((4, 5)))
    for g in encoder_grads(enc, cache, emb.copy()):
        assert np.max(np.abs(g)) < 1e-12


def test_backward_rejects_bad_shape():
    rng = np.random.default_rng(3)
    enc = gl.Encoder.random(5, 6, 3, rng)
    emb, cache = _forward(enc, rng.standard_normal((4, 5)))
    with pytest.raises(ValueError):
        encoder_grads(enc, cache, emb[:2])


def test_encoder_weights_are_views_of_one_buffer():
    # a run's encoders view its flat buffer: w1, b1, w2, b2 per encoder, then log_scale
    run = _Run(small_train(), small_synth())
    params = [p for enc in run.encoders for p in (enc.w1, enc.b1, enc.w2, enc.b2)]
    assert run.flat.shape == (sum(p.size for p in params) + 1,)
    assert np.array_equal(run.flat, np.concatenate([*(p.ravel() for p in params), run.flat[-1:]]))
    assert all(np.shares_memory(p, run.flat) for p in params)
    run.flat[:] = 0.0
    assert not any(p.any() for p in params)


def test_encoder_copies_view_their_own_buffer():
    rng = np.random.default_rng(6)
    params = [rng.standard_normal(s) for s in ((5, 6), (6,), (6, 3), (3,))]
    enc = gl.Encoder(*params)
    mine = (enc.w1, enc.b1, enc.w2, enc.b2)
    assert all(p is q for p, q in zip(mine, params))  # float64 input is kept as given
    for again in (copy.deepcopy(enc), pickle.loads(pickle.dumps(enc))):
        theirs = (again.w1, again.b1, again.w2, again.b2)
        for p, q in zip(theirs, mine):
            assert p.dtype == np.float64 and np.array_equal(p, q)
        assert not any(np.shares_memory(p, q) for p in theirs for q in mine)
        for p in theirs:
            p[...] = 0.0
        assert enc.w1.any()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_encoder_forward_rejects_overflowing_outputs():
    # Finite weights whose outputs' squared norms overflow: normalization
    # would return zero rows, so the run's encode refuses them instead.
    run = _Run(small_train(), small_synth())
    enc = run.encoders[0]
    enc.w1[:], enc.b1[:], enc.w2[:], enc.b2[:] = 1.0, 0.0, 1e200, 0.0
    with pytest.raises(gl.NonFiniteLossError, match="non-finite encoder output norm inf") as info:
        run.encode(0, np.ones((2, 6)), epoch=0, alpha=0.0)
    assert info.value.what == "encoder output norm"


def test_full_backprop_matches_finite_differences():
    for seed in range(3):
        assert end_to_end_fd_error(seed) < 1e-4


# --------------------------------------------------------------------- adam

@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              betas: tuple = (0.9, 0.999), eps: float = 1e-8) -> None:
    """Per-key reference Adam, the trainer's former optimizer: the flat update
    in trainkit._adam must match it bit for bit.

    Array parameters are mutated; scalar parameters are rebound in the dict.
    A "log_scale" entry, if present, is clamped to ln(100) afterward.
    """
    if set(params) != set(grads):
        raise ValueError("params and grads must carry the same keys")
    beta1, beta2 = betas
    state.step += 1
    t = state.step
    corr1 = 1.0 - beta1**t
    corr2 = 1.0 - beta2**t
    for key, param in params.items():
        g = grads[key]
        if isinstance(param, np.ndarray):
            if key not in state.m:
                state.m[key] = np.zeros_like(param)
                state.v[key] = np.zeros_like(param)
            m = state.m[key]
            v = state.v[key]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * np.square(g)
            param -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
        else:
            m = state.m.get(key, 0.0)
            v = state.v.get(key, 0.0)
            m = beta1 * m + (1.0 - beta1) * float(g)
            v = beta2 * v + (1.0 - beta2) * float(g) ** 2
            state.m[key] = m
            state.v[key] = v
            params[key] = float(param) - lr * (m / corr1) / (math.sqrt(v / corr2) + eps)
    if "log_scale" in params:
        params["log_scale"] = min(float(params["log_scale"]), gl.LOG_SCALE_MAX)


def flat_adam(flat, grad, lr, betas=(0.9, 0.999), eps=1e-8, steps=1):
    """steps flat Adam updates of flat (log scale last) with a fixed gradient, from fresh moments."""
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    for step in range(1, steps + 1):
        _adam(flat, grad, m, v, step, lr, betas, eps)


def test_adam_zero_gradient_is_a_no_op():
    flat = np.array([1.0, -2.0, 0.5])           # w, then log_scale
    flat_adam(flat, np.zeros(3), lr=0.1)
    assert np.array_equal(flat[:2], [1.0, -2.0])
    assert flat[-1] == 0.5


def test_adam_first_step_size_is_about_lr():
    flat = np.zeros(4)
    flat_adam(flat, np.ones(4), lr=0.01)
    # bias-corrected first step is lr * g / (|g| + eps)
    assert np.allclose(flat, -0.01, atol=1e-6)


def test_adam_updates_the_buffer_and_its_views_in_place():
    flat = np.array([1.0, 1.0, 0.0])
    w = flat[:2]
    flat_adam(flat, np.array([0.5, 0.5, -1.0]), lr=0.1)
    assert w[0] != 1.0                          # the view sees the update
    assert flat[-1] > 0.0                       # negative gradient pushes log_scale up


def test_adam_clamps_log_scale_at_cap():
    flat = np.array([gl.LOG_SCALE_MAX])
    flat_adam(flat, np.array([-5.0]), lr=0.5)   # wants to push further up
    assert flat[-1] == gl.LOG_SCALE_MAX


def test_adam_requires_matching_layout():
    with pytest.raises(ValueError):
        flat_adam(np.zeros(2), np.zeros(1), lr=0.1)


def test_adam_two_steps_match_reference_formula():
    flat = np.array([0.0, 0.0])
    m, v_moment = np.zeros(2), np.zeros(2)
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    m_ref = v_ref = 0.0
    ref = 0.0
    for t, g in enumerate([0.3, -0.7], start=1):
        _adam(flat, np.array([g, 0.0]), m, v_moment, t, lr, (b1, b2), eps)
        m_ref = b1 * m_ref + (1 - b1) * g
        v_ref = b2 * v_ref + (1 - b2) * g * g
        ref -= lr * (m_ref / (1 - b1**t)) / (math.sqrt(v_ref / (1 - b2**t)) + eps)
    assert abs(flat[0] - ref) < 1e-15


def test_flat_adam_matches_the_per_key_oracle_bit_for_bit():
    rng = np.random.default_rng(11)
    params = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4),
              "log_scale": gl.LOG_SCALE_MAX - 0.02}
    flat = np.concatenate([params["w"].ravel(), params["b"], [params["log_scale"]]])
    frozen = flat[0]
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    state = AdamState()
    lr, betas, eps = 0.01, (0.9, 0.999), 1e-8
    capped = 0
    for step in range(1, 61):
        grads = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4),
                 "log_scale": -abs(rng.standard_normal())}  # pushes log_scale into the cap
        grads["w"][0, 0] = 0.0                             # one coordinate never moves
        adam_step(params, grads, state, lr, betas, eps)
        grad = np.concatenate([grads["w"].ravel(), grads["b"], [grads["log_scale"]]])
        _adam(flat, grad, m, v, step, lr, betas, eps)
        want = np.concatenate([params["w"].ravel(), params["b"], [params["log_scale"]]])
        assert np.array_equal(flat, want), step
        capped += params["log_scale"] == gl.LOG_SCALE_MAX
    assert flat[0] == frozen
    assert capped >= 50                                    # held at the cap most of the run


# ----------------------------------------------------------------- the step

def test_private_step_matches_the_public_composition():
    """_Run.step against _forward -> cma_loss -> _backward -> the per-key
    oracle Adam, on copies of its encoders, over a few steps across the blend."""
    rng = np.random.default_rng(7)
    x_img = rng.standard_normal((6, 5))
    x_txt = rng.standard_normal((6, 4))
    cfg = small_train(learning_rate=0.01, init_log_scale=1.5, hidden_dim=7, embed_dim=3)
    run = _Run(cfg, small_synth(image_input_dim=5, text_input_dim=4))
    ref = copy.deepcopy(run.encoders)
    names = ("w1", "b1", "w2", "b2")
    params = {f"{side}_{k}": getattr(enc, k) for side, enc in zip(("img", "txt"), ref) for k in names}
    params["log_scale"] = cfg.init_log_scale
    state = AdamState()
    for i, alpha in enumerate((0.0, 0.25, 0.5, 1.0, 0.7)):
        out = run.step((x_img, x_txt), alpha, epoch=0)
        (vi, cache_i), (vt, cache_t) = (_forward(e, x) for e, x in zip(ref, (x_img, x_txt)))
        want = gl.cma_loss(vi, vt, gl.Temperature(params["log_scale"]), alpha)
        grads = {f"img_{k}": g for k, g in zip(names, encoder_grads(ref[0], cache_i, want.grad_images))}
        grads.update({f"txt_{k}": g for k, g in zip(names, encoder_grads(ref[1], cache_t, want.grad_texts))})
        grads["log_scale"] = want.grad_log_scale
        adam_step(params, grads, state, cfg.learning_rate, (cfg.adam_beta1, cfg.adam_beta2), cfg.adam_eps)

        assert abs(out.loss - want.loss) <= 1e-12 * abs(want.loss), i
        flat_want = np.concatenate([np.ravel(params[k]) for k in params])
        assert np.abs(run.flat - flat_want).max() <= 1e-12 * np.abs(flat_want).max(), i
    assert run.count == 5


def test_step_reports_overflowing_norms_as_divergence():
    # One step per epoch: the first update blows the weights up and the
    # epoch's eval encode is the first to see the overflow.
    with pytest.raises(gl.NonFiniteLossError) as info:
        gl.train(small_train(batch_size=32, learning_rate=1e300), small_synth())
    assert info.value.what == "encoder output norm"
    assert info.value.epoch == 0 and info.value.step == 1
    # More steps per epoch: the next step's forward sees it.
    with pytest.raises(gl.NonFiniteLossError) as info:
        gl.train(small_train(learning_rate=1e200), small_synth())
    assert (info.value.what, info.value.step) == ("encoder output norm", 1)


def openblas_or_skip():
    """(get, set) of this process's OpenBLAS thread count; skips the test without one."""
    if trainkit._openblas() is None:
        pytest.skip("no OpenBLAS library mapped into this process")
    return trainkit._openblas()


def test_train_restores_the_callers_blas_threads_also_after_divergence():
    get_threads, set_threads = openblas_or_skip()
    before = get_threads()
    caller = max(before, 2)
    set_threads(caller)
    try:
        gl.train(small_train(), small_synth())
        assert get_threads() == caller
        with pytest.raises(gl.NonFiniteLossError):
            gl.train(small_train(batch_size=32, learning_rate=1e300), small_synth())
        assert get_threads() == caller
    finally:
        set_threads(before)


def test_the_training_step_runs_on_one_blas_thread(monkeypatch):
    get_threads, set_threads = openblas_or_skip()
    seen = []
    real_step = _Run.step

    def step(self, *args):
        seen.append(get_threads())
        return real_step(self, *args)

    monkeypatch.setattr(_Run, "step", step)
    before = get_threads()
    caller = max(before, 2)
    set_threads(caller)
    try:
        gl.train(small_train(), small_synth())
        gl.run_sweep(small_train(), small_synth(), alphas=[0.5], seeds=[0], max_workers=1)
        assert get_threads() == caller
    finally:
        set_threads(before)
    assert seen and set(seen) == {1}


def count_as_matrix_calls(monkeypatch) -> list:
    """Counts as_matrix calls through every gaplab module that binds it."""
    calls = []
    original = gl.numerics.as_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("gaplab") and getattr(mod, "as_matrix", None) is original:
            monkeypatch.setattr(mod, "as_matrix", counted)
    return calls


def test_train_validates_once_per_run_and_per_eval_never_per_step(monkeypatch):
    calls = count_as_matrix_calls(monkeypatch)
    counts = {}
    for epochs in (1, 3):
        for batch_size in (8, 16):                         # 4 or 2 steps per epoch
            cur = gl.CurriculumConfig(anchor_epochs=epochs, ramp_epochs=0, stabilize_epochs=0)
            calls.clear()
            gl.train(small_train(curriculum=cur, batch_size=batch_size), small_synth())
            counts[epochs, batch_size] = len(calls)
    # the data once, then one check per eval batch (the two EmbeddingBatch
    # constructions) each epoch: nothing scales with the step count
    assert counts == {(1, 8): 4, (1, 16): 4, (3, 8): 8, (3, 16): 8}


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
    cur = gl.CurriculumConfig(anchor_epochs=1, ramp_epochs=2, stabilize_epochs=1, alpha_target=0.0)
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
    # The config has no step grid; the data (32 train rows / batch 8) says 4
    # steps per epoch, and the schedule must reach its target by the last epoch.
    cur = gl.CurriculumConfig(anchor_epochs=1, ramp_epochs=2, stabilize_epochs=1, alpha_target=0.5)
    assert not hasattr(cur, "steps_per_epoch")
    assert _Run(small_train(curriculum=cur), small_synth()).scheduler.steps_per_epoch == 4
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
        small_train(learning_rate=math.inf)
    with pytest.raises(ValueError):
        small_train(init_log_scale=math.nan)
    with pytest.raises(ValueError):
        small_train(init_log_scale=gl.LOG_SCALE_MAX + 0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^adam_eps must be finite, got "):
            small_train(adam_eps=bad)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        small_train(seed=-1)


def test_epoch_records_serialize():
    _, _, history = gl.train(small_train(), small_synth())
    lines = history.to_jsonl().strip().split("\n")
    assert len(lines) == 4
    import json
    row = json.loads(lines[0])
    assert set(row) == {"epoch", "alpha", "loss", "rw_term", "intra_term",
                        "grad_norm_ratio", "gap"}
    assert row["gap"]["n_pairs"] == 8


# ------------------------------------------------------------- eval batches

def test_eval_batches_carry_labels_and_modalities():
    syn = small_synth()
    data = gl.synth_dataset(syn)
    _, _, history = gl.train(small_train(), syn)
    bi, bt = history.eval_batches
    assert bi.modality == "image" and bt.modality == "text"
    assert np.array_equal(bi.labels, data.labels[data.eval_idx])
    assert np.array_equal(bt.labels, data.labels[data.eval_idx])
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
    err = gl.trainkit.NonFiniteLossError(0, 1, 0.0, math.inf, "log scale")
    assert str(err).startswith("non-finite log scale inf")
    assert pickle.loads(pickle.dumps(err)).what == "log scale"
