import math
import sys

import numpy as np
import pytest

import gaplab as gl

from conftest import bound_losses, random_orthogonal, row_cross_entropy, similarity_matrix, unit_rows


def pair(rng, n=5, d=4):
    return unit_rows(rng, n, d), unit_rows(rng, n, d)


def random_temp(rng) -> gl.Temperature:
    return gl.Temperature(float(rng.uniform(0.0, 2.5)))


def split(v, t, temp) -> tuple[float, float]:
    """(align, oppose) from clip_loss's diagnostics."""
    d = gl.clip_loss(v, t, temp).diagnostics
    return d["align_term"], d["oppose_term"]


# -------------------------------------------------------------- Temperature

def test_temperature_default_and_scale():
    t = gl.Temperature()
    assert abs(t.log_scale - math.log(1.0 / 0.07)) < 1e-15
    assert abs(t.scale - 1.0 / 0.07) < 1e-12
    assert abs(gl.Temperature(0.0).scale - 1.0) < 1e-15


def test_temperature_rejects_values_past_cap():
    gl.Temperature(gl.LOG_SCALE_MAX)  # at the cap is fine
    with pytest.raises(ValueError):
        gl.Temperature(gl.LOG_SCALE_MAX + 1e-9)
    with pytest.raises(ValueError):
        gl.Temperature(float("nan"))


# ---------------------------------------------------------------- clip_loss

def test_clip_hand_case_identity_rows():
    # Two orthonormal pairs at tau=1: both CE halves are log(1 + e^-1).
    v = np.eye(2)
    out = gl.clip_loss(v, v, gl.Temperature(0.0))
    assert abs(out.loss - math.log(1.0 + math.exp(-1.0))) < 1e-15


def test_clip_single_pair_is_zero():
    v = np.array([[1.0, 0.0]])
    out = gl.clip_loss(v, v, gl.Temperature())
    assert out.loss == 0.0
    assert np.array_equal(out.grad_images, np.zeros((1, 2)))
    assert np.array_equal(out.grad_texts, np.zeros((1, 2)))
    assert out.grad_log_scale == 0.0


def test_clip_diagnostics_hold_the_split():
    rng = np.random.default_rng(0)
    v, t = pair(rng)
    temp = gl.Temperature()
    align, oppose = split(v, t, temp)
    logits = temp.scale * similarity_matrix(v, t)
    assert abs(align + np.diag(logits).mean()) < 1e-12
    assert abs(oppose - np.log(np.exp(logits).sum(axis=1)).mean()) < 1e-12


def test_clip_rejects_shape_mismatch():
    rng = np.random.default_rng(1)
    v, t = pair(rng)
    with pytest.raises(ValueError):
        gl.clip_loss(v, t[:-1], gl.Temperature())


# ------------------------------------------------------------ decomposition

def test_align_plus_oppose_recomposes_i2t_cross_entropy():
    rng = np.random.default_rng(2)
    for _ in range(20):
        v, t = pair(rng, n=6, d=5)
        temp = random_temp(rng)
        align, oppose = split(v, t, temp)
        logits = temp.scale * similarity_matrix(v, t)
        i2t, _ = row_cross_entropy(logits, np.arange(6))
        assert abs((align + oppose) - i2t) < 1e-10


def test_decomposition_limits_at_tiny_scale():
    # As tau -> 0 the attraction term vanishes and repulsion tends to log N.
    rng = np.random.default_rng(3)
    v, t = pair(rng, n=8, d=4)
    align, oppose = split(v, t, gl.Temperature(-18.0))
    assert abs(align) < 1e-7
    assert abs(oppose - math.log(8.0)) < 1e-7


def test_align_grows_more_negative_with_alignment():
    rng = np.random.default_rng(4)
    v, _ = pair(rng)
    temp = gl.Temperature()
    perfect, _ = split(v, v, temp)
    shuffled, _ = split(v, np.roll(v, 1, axis=0), temp)
    assert perfect < shuffled


# ---------------------------------------------------------- reweighted_loss

def assert_same_output(a, b, where):
    assert a.loss == b.loss, where
    assert np.array_equal(a.grad_images, b.grad_images), where
    assert np.array_equal(a.grad_texts, b.grad_texts), where
    assert a.grad_log_scale == b.grad_log_scale, where


# 5 x 4 is the hand-sized case, 128 the training batch, and 257 crosses a BLAS
# block boundary; looped rather than parametrized so the test ids stay put.
BITWISE_SHAPES = ((5, 4), (128, 16), (257, 16))


def test_reweighted_beta_zero_is_clip_bitwise():
    rng = np.random.default_rng(5)
    for n, d in BITWISE_SHAPES:
        v, t = pair(rng, n, d)
        temp = random_temp(rng)
        a = gl.reweighted_loss(v, t, temp, beta=0.0)
        b = gl.clip_loss(v, t, temp)
        assert_same_output(a, b, (n, d))


def test_reweighted_beta_range_enforced():
    rng = np.random.default_rng(6)
    v, t = pair(rng)
    for bad in (-1e-9, 0.0500001, 1.0):
        with pytest.raises(ValueError):
            gl.reweighted_loss(v, t, gl.Temperature(), bad)


def test_reweighted_damping_lowers_repulsion():
    # Scaling down off-diagonal logits can only shrink each row's LSE term.
    rng = np.random.default_rng(7)
    v, t = pair(rng, n=10, d=6)
    temp = gl.Temperature()
    plain = gl.clip_loss(v, t, temp).loss
    damped = gl.reweighted_loss(v, t, temp, beta=0.05).loss
    assert damped != plain
    assert np.isfinite(damped)


# --------------------------------------------------------------- intra_loss

def test_intra_single_pair_is_zero():
    v = np.array([[0.0, 1.0]])
    t = np.array([[1.0, 0.0]])
    out = gl.intra_loss(v, t, gl.Temperature())
    assert out.loss == 0.0
    assert np.array_equal(out.grad_images, np.zeros((1, 2)))


def test_intra_is_invariant_under_shared_rotation():
    rng = np.random.default_rng(8)
    v, t = pair(rng, n=7, d=5)
    temp = gl.Temperature(1.3)
    base = gl.intra_loss(v, t, temp)
    q = random_orthogonal(rng, 5)
    rotated = gl.intra_loss(v @ q, t @ q, temp)
    assert abs(base.loss - rotated.loss) < 1e-9
    # gradients co-rotate
    assert np.max(np.abs(rotated.grad_images - base.grad_images @ q)) < 1e-9


def test_intra_prefers_matched_neighborhood_structure():
    # When each modality's self-similarity graph differs, the loss is higher
    # than when the two clouds are copies of each other.
    rng = np.random.default_rng(9)
    v, t = pair(rng, n=9, d=5)
    temp = gl.Temperature()
    same = gl.intra_loss(v, v, temp).loss
    different = gl.intra_loss(v, t, temp).loss
    assert same < different


# ----------------------------------------------------------------- cma_loss

def test_cma_endpoints_are_bitwise():
    rng = np.random.default_rng(10)
    for n, d in BITWISE_SHAPES:
        v, t = pair(rng, n, d)
        temp = random_temp(rng)
        assert_same_output(gl.cma_loss(v, t, temp, alpha=0.0), gl.clip_loss(v, t, temp), (n, d, 0.0))
        assert_same_output(gl.cma_loss(v, t, temp, alpha=1.0), gl.intra_loss(v, t, temp), (n, d, 1.0))


def test_cma_midpoint_recomposes_components():
    rng = np.random.default_rng(11)
    v, t = pair(rng)
    temp = gl.Temperature(1.0)
    alpha = 0.4
    out = gl.cma_loss(v, t, temp, alpha)
    rw = gl.reweighted_loss(v, t, temp, beta=0.05 * alpha)
    intra = gl.intra_loss(v, t, temp)
    assert abs(out.loss - ((1 - alpha) * rw.loss + alpha * intra.loss)) < 1e-12
    blend = (1 - alpha) * rw.grad_images + alpha * intra.grad_images
    assert np.max(np.abs(out.grad_images - blend)) < 1e-12
    assert out.diagnostics["rw_term"] == rw.loss
    assert out.diagnostics["intra_term"] == intra.loss


def test_cma_gradient_norm_diagnostics():
    rng = np.random.default_rng(12)
    v, t = pair(rng)
    out = gl.cma_loss(v, t, gl.Temperature(), alpha=0.5)
    rw = gl.reweighted_loss(v, t, gl.Temperature(), beta=0.025)
    expected = math.sqrt((rw.grad_images ** 2).sum() + (rw.grad_texts ** 2).sum())
    assert abs(out.diagnostics["grad_norm_rw"] - expected) < 1e-12
    assert out.diagnostics["grad_norm_intra"] > 0.0


def test_lean_cma_at_alpha_0_keeps_the_blends_bits():
    # a sweep's steps at alpha 0 skip the zero-weight intra term; elsewhere
    # lean changes nothing
    rng = np.random.default_rng(14)
    for n, d in BITWISE_SHAPES:
        v, t = pair(rng, n, d)
        tau = gl.Temperature(gl.LOG_SCALE_MAX).scale
        for alpha in (0.0, 0.3, 1.0):
            full, lean = (gl.losses._cma(v, t, tau, alpha, lean) for lean in (False, True))
            assert_same_output(lean, full, (n, d, alpha))
            assert lean.diagnostics["rw_term"] == full.diagnostics["rw_term"]
            if alpha:
                assert lean.diagnostics == full.diagnostics
            else:
                assert all(math.isnan(lean.diagnostics[k])
                           for k in ("intra_term", "grad_norm_rw", "grad_norm_intra"))


def test_cma_alpha_range_enforced():
    rng = np.random.default_rng(13)
    v, t = pair(rng)
    for bad in (-0.1, 1.0001):
        with pytest.raises(ValueError):
            gl.cma_loss(v, t, gl.Temperature(), bad)


# ------------------------------------------------------------- equivariance

def test_losses_are_equivariant_under_pair_permutation():
    rng = np.random.default_rng(14)
    v, t = pair(rng, n=8, d=5)
    temp = gl.Temperature(0.7)
    perm = rng.permutation(8)
    cases = [
        lambda a, b: gl.clip_loss(a, b, temp),
        lambda a, b: gl.reweighted_loss(a, b, temp, 0.04),
        lambda a, b: gl.intra_loss(a, b, temp),
        lambda a, b: gl.cma_loss(a, b, temp, 0.6),
    ]
    for fn in cases:
        base = fn(v, t)
        shuffled = fn(v[perm], t[perm])
        assert abs(base.loss - shuffled.loss) < 1e-10
        assert np.max(np.abs(shuffled.grad_images - base.grad_images[perm])) < 1e-10
        assert np.max(np.abs(shuffled.grad_texts - base.grad_texts[perm])) < 1e-10


# -------------------------------------------------------- gradient checking

def test_finite_differences_all_losses():
    rng = np.random.default_rng(15)
    for seed in range(5):
        local = np.random.default_rng(seed)
        v, t = pair(local, n=4, d=3)
        temp = random_temp(local)
        losses = bound_losses(alpha=float(rng.uniform(0.05, 0.95)),
                              beta=float(rng.uniform(0.0, 0.05)))
        for name, loss in losses.items():
            err = gl.finite_diff_check(loss, v, t, temp)
            assert err < 1e-5, (name, seed, err)


def test_finite_differences_at_the_temperature_cap():
    # train's optimizer clamps log_scale to exactly the cap; the probe steps past it
    v, t = pair(np.random.default_rng(18), n=4, d=3)
    temp = gl.Temperature(gl.LOG_SCALE_MAX)
    for name, loss in bound_losses(alpha=0.5, beta=0.05).items():
        err = gl.finite_diff_check(loss, v, t, temp)
        assert err < 1e-5, (name, err)
    assert temp.log_scale == gl.LOG_SCALE_MAX


def test_finite_diff_single_pair_degenerates_to_zero():
    v = np.array([[1.0, 0.0]])
    t = np.array([[0.0, 1.0]])
    assert gl.finite_diff_check(gl.clip_loss, v, t, gl.Temperature()) == 0.0


def test_finite_diff_check_validates_h_and_loss_id():
    rng = np.random.default_rng(16)
    v, t = pair(rng)
    with pytest.raises(ValueError):
        gl.finite_diff_check(gl.clip_loss, v, t, gl.Temperature(), h=1e-8)
    with pytest.raises(ValueError):
        gl.finite_diff_check(gl.clip_loss, v, t, gl.Temperature(), h=1e-2)
    with pytest.raises(TypeError):  # the checker takes the loss itself, not its name
        gl.finite_diff_check("clip", v, t, gl.Temperature())


@pytest.mark.parametrize("channel", ["grad_images", "grad_texts", "grad_log_scale"])
def test_corrupted_gradient_is_caught(channel):
    # A 1% scale error on any one analytic gradient must exceed the 5e-3 gate.
    rng = np.random.default_rng(17)
    v, t = pair(rng)
    temp = gl.Temperature(1.0)

    def tampered(a, b, tm):
        out = gl.clip_loss(a, b, tm)
        setattr(out, channel, getattr(out, channel) * 1.01)
        return out

    assert gl.finite_diff_check(gl.clip_loss, v, t, temp) < 1e-5
    assert gl.finite_diff_check(tampered, v, t, temp) > 5e-3


# ------------------------------------------------------ dense einsum oracle
#
# The loss kernels build their similarity blocks with BLAS and read both
# cross-entropy directions off one logit matrix. The reference below is the
# earlier dense implementation: einsum similarity matrices and one
# row_cross_entropy pass per direction and per auxiliary matrix.

def dense_reweighted(v, t, tau, beta):
    n = v.shape[0]
    labels = np.arange(n)
    logits = tau * similarity_matrix(v, t)
    mask = np.full((n, n), 1.0 - beta)
    np.fill_diagonal(mask, 1.0)
    a = mask * logits

    loss_i2t, g_i2t = row_cross_entropy(a, labels)
    loss_t2i, g_t2i = row_cross_entropy(a.T, labels)
    loss = 0.5 * (loss_i2t + loss_t2i)
    grad_a = 0.5 * (g_i2t + g_t2i.T)

    grad_log_scale = float((grad_a * a).sum())
    grad_sim = tau * (mask * grad_a)
    return loss, grad_sim @ t, grad_sim.T @ v, grad_log_scale


def dense_intra(v, t, tau):
    n = v.shape[0]
    labels = np.arange(n)

    cross_diag = np.einsum("ij,ij->i", v, t)
    logits_txt = tau * similarity_matrix(t, t)
    np.fill_diagonal(logits_txt, tau * cross_diag)
    logits_img = tau * similarity_matrix(v, v)
    np.fill_diagonal(logits_img, tau * cross_diag)

    loss_txt, g_txt = row_cross_entropy(logits_txt, labels)
    loss_img, g_img = row_cross_entropy(logits_img, labels)
    loss = 0.5 * (loss_txt + loss_img)
    d_txt = 0.5 * g_txt
    d_img = 0.5 * g_img

    grad_log_scale = float((d_txt * logits_txt).sum() + (d_img * logits_img).sum())

    diag_txt = np.diag(d_txt).copy()
    diag_img = np.diag(d_img).copy()
    off_txt = d_txt.copy()
    np.fill_diagonal(off_txt, 0.0)
    off_img = d_img.copy()
    np.fill_diagonal(off_img, 0.0)

    shared = (diag_txt + diag_img)[:, None]
    grad_t = tau * ((off_txt + off_txt.T) @ t + shared * v)
    grad_v = tau * ((off_img + off_img.T) @ v + shared * t)
    return loss, grad_v, grad_t, grad_log_scale


def dense_cma(v, t, tau, alpha):
    """Every checked output of cma_loss, plus clip's split, from the dense code."""
    rw = dense_reweighted(v, t, tau, 0.05 * alpha)
    intra = dense_intra(v, t, tau)
    w_rw = 1.0 - alpha

    def vt_norm(out):
        return float(np.sqrt((out[1] ** 2).sum() + (out[2] ** 2).sum()))

    logits = tau * similarity_matrix(v, t)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = logits.max(axis=1) + np.log(np.exp(shifted).sum(axis=1))
    return {
        "loss": w_rw * rw[0] + alpha * intra[0],
        "grad_images": w_rw * rw[1] + alpha * intra[1],
        "grad_texts": w_rw * rw[2] + alpha * intra[2],
        "grad_log_scale": w_rw * rw[3] + alpha * intra[3],
        "rw_term": rw[0],
        "intra_term": intra[0],
        "grad_norm_rw": vt_norm(rw),
        "grad_norm_intra": vt_norm(intra),
        "align_term": float(-np.diag(logits).mean()),
        "oppose_term": float(lse.mean()),
    }


@pytest.mark.parametrize("unit", [True, False], ids=["unit", "nonunit"])
@pytest.mark.parametrize("d", [1, 4, 16])
@pytest.mark.parametrize("n", [1, 2, 5, 128, 257])
def test_losses_match_the_dense_einsum_oracle(n, d, unit):
    """cma_loss (and clip's split) within 1e-12 relative of the dense code.

    Entry by entry: |got - want| <= 1e-12 |want| + floor. The floor is 1e-15
    per unit of the largest logit magnitude tau * r^2 (r the largest row norm),
    at least 1e-15: gradient entries are sums whose terms are that large, so
    an entry that cancels to near zero carries rounding of that size in both
    implementations.
    """
    rng = np.random.default_rng(1000 * n + 10 * d + unit)
    v = rng.standard_normal((n, d))
    t = rng.standard_normal((n, d))
    if unit:
        v, _ = gl.l2_normalize_rows(v)
        t, _ = gl.l2_normalize_rows(t)
    else:
        v *= rng.uniform(0.5, 2.0, (n, 1))
        t *= rng.uniform(0.5, 2.0, (n, 1))
    r = max(np.linalg.norm(v, axis=1).max(), np.linalg.norm(t, axis=1).max())

    for log_scale in (-18.0, 0.0, gl.DEFAULT_LOG_SCALE, gl.LOG_SCALE_MAX):
        temp = gl.Temperature(log_scale)
        floor = 1e-15 * max(1.0, temp.scale * r * r)
        clip = gl.clip_loss(v, t, temp)
        for alpha in (0.0, 0.05, 0.37, 1.0):
            want = dense_cma(v, t, temp.scale, alpha)
            out = gl.cma_loss(v, t, temp, alpha)
            got = {"loss": out.loss, "grad_images": out.grad_images,
                   "grad_texts": out.grad_texts, "grad_log_scale": out.grad_log_scale,
                   **out.diagnostics, **clip.diagnostics}
            assert got.keys() == want.keys()
            for key, w in want.items():
                err = np.abs(np.asarray(got[key]) - w)
                assert np.all(err <= 1e-12 * np.abs(w) + floor), (key, log_scale, alpha, err.max())


def test_a_logit_block_spanning_past_the_shared_shift_falls_back_per_line(monkeypatch):
    """Row norms 0.1 and 10 at tau = 100 span logits over more than 1000: one
    shift by the block maximum would underflow whole lines of exp to 0."""
    rng = np.random.default_rng(23)
    n, d = 16, 8
    norms = np.where(np.arange(n) % 2 == 0, 0.1, 10.0)[:, None]
    v, _ = gl.l2_normalize_rows(rng.standard_normal((n, d)))
    t, _ = gl.l2_normalize_rows(rng.standard_normal((n, d)))
    v, t = v * norms, t * norms[::-1]
    temp = gl.Temperature(gl.LOG_SCALE_MAX)
    assert np.ptp(temp.scale * (v @ t.T)) > 1000.0

    per_line = []
    real = gl.losses._softmax_lse

    def spy(a, axis, top=None):
        per_line.append(top is None)
        return real(a, axis, top)

    monkeypatch.setattr(gl.losses, "_softmax_lse", spy)
    floor = 1e-15 * temp.scale * 100.0
    for alpha in (0.0, 0.37, 1.0):
        per_line.clear()
        out = gl.cma_loss(v, t, temp, alpha)
        assert per_line == [True] * 4  # both directions of V T^T, then both intra blocks
        want = dense_cma(v, t, temp.scale, alpha)
        got = {"loss": out.loss, "grad_images": out.grad_images,
               "grad_texts": out.grad_texts, "grad_log_scale": out.grad_log_scale,
               **out.diagnostics}
        for key, w in got.items():
            assert np.all(np.isfinite(w)), key
            err = np.abs(np.asarray(w) - want[key])
            assert np.all(err <= 1e-12 * np.abs(want[key]) + floor), (key, alpha, err.max())


@pytest.mark.parametrize("log_scale", [math.log(10.0), gl.LOG_SCALE_MAX])
def test_losses_reject_inputs_whose_products_overflow_float64(log_scale):
    rng = np.random.default_rng(35)
    v, t = rng.standard_normal((50, 8)), rng.standard_normal((50, 8))
    temp = gl.Temperature(log_scale)
    for name, loss in bound_losses(0.4, 0.05).items():
        with pytest.raises(ValueError, match="can overflow"):
            loss(1e200 * v, 1e200 * t, temp)
        with pytest.raises(ValueError, match="underflows"):
            loss(2.0**-540 * v, 2.0**-540 * t, temp)
        out = loss(1e150 * v, 1e150 * t, temp)  # a RuntimeWarning would raise here
        assert math.isfinite(out.loss), name
        assert all(np.isfinite(g).all() for g in (out.grad_images, out.grad_texts, out.grad_log_scale))


def test_cma_loss_validates_once_and_skips_the_checked_helpers(monkeypatch):
    """One cma_loss call checks V and T and nothing below them.

    Counts calls through every gaplab module that binds the numerics
    function, so a re-import under another name is caught too. The checked
    similarity and cross-entropy helpers are test oracles now: no gaplab
    module has them to call.
    """
    v, t = pair(np.random.default_rng(19), 128, 16)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("gaplab"):
            assert not hasattr(mod, "similarity_matrix") and not hasattr(mod, "row_cross_entropy")
    calls = {"_checked_matrix": 0}  # the input check; as_matrix runs through it
    for name in calls:
        original = getattr(gl.numerics, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("gaplab") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    gl.cma_loss(v, t, gl.Temperature(), alpha=0.4)
    assert calls == {"_checked_matrix": 2}
