"""Contrastive loss family with hand-written gradients.

Four losses over a paired batch (V, T) of unit-norm rows:

- clip_loss: symmetric InfoNCE over the scaled similarity matrix.
- reweighted_loss: same, with off-diagonal logits damped by (1 - beta).
- intra_loss: cross-entropy over auxiliary logit matrices whose negatives
  come from the anchor's own modality, so only the positive pair crosses
  modalities.
- cma_loss: (1 - alpha) * reweighted_loss(beta=0.05*alpha) + alpha * intra_loss.

Every loss returns analytic gradients with respect to V, T and the log of the
temperature scale. Gradients are taken treating V and T as free variables;
backprop through row normalization is the trainer's job. finite_diff_check
validates any of them against central differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import as_matrix, row_cross_entropy, similarity_matrix, softmax_rows

__all__ = [
    "LOG_SCALE_MAX",
    "DEFAULT_LOG_SCALE",
    "Temperature",
    "LossOutput",
    "clip_loss",
    "clip_loss_decomposed",
    "reweighted_loss",
    "intra_loss",
    "cma_loss",
    "finite_diff_check",
    "numeric_bundle",
    "analytic_bundles",
    "gradient_discrepancy",
    "LOSS_IDS",
]

LOG_SCALE_MAX = math.log(100.0)
DEFAULT_LOG_SCALE = math.log(1.0 / 0.07)

LOSS_IDS = ("clip", "reweighted", "intra", "cma", "decomposed")


@dataclass
class Temperature:
    """Learnable similarity scale, parameterized as log_scale with tau = exp(log_scale).

    The effective scale is capped at 100; optimizers must re-clamp after every
    update (see adam_step), and construction rejects values past the cap.
    """

    log_scale: float = DEFAULT_LOG_SCALE

    def __post_init__(self):
        self.log_scale = float(self.log_scale)
        if not math.isfinite(self.log_scale):
            raise ValueError("log_scale must be finite")
        if self.log_scale > LOG_SCALE_MAX:
            raise ValueError(f"log_scale {self.log_scale} exceeds cap ln(100) = {LOG_SCALE_MAX}")

    @property
    def scale(self) -> float:
        return math.exp(self.log_scale)


@dataclass
class LossOutput:
    loss: float
    grad_images: np.ndarray
    grad_texts: np.ndarray
    grad_log_scale: float
    diagnostics: dict = field(default_factory=dict)


def _paired_inputs(v, t) -> tuple[np.ndarray, np.ndarray]:
    v = as_matrix(v, "V")
    t = as_matrix(t, "T")
    if v.shape != t.shape:
        raise ValueError(f"V and T must share a shape, got {v.shape} vs {t.shape}")
    return v, t


def _masked_symmetric_ce(v, t, tau, beta):
    """Core of clip_loss and reweighted_loss.

    Logits A = M * (tau * V T^T) with M = 1 on the diagonal, (1-beta) off it.
    Loss is the mean of both cross-entropy directions; beta=0 makes the mask
    a no-op so the plain symmetric InfoNCE falls out bitwise.
    """
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

    # every entry of A is proportional to tau = exp(log_scale)
    grad_log_scale = float((grad_a * a).sum())
    grad_sim = tau * (mask * grad_a)
    grad_v = grad_sim @ t
    grad_t = grad_sim.T @ v
    return loss, grad_v, grad_t, grad_log_scale


def clip_loss(v, t, temp: Temperature) -> LossOutput:
    """Symmetric InfoNCE: mean of the image-to-text and text-to-image
    cross-entropies over tau * V T^T, matched pairs on the diagonal.

    Diagnostics carry the attraction/repulsion split (align_term, oppose_term).
    """
    v, t = _paired_inputs(v, t)
    loss, gv, gt, gs = _masked_symmetric_ce(v, t, temp.scale, 0.0)
    align, oppose = clip_loss_decomposed(v, t, temp)
    return LossOutput(
        loss=loss,
        grad_images=gv,
        grad_texts=gt,
        grad_log_scale=gs,
        diagnostics={"align_term": align, "oppose_term": oppose},
    )


def clip_loss_decomposed(v, t, temp: Temperature) -> tuple[float, float]:
    """Split the image-to-text half of clip_loss into attraction and repulsion.

    align = -(1/N) sum_i tau * v_i . t_i pulls pairs together; oppose =
    (1/N) sum_i log sum_j exp(tau * v_i . t_j) pushes every pair apart.
    Their sum is exactly the image-to-text cross-entropy.
    """
    v, t = _paired_inputs(v, t)
    tau = temp.scale
    logits = tau * similarity_matrix(v, t)
    align = float(-np.diag(logits).mean())
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = logits.max(axis=1) + np.log(np.exp(shifted).sum(axis=1))
    oppose = float(lse.mean())
    return align, oppose


def reweighted_loss(v, t, temp: Temperature, beta: float) -> LossOutput:
    """clip_loss with off-diagonal (negative-pair) logits scaled by (1 - beta).

    Damping the negatives weakens the repulsion that holds the two modality
    clouds apart. beta is capped at 0.05; the mask multiplies logits, so its
    only gradient effect is the same (1 - beta) factor on off-diagonal
    similarity gradients.
    """
    v, t = _paired_inputs(v, t)
    beta = float(beta)
    if not 0.0 <= beta <= 0.05:
        raise ValueError(f"beta must be in [0, 0.05], got {beta}")
    loss, gv, gt, gs = _masked_symmetric_ce(v, t, temp.scale, beta)
    return LossOutput(
        loss=loss,
        grad_images=gv,
        grad_texts=gt,
        grad_log_scale=gs,
        diagnostics={"rw_term": loss},
    )


def intra_loss(v, t, temp: Temperature) -> LossOutput:
    """Cross-entropy over auxiliary logit matrices with same-modality negatives.

    Text-anchored logits: diagonal tau * t_i . v_i, off-diagonal tau * t_i . t_j.
    Image-anchored logits: diagonal tau * v_i . t_i, off-diagonal tau * v_i . v_j.
    The paired cross-modal similarity must out-rank the anchor's similarity to
    every other member of its own modality, which drags the two intra-modal
    geometries toward each other.

    Gradient bookkeeping: each off-diagonal similarity t_i . t_j feeds one cell
    per matrix but touches two rows of T, and the diagonal cross terms touch
    both V and T; the terms below account for every appearance.
    """
    v, t = _paired_inputs(v, t)
    n = v.shape[0]
    tau = temp.scale
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

    return LossOutput(
        loss=loss,
        grad_images=grad_v,
        grad_texts=grad_t,
        grad_log_scale=grad_log_scale,
        diagnostics={"intra_term": loss},
    )


def cma_loss(v, t, temp: Temperature, alpha: float) -> LossOutput:
    """Blend of the reweighted contrastive loss and the intra-modal matching
    loss: (1 - alpha) * reweighted_loss(beta=0.05*alpha) + alpha * intra_loss.

    Both component losses already carry their symmetric 1/2 prefactor, so
    alpha=0 reproduces clip_loss exactly (beta collapses to 0 with it) and
    alpha=1 reproduces intra_loss exactly, gradients included.

    Diagnostics: rw_term and intra_term are the unweighted component losses;
    grad_norm_rw and grad_norm_intra are each component's gradient norm over
    (V, T), there to expose the imbalance between the two objectives.
    """
    v, t = _paired_inputs(v, t)
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")

    rw = reweighted_loss(v, t, temp, beta=0.05 * alpha)
    intra = intra_loss(v, t, temp)

    w_rw = 1.0 - alpha
    loss = w_rw * rw.loss + alpha * intra.loss
    grad_v = w_rw * rw.grad_images + alpha * intra.grad_images
    grad_t = w_rw * rw.grad_texts + alpha * intra.grad_texts
    grad_s = w_rw * rw.grad_log_scale + alpha * intra.grad_log_scale

    def vt_norm(out: LossOutput) -> float:
        return float(np.sqrt((out.grad_images**2).sum() + (out.grad_texts**2).sum()))

    return LossOutput(
        loss=loss,
        grad_images=grad_v,
        grad_texts=grad_t,
        grad_log_scale=grad_s,
        diagnostics={
            "rw_term": rw.loss,
            "intra_term": intra.loss,
            "grad_norm_rw": vt_norm(rw),
            "grad_norm_intra": vt_norm(intra),
        },
    )


def _decomposed_bundles(v, t, temp: Temperature):
    """Analytic value+gradients for each half of clip_loss_decomposed."""
    v, t = _paired_inputs(v, t)
    n = v.shape[0]
    tau = temp.scale
    logits = tau * similarity_matrix(v, t)

    align, oppose = clip_loss_decomposed(v, t, temp)
    align_gv = -(tau / n) * t
    align_gt = -(tau / n) * v
    # align is proportional to tau, so d(align)/d(log_scale) = align
    align_bundle = ("align", align, align_gv, align_gt, align)

    p = softmax_rows(logits)
    oppose_gv = (tau / n) * (p @ t)
    oppose_gt = (tau / n) * (p.T @ v)
    oppose_gs = float((p * logits).sum() / n)
    oppose_bundle = ("oppose", oppose, oppose_gv, oppose_gt, oppose_gs)
    return [align_bundle, oppose_bundle]


def analytic_bundles(loss_id: str, v, t, temp: Temperature, *, alpha: float = 0.5, beta: float = 0.03):
    """Named (label, loss, grad_V, grad_T, grad_log_scale) tuples for a loss id.

    Most ids yield one bundle; "decomposed" yields one per term so each half
    of the split is validated against its own gradient.
    """
    if loss_id == "clip":
        out = clip_loss(v, t, temp)
    elif loss_id == "reweighted":
        out = reweighted_loss(v, t, temp, beta)
    elif loss_id == "intra":
        out = intra_loss(v, t, temp)
    elif loss_id == "cma":
        out = cma_loss(v, t, temp, alpha)
    elif loss_id == "decomposed":
        return _decomposed_bundles(v, t, temp)
    else:
        raise ValueError(f"unknown loss_id {loss_id!r}; expected one of {LOSS_IDS}")
    return [(loss_id, out.loss, out.grad_images, out.grad_texts, out.grad_log_scale)]


def numeric_bundle(fn, v, t, temp: Temperature, h: float):
    """Central-difference gradients of fn(V, T, temp) over every coordinate."""
    v, t = _paired_inputs(v, t)
    grad_v = np.zeros_like(v)
    grad_t = np.zeros_like(t)

    def probe(m, grad):
        for idx in np.ndindex(m.shape):
            orig = m[idx]
            m[idx] = orig + h
            hi = fn(v, t, temp)
            m[idx] = orig - h
            lo = fn(v, t, temp)
            m[idx] = orig
            grad[idx] = (hi - lo) / (2.0 * h)

    probe(v, grad_v)
    probe(t, grad_t)
    hi = fn(v, t, Temperature(temp.log_scale + h))
    lo = fn(v, t, Temperature(temp.log_scale - h))
    grad_s = (hi - lo) / (2.0 * h)
    return grad_v, grad_t, float(grad_s)


def gradient_discrepancy(analytic, numeric) -> float:
    """Worst relative error between two gradient bundles.

    Per entry: zero when the absolute difference is below 1e-10 or both values
    are below 1e-12 in magnitude (a constant-zero gradient has nothing to
    compare), otherwise |a - n| / max(|a|, |n|).
    """
    worst = 0.0
    for a, n in zip(analytic, numeric):
        a = np.atleast_1d(np.asarray(a, dtype=np.float64))
        n = np.atleast_1d(np.asarray(n, dtype=np.float64))
        diff = np.abs(a - n)
        scale = np.maximum(np.abs(a), np.abs(n))
        skip = (diff < 1e-10) | (scale < 1e-12)
        rel = np.where(skip, 0.0, diff / np.where(skip, 1.0, scale))
        worst = max(worst, float(rel.max()))
    return worst


def finite_diff_check(loss_id: str, v, t, temp: Temperature, h: float = 1e-5,
                      *, alpha: float = 0.5, beta: float = 0.03) -> float:
    """Worst relative error of a loss's analytic gradients vs central differences.

    Probes every entry of V and T plus log_scale through the loss value of the
    same analytic_bundles entry. h must lie in [1e-7, 1e-3].
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"h must be in [1e-7, 1e-3], got {h}")
    v, t = _paired_inputs(v, t)
    bundles = analytic_bundles(loss_id, v, t, temp, alpha=alpha, beta=beta)
    worst = 0.0
    for i, (_, _, gv, gt, gs) in enumerate(bundles):
        def value(*point, i=i):
            return analytic_bundles(loss_id, *point, alpha=alpha, beta=beta)[i][1]

        num = numeric_bundle(value, v.copy(), t.copy(), temp, h)
        worst = max(worst, gradient_discrepancy((gv, gt, gs), num))
    return worst
