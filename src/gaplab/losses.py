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

Each public loss validates its inputs once and hands the similarity blocks
(V T^T, and V V^T and T T^T for the intra term, each one BLAS product) to one
of two unchecked private kernels: _reweighted for clip and reweighted, _intra
for intra. cma_loss builds the three blocks once and runs both kernels on
them, so its endpoint identities with clip_loss and intra_loss hold by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import as_matrix

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


def _softmax_lse(a, axis: int):
    """Softmax of a along axis and its log-sum-exp, from one exp pass.

    The max shift keeps exp in range: scaled similarities reach ~100.
    """
    top = a.max(axis=axis, keepdims=True)
    p = a - top
    np.exp(p, out=p)
    total = p.sum(axis=axis, keepdims=True)
    p *= 1.0 / total
    return p, (top + np.log(total)).ravel()


def _split(a, lse_row) -> tuple[float, float]:
    """(align, oppose) of the image-to-text cross-entropy of logits a."""
    return float(-a.diagonal().mean()), float(lse_row.mean())


def _reweighted(s_vt, v, t, tau, beta):
    """Kernel of clip_loss and reweighted_loss over the block S_vt = V T^T.

    Logits A = M * (tau * S_vt) with M = 1 on the diagonal, (1-beta) off it;
    beta=0 skips the mask, so plain symmetric InfoNCE falls out bitwise. Both
    cross-entropy directions read the one matrix: the image-to-text softmax
    runs along its rows, the text-to-image one along its columns, and
    dL/dA = (P_row + P_col) / 2n - I / n.

    Returns (loss, grad_V, grad_T, grad_log_scale, A, row LSE of A).
    """
    n = s_vt.shape[0]
    a = tau * s_vt
    diag = a.diagonal().copy()
    if beta:
        a *= 1.0 - beta
        np.fill_diagonal(a, diag)
    p_row, lse_row = _softmax_lse(a, 1)
    p_col, lse_col = _softmax_lse(a, 0)
    loss = 0.5 * (float((lse_row - diag).mean()) + float((lse_col - diag).mean()))

    grad_a = p_row
    grad_a += p_col
    grad_a *= 0.5 / n
    grad_a.flat[::n + 1] -= 1.0 / n
    # every entry of A is proportional to tau = exp(log_scale)
    grad_log_scale = float(np.vdot(grad_a, a))
    grad_sim = grad_a * (tau * (1.0 - beta))
    if beta:
        np.fill_diagonal(grad_sim, tau * grad_a.diagonal())
    return loss, grad_sim @ t, grad_sim.T @ v, grad_log_scale, a, lse_row


def _intra(s_vt, s_vv, s_tt, v, t, tau):
    """Kernel of intra_loss over the blocks V T^T, V V^T and T T^T.

    Each auxiliary logit matrix is tau times a self-similarity block with its
    diagonal replaced by the paired cross-modal similarity tau * v_i . t_i.
    Each off-diagonal similarity t_i . t_j feeds one cell per matrix but
    touches two rows of T, and the diagonal cross terms touch both V and T;
    the gradient below accounts for every appearance.

    Returns (loss, grad_V, grad_T, grad_log_scale).
    """
    n = s_vt.shape[0]
    cross = tau * s_vt.diagonal()
    half = 0.5 / n
    loss = grad_log_scale = 0.0
    shared = np.zeros(n)
    off = []
    for s_self in (s_tt, s_vv):  # text-anchored, then image-anchored
        logits = tau * s_self
        np.fill_diagonal(logits, cross)
        p, lse = _softmax_lse(logits, 1)
        # dL/dlogits = (P - I) / 2n: its diagonal is shared by V and T, its
        # off-diagonal part feeds the anchor's own modality only
        loss += 0.5 * float((lse - cross).mean())
        grad_log_scale += half * (float(np.vdot(p, logits)) - float(cross.sum()))
        shared += half * (p.diagonal() - 1.0)
        np.fill_diagonal(p, 0.0)
        p *= half
        off.append(p)
    off_t, off_v = off
    shared = shared[:, None]
    grad_t = tau * (off_t @ t + off_t.T @ t + shared * v)
    grad_v = tau * (off_v @ v + off_v.T @ v + shared * t)
    return loss, grad_v, grad_t, grad_log_scale


def clip_loss(v, t, temp: Temperature) -> LossOutput:
    """Symmetric InfoNCE: mean of the image-to-text and text-to-image
    cross-entropies over tau * V T^T, matched pairs on the diagonal.

    Diagnostics carry the attraction/repulsion split (align_term, oppose_term),
    read off the logits and row log-sum-exp the loss already computed.
    """
    v, t = _paired_inputs(v, t)
    loss, gv, gt, gs, a, lse_row = _reweighted(v @ t.T, v, t, temp.scale, 0.0)
    align, oppose = _split(a, lse_row)
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
    logits = temp.scale * (v @ t.T)
    _, lse_row = _softmax_lse(logits, 1)
    return _split(logits, lse_row)


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
    loss, gv, gt, gs, _, _ = _reweighted(v @ t.T, v, t, temp.scale, beta)
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
    """
    v, t = _paired_inputs(v, t)
    loss, gv, gt, gs = _intra(v @ t.T, v @ v.T, t @ t.T, v, t, temp.scale)
    return LossOutput(
        loss=loss,
        grad_images=gv,
        grad_texts=gt,
        grad_log_scale=gs,
        diagnostics={"intra_term": loss},
    )


def cma_loss(v, t, temp: Temperature, alpha: float) -> LossOutput:
    """Blend of the reweighted contrastive loss and the intra-modal matching
    loss: (1 - alpha) * reweighted_loss(beta=0.05*alpha) + alpha * intra_loss.

    Both component losses already carry their symmetric 1/2 prefactor, so
    alpha=0 reproduces clip_loss exactly (beta collapses to 0 with it) and
    alpha=1 reproduces intra_loss exactly, gradients included: all of them run
    the same kernels on the same three similarity blocks, which are built once
    here and shared by both terms.

    Diagnostics: rw_term and intra_term are the unweighted component losses;
    grad_norm_rw and grad_norm_intra are each component's gradient norm over
    (V, T), there to expose the imbalance between the two objectives.
    """
    v, t = _paired_inputs(v, t)
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    tau = temp.scale
    s_vt = v @ t.T
    rw_loss, rw_gv, rw_gt, rw_gs, _, _ = _reweighted(s_vt, v, t, tau, 0.05 * alpha)
    in_loss, in_gv, in_gt, in_gs = _intra(s_vt, v @ v.T, t @ t.T, v, t, tau)

    w_rw = 1.0 - alpha
    return LossOutput(
        loss=w_rw * rw_loss + alpha * in_loss,
        grad_images=w_rw * rw_gv + alpha * in_gv,
        grad_texts=w_rw * rw_gt + alpha * in_gt,
        grad_log_scale=w_rw * rw_gs + alpha * in_gs,
        diagnostics={
            "rw_term": rw_loss,
            "intra_term": in_loss,
            "grad_norm_rw": math.sqrt(np.vdot(rw_gv, rw_gv) + np.vdot(rw_gt, rw_gt)),
            "grad_norm_intra": math.sqrt(np.vdot(in_gv, in_gv) + np.vdot(in_gt, in_gt)),
        },
    )


def _decomposed_bundles(v, t, temp: Temperature):
    """Analytic value+gradients for each half of clip_loss_decomposed."""
    v, t = _paired_inputs(v, t)
    n = v.shape[0]
    tau = temp.scale
    logits = tau * (v @ t.T)
    p, lse_row = _softmax_lse(logits, 1)

    align, oppose = _split(logits, lse_row)
    align_gv = -(tau / n) * t
    align_gt = -(tau / n) * v
    # align is proportional to tau, so d(align)/d(log_scale) = align
    align_bundle = ("align", align, align_gv, align_gt, align)

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
