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
validates any loss callable against central differences.

Each public loss validates its inputs once, rejecting any whose float64
sums could overflow (_checked_pair), and hands the block V T^T (one BLAS
product) to one of two unchecked private kernels: _reweighted for clip
and reweighted, _intra for intra, which builds V V^T and T T^T itself. cma_loss
wraps _cma, which builds V T^T once and runs both kernels on it, so its
endpoint identities with clip_loss and intra_loss hold by construction; the
trainer calls _cma directly on arrays it has already validated.

Each logit block is shifted once, by its maximum, so its softmax normalizers
take fewer passes (cf. Milakov & Gimelshein, arXiv:1805.02867): _reweighted
reads both directions off one exp of its block. A block spanning 600 or more
(never unit rows, which span at most 200 at the scale cap) keeps one shift
per row and per column, so no row's exp underflows to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import _check_products, _paired_inputs, _scalar

__all__ = [
    "LOG_SCALE_MAX",
    "DEFAULT_LOG_SCALE",
    "Temperature",
    "LossOutput",
    "clip_loss",
    "reweighted_loss",
    "intra_loss",
    "cma_loss",
    "finite_diff_check",
]

LOG_SCALE_MAX = math.log(100.0)
DEFAULT_LOG_SCALE = math.log(1.0 / 0.07)

@dataclass
class Temperature:
    """Learnable similarity scale, parameterized as log_scale with tau = exp(log_scale).

    The effective scale is capped at 100; optimizers must re-clamp after every
    update (train's Adam step does), and construction rejects values past the cap.
    """

    log_scale: float = DEFAULT_LOG_SCALE

    def __post_init__(self):
        self.log_scale = _scalar(self.log_scale, "log_scale", high=LOG_SCALE_MAX)

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


def _checked_pair(v, t) -> tuple[np.ndarray, np.ndarray]:
    """(V, T) through _paired_inputs, rejected before any work when a float64
    sum that a public loss takes could overflow, or its products underflow.

    With m the largest |entry| of V and T, each entry of V T^T, V V^T and
    T T^T is at most d m^2, and each logit, at most 100 (the scale cap) times
    one, at most L = 100 d m^2. The largest sums are then:
    - a loss term or a log-scale gradient: n terms lse_i - a_ii, each in
      [0, 2L + log n], or logits under softmax weights that sum to n: at
      most n (2L + log n);
    - cma_loss's gradient norms: each gradient weighs rows of V or T by tau
      times weights whose absolute values sum to at most 2, so each column
      sums to at most 200 m in absolute value, and a component's two squared
      norms to at most 2 d (200 m)^2.
    So 200 (n + 400) d products of m^2 bound every sum; the half of the
    float64 maximum that _check_products keeps covers the n log n.
    """
    v, t, top_v, top_t = _paired_inputs(v, t)
    n, d = v.shape
    top = max(top_v, top_t)
    _check_products(200 * (n + 400) * d, top, top, "V and T")
    return v, t


def _block_max(a):
    """max a, the one shift for the whole block, if a spans less than 600: then
    every exp(a - max a) is at least exp(-600) ~ 1e-261, a normal float. Else
    None: each row or column needs its own (past 745, a row could underflow to 0)."""
    top = a.max()
    return top if top - a.min() < 600.0 else None


def _softmax_lse(a, axis: int, top=None):
    """Softmax of a along axis and its log-sum-exp, from one exp pass.

    The shift keeps exp in range: scaled similarities reach ~100. It is top
    (see _block_max) when given, else each line's own maximum.
    """
    if top is None:
        top = a.max(axis=axis, keepdims=True)
    p = a - top
    np.exp(p, out=p)
    total = p.sum(axis=axis, keepdims=True)
    p *= 1.0 / total
    return p, (top + np.log(total)).ravel()


def _reweighted(s_vt, v, t, tau, beta):
    """Kernel of clip_loss and reweighted_loss over the block S_vt = V T^T.

    Logits A = M * (tau * S_vt) with M = 1 on the diagonal, (1-beta) off it;
    beta=0 skips the mask, so plain symmetric InfoNCE falls out bitwise. Both
    cross-entropy directions read the one matrix: the image-to-text softmax
    runs along its rows, the text-to-image one along its columns, and
    dL/dA = (P_row + P_col) / 2n - I / n. When the block allows one shift
    (_block_max), one E = exp(A - max A) serves both: with row sums r and
    column sums c, P_row + P_col = E * (1/r_i + 1/c_j).

    Returns (loss, grad_V, grad_T, grad_log_scale, A, row LSE of A).
    """
    n = s_vt.shape[0]
    a = tau * s_vt
    diag = a.diagonal().copy()
    if beta:
        a *= 1.0 - beta
        np.fill_diagonal(a, diag)
    half = 0.5 / n
    top = _block_max(a)
    if top is None:
        p_row, lse_row = _softmax_lse(a, 1)
        p_col, lse_col = _softmax_lse(a, 0)
        grad_a = p_row
        grad_a += p_col
        grad_a *= half
    else:
        grad_a = a - top
        np.exp(grad_a, out=grad_a)
        rows, cols = grad_a.sum(axis=1), grad_a.sum(axis=0)
        lse_row, lse_col = top + np.log(rows), top + np.log(cols)
        grad_a *= np.add.outer(half / rows, half / cols)
    loss = 0.5 * (float((lse_row - diag).mean()) + float((lse_col - diag).mean()))
    grad_a.flat[::n + 1] -= 1.0 / n
    # every entry of A is proportional to tau = exp(log_scale)
    grad_log_scale = float(np.vdot(grad_a, a))
    grad_sim = grad_a * (tau * (1.0 - beta))
    if beta:
        np.fill_diagonal(grad_sim, tau * grad_a.diagonal())
    return loss, grad_sim @ t, grad_sim.T @ v, grad_log_scale, a, lse_row


def _intra(s_vt, v, t, tau):
    """Kernel of intra_loss over V T^T and the blocks V V^T and T T^T, built here.

    Each auxiliary logit matrix is tau times a self-similarity block with its
    diagonal replaced by the paired cross-modal similarity tau * v_i . t_i.
    Each off-diagonal similarity t_i . t_j feeds one cell per matrix but
    touches two rows of T, and the diagonal cross terms touch both V and T;
    the gradient below accounts for every appearance, so the blocks need not
    be exactly symmetric.

    Returns (loss, grad_V, grad_T, grad_log_scale).
    """
    n = s_vt.shape[0]
    cross = tau * s_vt.diagonal()
    half = 0.5 / n
    loss = grad_log_scale = 0.0
    shared = np.zeros(n)
    off = []
    for anchor in (t, v):  # text-anchored, then image-anchored
        logits = anchor @ anchor.T.copy()  # gemm: anchor @ anchor.T is the slower syrk
        logits *= tau
        np.fill_diagonal(logits, cross)
        p, lse = _softmax_lse(logits, 1, _block_max(logits))
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

    Diagnostics carry the attraction/repulsion split of the image-to-text
    half, read off the logits and row log-sum-exp the loss already computed:
    align_term = -(1/N) sum_i tau * v_i . t_i pulls pairs together,
    oppose_term = (1/N) sum_i log sum_j exp(tau * v_i . t_j) pushes every pair
    apart, and their sum is exactly the image-to-text cross-entropy.
    """
    v, t = _checked_pair(v, t)
    loss, gv, gt, gs, a, lse_row = _reweighted(v @ t.T, v, t, temp.scale, 0.0)
    split = {"align_term": float(-a.diagonal().mean()), "oppose_term": float(lse_row.mean())}
    return LossOutput(loss, gv, gt, gs, split)


def reweighted_loss(v, t, temp: Temperature, beta: float) -> LossOutput:
    """clip_loss with off-diagonal (negative-pair) logits scaled by (1 - beta).

    Damping the negatives weakens the repulsion that holds the two modality
    clouds apart. beta is capped at 0.05; the mask multiplies logits, so its
    only gradient effect is the same (1 - beta) factor on off-diagonal
    similarity gradients.
    """
    beta = _scalar(beta, "beta", low=0, high=0.05)
    v, t = _checked_pair(v, t)
    loss, gv, gt, gs, _, _ = _reweighted(v @ t.T, v, t, temp.scale, beta)
    return LossOutput(loss, gv, gt, gs, {"rw_term": loss})


def intra_loss(v, t, temp: Temperature) -> LossOutput:
    """Cross-entropy over auxiliary logit matrices with same-modality negatives.

    Text-anchored logits: diagonal tau * t_i . v_i, off-diagonal tau * t_i . t_j.
    Image-anchored logits: diagonal tau * v_i . t_i, off-diagonal tau * v_i . v_j.
    The paired cross-modal similarity must out-rank the anchor's similarity to
    every other member of its own modality, which drags the two intra-modal
    geometries toward each other.
    """
    v, t = _checked_pair(v, t)
    loss, gv, gt, gs = _intra(v @ t.T, v, t, temp.scale)
    return LossOutput(loss, gv, gt, gs, {"intra_term": loss})


def _cma(v, t, tau: float, alpha: float, lean: bool = False) -> LossOutput:
    """cma_loss on validated (V, T), scale tau = exp(log_scale) and alpha in [0, 1]. lean at
    alpha 0 skips intra: its weight is 0, and on unit rows with tau <= 100 its loss is finite."""
    s_vt = v @ t.T
    rw_loss, rw_gv, rw_gt, rw_gs, _, _ = _reweighted(s_vt, v, t, tau, 0.05 * alpha)
    if lean and alpha == 0.0:  # the same bits up to a zero's sign; the other diagnostics are NaN
        unread = dict.fromkeys(("intra_term", "grad_norm_rw", "grad_norm_intra"), math.nan)
        return LossOutput(rw_loss, rw_gv, rw_gt, rw_gs, {"rw_term": rw_loss, **unread})
    in_loss, in_gv, in_gt, in_gs = _intra(s_vt, v, t, tau)

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


def cma_loss(v, t, temp: Temperature, alpha: float) -> LossOutput:
    """Blend of the reweighted contrastive loss and the intra-modal matching
    loss: (1 - alpha) * reweighted_loss(beta=0.05*alpha) + alpha * intra_loss.

    Both component losses already carry their symmetric 1/2 prefactor, so
    alpha=0 reproduces clip_loss exactly (beta collapses to 0 with it) and
    alpha=1 reproduces intra_loss exactly, gradients included: all of them run
    the same kernels on the same similarity blocks, and V T^T is built once
    and shared by both terms.

    Diagnostics: rw_term and intra_term are the unweighted component losses;
    grad_norm_rw and grad_norm_intra are each component's gradient norm over
    (V, T), there to expose the imbalance between the two objectives.
    """
    alpha = _scalar(alpha, "alpha", low=0, high=1)
    v, t = _checked_pair(v, t)
    return _cma(v, t, temp.scale, alpha)


def _numeric_gradient(value, m, h: float) -> np.ndarray:
    """Central differences of value() over every entry of m, which value reads in place."""
    grad = np.zeros_like(m)
    for idx in np.ndindex(m.shape):
        orig = m[idx]
        m[idx] = orig + h
        hi = value()
        m[idx] = orig - h
        lo = value()
        m[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * h)
    return grad


def _gradient_discrepancy(analytic, numeric) -> float:
    """Worst relative error between two sequences of gradient arrays.

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


def finite_diff_check(loss, v, t, temp: Temperature, h: float = 1e-5) -> float:
    """Worst relative error of a loss's analytic gradients vs central differences.

    loss(V, T, temp) returns a LossOutput; bind any other argument with a
    lambda, as in lambda v, t, temp: cma_loss(v, t, temp, 0.5). Probes every
    entry of V and T plus log_scale through the loss value; the log_scale
    probe may step past the ln(100) cap. h must lie in [1e-7, 1e-3].
    """
    h = _scalar(h, "h", low=1e-7, high=1e-3)
    v, t, _, _ = _paired_inputs(v, t)
    out = loss(v, t, temp)
    v, t, log_scale = v.copy(), t.copy(), np.array([temp.log_scale])
    probe = Temperature()

    def value():
        # past the constructor's cap check: the cap is the optimizer's clamp, not a kink
        probe.log_scale = float(log_scale[0])
        return loss(v, t, probe).loss

    numeric = [_numeric_gradient(value, m, h) for m in (v, t, log_scale)]
    return _gradient_discrepancy((out.grad_images, out.grad_texts, out.grad_log_scale), numeric)
