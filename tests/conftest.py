"""Shared helpers for the test suite."""

import sys
import tracemalloc

import numpy as np

import gaplab as gl
from gaplab.losses import _gradient_discrepancy, _numeric_gradient
from gaplab.trainkit import _backward, _forward


def unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Random rows projected to the unit sphere (never degenerate)."""
    m = rng.standard_normal((n, d))
    out, bad = gl.l2_normalize_rows(m)
    assert not bad.any()
    return out


def random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish random orthogonal matrix via QR with a fixed sign convention."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def similarity_matrix(a, b) -> np.ndarray:
    """Oracle for the similarity products: out[i, j] = a_i . b_j, shape (a rows, b rows).

    Uses a fixed-order einsum contraction so similarity_matrix(a, b).T and
    similarity_matrix(b, a) are bitwise identical (BLAS matmul is not
    guaranteed to be, at larger sizes). The losses and recall_at_k build
    their products with BLAS and are checked against this.
    """
    a = gl.as_matrix(a, "a")
    b = gl.as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    return np.einsum("ik,jk->ij", a, b)


def row_cross_entropy(logits, labels) -> tuple[float, np.ndarray]:
    """Oracle for the losses' cross-entropy terms: mean over rows of
    -log softmax(logits_i)[labels_i], plus its gradient.

    The gradient is (softmax - onehot) / n_rows, so it sums to zero along each
    row and feeding it back through any logit parameterization is exact.
    """
    logits = gl.as_matrix(logits, "logits")
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
        raise ValueError(f"labels must be a vector of length {logits.shape[0]}")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label index out of range")
    labels = labels.astype(np.intp)

    n = logits.shape[0]
    # max subtraction: scaled similarities can reach ~100 before exp
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = 0.0 - log_p[np.arange(n), labels].mean()  # 0.0 - x avoids a -0.0 result
    grad = np.exp(log_p)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return float(loss), grad


def encoder_grads(enc: gl.Encoder, cache, upstream: np.ndarray) -> list:
    """[w1, b1, w2, b2] gradients of the training step's backward kernel, in fresh arrays."""
    grads = [np.empty_like(p) for p in (enc.w1, enc.b1, enc.w2, enc.b2)]
    _backward(enc, cache, upstream, grads)
    return grads


def encode_pairs(img: gl.Encoder, txt: gl.Encoder, data: gl.PairedDataset, rows):
    """Selected dataset rows through the training step's forward kernel, as
    labeled (image, text) embedding batches."""
    (vi, _), (vt, _) = _forward(img, data.images[rows]), _forward(txt, data.texts[rows])
    labels = data.labels[rows]
    return (gl.EmbeddingBatch(vi, labels=labels, modality="image"),
            gl.EmbeddingBatch(vt, labels=labels, modality="text"))


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), peak bytes it allocated beyond what was live before).

    Counts what tracemalloc sees, which includes NumPy array data; the result
    is part of the peak, the inputs are not.
    """
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, peak


def bound_losses(alpha: float, beta: float) -> dict:
    """Every loss with a gradient, as loss(V, T, temp) callables for finite_diff_check."""
    return {
        "clip": gl.clip_loss,
        "reweighted": lambda v, t, temp: gl.reweighted_loss(v, t, temp, beta),
        "intra": gl.intra_loss,
        "cma": lambda v, t, temp: gl.cma_loss(v, t, temp, alpha),
    }


def end_to_end_fd_error(seed: int, alpha: float = 0.4, h: float = 1e-6) -> float:
    """Worst relative error of the full backprop path vs central differences.

    Builds two tiny encoders, runs the blended loss on three pairs, and probes
    every weight and bias of both encoders and the log scale, scored by the
    loss checker's error rule.
    """
    rng = np.random.default_rng(seed)
    img = gl.Encoder.random(5, 6, 4, rng)
    txt = gl.Encoder.random(4, 6, 4, rng)
    x_img = rng.standard_normal((3, 5))
    x_txt = rng.standard_normal((3, 4))
    log_scale = np.array([rng.uniform(0.0, 2.0)])

    def loss_value() -> float:
        vi, _ = _forward(img, x_img)
        vt, _ = _forward(txt, x_txt)
        return gl.cma_loss(vi, vt, gl.Temperature(log_scale[0]), alpha).loss

    vi, cache_i = _forward(img, x_img)
    vt, cache_t = _forward(txt, x_txt)
    out = gl.cma_loss(vi, vt, gl.Temperature(log_scale[0]), alpha)
    analytic = [*encoder_grads(img, cache_i, out.grad_images),
                *encoder_grads(txt, cache_t, out.grad_texts), out.grad_log_scale]
    params = [p for enc in (img, txt) for p in (enc.w1, enc.b1, enc.w2, enc.b2)]
    numeric = [_numeric_gradient(loss_value, m, h) for m in (*params, log_scale)]
    return _gradient_discrepancy(analytic, numeric)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-check verdict lines after the run summary.

    The acceptance tests collect one line per check; plain prints would be
    swallowed by pytest's capture for passing tests, so they are replayed here.
    """
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None)
    if lines:
        terminalreporter.section("acceptance checks")
        for line in lines:
            terminalreporter.write_line(line)
