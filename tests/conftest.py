"""Shared helpers for the test suite."""

import sys
import tracemalloc

import numpy as np

import gaplab as gl
from gaplab.losses import _gradient_discrepancy, _numeric_gradient


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
    every weight and bias (all views into each encoder's flat vector) and the
    log scale, scored by the loss checker's error rule.
    """
    rng = np.random.default_rng(seed)
    img = gl.Encoder.random(5, 6, 4, rng)
    txt = gl.Encoder.random(4, 6, 4, rng)
    x_img = rng.standard_normal((3, 5))
    x_txt = rng.standard_normal((3, 4))
    log_scale = np.array([rng.uniform(0.0, 2.0)])

    def loss_value() -> float:
        vi, _ = gl.encoder_forward(img, x_img)
        vt, _ = gl.encoder_forward(txt, x_txt)
        return gl.cma_loss(vi, vt, gl.Temperature(log_scale[0]), alpha).loss

    vi, cache_i = gl.encoder_forward(img, x_img)
    vt, cache_t = gl.encoder_forward(txt, x_txt)
    out = gl.cma_loss(vi, vt, gl.Temperature(log_scale[0]), alpha)
    analytic = [
        np.concatenate([g.ravel() for g in gl.encoder_backward(enc, cache, grad).values()])
        for enc, cache, grad in ((img, cache_i, out.grad_images), (txt, cache_t, out.grad_texts))
    ] + [out.grad_log_scale]
    numeric = [_numeric_gradient(loss_value, m, h) for m in (img.flat, txt.flat, log_scale)]
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
