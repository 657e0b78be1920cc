"""Shared helpers for the test suite."""

import sys
import tracemalloc

import numpy as np

import gaplab as gl


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


def end_to_end_fd_error(seed: int, alpha: float = 0.4, h: float = 1e-6) -> float:
    """Worst relative error of the full backprop path vs central differences.

    Builds two tiny encoders, runs the blended loss on three pairs, and probes
    every weight, bias, and the log scale. Entries are skipped when the
    absolute difference is under 1e-10 or both magnitudes are under 1e-12.
    """
    rng = np.random.default_rng(seed)
    img = gl.Encoder.random(5, 6, 4, rng)
    txt = gl.Encoder.random(4, 6, 4, rng)
    x_img = rng.standard_normal((3, 5))
    x_txt = rng.standard_normal((3, 4))
    log_scale = float(rng.uniform(0.0, 2.0))

    def loss_value(log_s: float) -> float:
        vi, _ = gl.encoder_forward(img, x_img)
        vt, _ = gl.encoder_forward(txt, x_txt)
        return gl.cma_loss(vi, vt, gl.Temperature(log_s), alpha).loss

    vi, cache_i = gl.encoder_forward(img, x_img)
    vt, cache_t = gl.encoder_forward(txt, x_txt)
    out = gl.cma_loss(vi, vt, gl.Temperature(log_scale), alpha)
    grads = {
        "img": gl.encoder_backward(img, cache_i, out.grad_images),
        "txt": gl.encoder_backward(txt, cache_t, out.grad_texts),
    }

    def rel(a: float, n: float) -> float:
        d = abs(a - n)
        if d < 1e-10 or max(abs(a), abs(n)) < 1e-12:
            return 0.0
        return d / max(abs(a), abs(n))

    worst = 0.0
    for which, enc in (("img", img), ("txt", txt)):
        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(enc, name)
            g = grads[which][name]
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + h
                hi = loss_value(log_scale)
                arr[idx] = orig - h
                lo = loss_value(log_scale)
                arr[idx] = orig
                worst = max(worst, rel(g[idx], (hi - lo) / (2.0 * h)))
    numeric = (loss_value(log_scale + h) - loss_value(log_scale - h)) / (2.0 * h)
    return max(worst, rel(out.grad_log_scale, numeric))


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
