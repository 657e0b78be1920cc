"""Exercise the loss family and prove its algebraic identities numerically.

Shows the blend hitting both parent losses exactly at its endpoints, the
attraction/repulsion split recomposing the retrieval cross-entropy, the
diagnostics that drive the schedule, and finite-difference agreement for
every analytic gradient in the module.
"""

import numpy as np

import gaplab as gl


def batch(seed, n=12, d=8):
    rng = np.random.default_rng(seed)
    v, _ = gl.l2_normalize_rows(rng.standard_normal((n, d)))
    t, _ = gl.l2_normalize_rows(0.7 * v + 0.5 * rng.standard_normal((n, d)))
    return v, t


def max_dev(a, b):
    return max(
        abs(a.loss - b.loss),
        float(np.max(np.abs(a.grad_images - b.grad_images))),
        float(np.max(np.abs(a.grad_texts - b.grad_texts))),
        abs(a.grad_log_scale - b.grad_log_scale),
    )


def main():
    v, t = batch(0)
    temp = gl.Temperature()
    print(f"batch of {v.shape[0]} pairs in {v.shape[1]}-d, scale {temp.scale:.2f}")
    print()

    # ---- blend endpoints are the parent losses, bit for bit ----
    print("blend endpoints (max deviation over loss and every gradient entry):")
    print(f"  alpha=0 vs contrastive loss: {max_dev(gl.cma_loss(v, t, temp, 0.0), gl.clip_loss(v, t, temp)):.1e}")
    print(f"  alpha=1 vs structure loss:   {max_dev(gl.cma_loss(v, t, temp, 1.0), gl.intra_loss(v, t, temp)):.1e}")
    print()

    # ---- attraction + repulsion = one cross-entropy direction ----
    split = gl.clip_loss(v, t, temp).diagnostics
    align, oppose = split["align_term"], split["oppose_term"]
    # the image-to-text cross-entropy, written out: row i's target is text i
    logits = temp.scale * (v @ t.T)
    shifted = logits - logits.max(axis=1, keepdims=True)
    i2t = float(np.mean(np.log(np.exp(shifted).sum(axis=1)) - np.diag(shifted)))
    print("attraction/repulsion split of the image-to-text direction:")
    print(f"  attraction {align:+.6f}  repulsion {oppose:+.6f}  sum {align + oppose:.6f}")
    print(f"  cross-entropy direct                            {i2t:.6f}")
    print(f"  residual {abs(align + oppose - i2t):.2e}")
    print()

    # ---- what the blend reports as alpha moves ----
    print("blend diagnostics across alpha (these drive the schedule):")
    print(f"  {'alpha':>5}  {'loss':>9}  {'rw_term':>9}  {'intra_term':>10}  {'|g_rw|/|g_intra|':>16}")
    for alpha in (0.0, 0.2, 0.5, 0.8, 1.0):
        out = gl.cma_loss(v, t, temp, alpha)
        d = out.diagnostics
        ratio = d["grad_norm_rw"] / d["grad_norm_intra"]
        print(f"  {alpha:5.2f}  {out.loss:9.5f}  {d['rw_term']:9.5f}  "
              f"{d['intra_term']:10.5f}  {ratio:16.3f}")
    print()

    # ---- every analytic gradient vs central differences ----
    losses = {
        "clip": gl.clip_loss,
        "reweighted": lambda vv, tt, tmp: gl.reweighted_loss(vv, tt, tmp, 0.03),
        "intra": gl.intra_loss,
        "cma": lambda vv, tt, tmp: gl.cma_loss(vv, tt, tmp, 0.4),
    }
    print("finite-difference check, worst relative error over V, T and log_scale:")
    for name, loss in losses.items():
        worst = max(
            gl.finite_diff_check(loss, *batch(seed, n=5, d=4), gl.Temperature(1.3), h=1e-4)
            for seed in range(10)
        )
        print(f"  {name:11s} {worst:.2e}")
    print()

    # ---- sanity: corrupt a gradient and the checker notices ----
    def tampered(vv, tt, tmp):
        out = gl.clip_loss(vv, tt, tmp)
        out.grad_images = out.grad_images * 1.01
        return out

    honest = gl.finite_diff_check(gl.clip_loss, v, t, temp)
    broken = gl.finite_diff_check(tampered, v, t, temp)
    print(f"tamper test: honest gradients {honest:.1e}, scaled by 1.01 -> {broken:.1e}")

if __name__ == "__main__":
    main()
