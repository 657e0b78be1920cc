"""Pull a paired embedding set apart into its three gap numbers.

Builds two synthetic unit-vector clouds whose separation we control exactly,
then shows what each gap statistic sees: the raw alignment deficit, the
centroid offset, and the shape mismatch that survives centering. Ends with
the spectral side: effective ranks and the fusion index.
"""

import json
from dataclasses import asdict

import numpy as np

import gaplab as gl


def cloud(rng, n, d):
    v, _ = gl.l2_normalize_rows(rng.standard_normal((n, d)))
    return v


def main():
    rng = np.random.default_rng(7)
    n, d = 400, 16

    # ---- a controlled pair: same cloud, pushed apart along one axis ----
    base = cloud(rng, n, d)
    offset = np.zeros(d)
    offset[0] = 0.9
    images = base
    texts, _ = gl.l2_normalize_rows(base + offset)

    raw = gl.raw_gap(images, texts)
    cen = gl.centroid_gap(images, texts)
    dist, skipped = gl.distribution_gap(images, texts)
    print("same cloud, shoved 0.9 along axis 0 and re-normalized:")
    print(f"  raw_gap           {raw:8.4f}   (1 - mean paired dot)")
    print(f"  centroid_gap      {cen:8.4f}   (distance between the two means)")
    print(f"  distribution_gap  {dist:8.4f}   (misalignment left after centering, "
          f"{skipped} degenerate pairs)")
    print("  -> almost everything here is centroid offset, as constructed")
    print()

    # ---- translation blindness of the distribution gap ----
    print("translating either cloud changes raw/centroid but not distribution:")
    for label, dv, dt in (("images +3.0", 3.0, 0.0), ("texts -5.0", 0.0, -5.0)):
        shift_v = images + dv * rng.standard_normal(d)
        shift_t = texts + dt * rng.standard_normal(d)
        r = gl.raw_gap(shift_v, shift_t)
        g, _ = gl.distribution_gap(shift_v, shift_t)
        print(f"  {label:12s} raw_gap {r:9.4f}   distribution_gap {g:.12f}")
    print(f"  untouched    raw_gap {raw:9.4f}   distribution_gap {dist:.12f}")
    print()

    # ---- centering removes exactly the centroid part ----
    cv, ct = gl.mean_center(images, texts)
    print("after mean_center:")
    print(f"  centroid_gap      {gl.centroid_gap(cv, ct):.2e}  (gone)")
    print(f"  distribution_gap  {gl.distribution_gap(cv, ct)[0]:.12f}  (unchanged)")
    print()

    # ---- a genuinely misshapen pair: rotated copy ----
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    rotated = base @ q
    dist_rot, _ = gl.distribution_gap(base, rotated)
    print(f"same cloud under a random rotation: distribution_gap {dist_rot:.4f}")
    print("  no translation can fix this one")
    print()

    # ---- spectral view: do the modalities share a subspace? ----
    half = d // 2
    lhs = np.hstack([cloud(rng, n, half), np.zeros((n, half))])
    rhs = np.hstack([np.zeros((n, half)), cloud(rng, n, half)])
    shared = cloud(rng, n, d)
    print("effective rank and fusion index:")
    print(f"  disjoint subspaces: erank L {gl.effective_rank(lhs):5.2f}, "
          f"R {gl.effective_rank(rhs):5.2f}, fusion {gl.fusion_index(lhs, rhs):.3f}  (~2)")
    print(f"  identical clouds:   erank   {gl.effective_rank(shared):5.2f}, "
          f"fusion {gl.fusion_index(shared, shared):.3f}  (=1)")
    print()

    # ---- the one-call summary ----
    report = gl.gap_report(
        gl.EmbeddingBatch(images), gl.EmbeddingBatch(texts, modality="text"))
    print("gap_report on the shoved pair:")
    print(json.dumps(asdict(report)))
    print()
    print(report.summary())


if __name__ == "__main__":
    main()
