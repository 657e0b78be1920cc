"""Pull a paired embedding set apart into its three gap numbers.

Builds two synthetic unit-vector clouds whose separation we control exactly,
then shows what each gap statistic of one gap_report sees: the raw alignment
deficit, the centroid offset, and the shape mismatch that survives centering.
Ends with the spectral side: effective ranks and the fusion index.
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

    report = gl.gap_report(images, texts)
    raw, dist = report.raw_gap, report.distribution_gap
    print("same cloud, shoved 0.9 along axis 0 and re-normalized:")
    print(f"  raw_gap           {raw:8.4f}   (1 - mean paired dot)")
    print(f"  centroid_gap      {report.centroid_gap:8.4f}   (distance between the two means)")
    print(f"  distribution_gap  {dist:8.4f}   (misalignment left after centering, "
          f"{report.degenerate_pairs} degenerate pairs)")
    print("  -> almost everything here is centroid offset, as constructed")
    print()

    # ---- translation blindness of the distribution gap ----
    print("translating either cloud changes raw/centroid but not distribution:")
    for label, dv, dt in (("images +3.0", 3.0, 0.0), ("texts -5.0", 0.0, -5.0)):
        shift_v = images + dv * rng.standard_normal(d)
        shift_t = texts + dt * rng.standard_normal(d)
        shifted = gl.gap_report(shift_v, shift_t)
        print(f"  {label:12s} raw_gap {shifted.raw_gap:9.4f}   "
              f"distribution_gap {shifted.distribution_gap:.12f}")
    print(f"  untouched    raw_gap {raw:9.4f}   distribution_gap {dist:.12f}")
    print()

    # ---- centering removes exactly the centroid part ----
    centered = gl.gap_report(*gl.mean_center(images, texts))
    print("after mean_center:")
    print(f"  centroid_gap      {centered.centroid_gap:.2e}  (gone)")
    print(f"  distribution_gap  {centered.distribution_gap:.12f}  (unchanged)")
    print()

    # ---- a genuinely misshapen pair: rotated copy ----
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    rotated = base @ q
    dist_rot = gl.gap_report(base, rotated).distribution_gap
    print(f"same cloud under a random rotation: distribution_gap {dist_rot:.4f}")
    print("  no translation can fix this one")
    print()

    # ---- spectral view: do the modalities share a subspace? ----
    half = d // 2
    lhs = np.hstack([cloud(rng, n, half), np.zeros((n, half))])
    rhs = np.hstack([np.zeros((n, half)), cloud(rng, n, half)])
    shared = cloud(rng, n, d)
    print("effective rank and fusion index:")
    disjoint = gl.gap_report(lhs, rhs)
    same = gl.gap_report(shared, shared)
    print(f"  disjoint subspaces: erank L {disjoint.erank_image:5.2f}, "
          f"R {disjoint.erank_text:5.2f}, fusion {disjoint.fusion_index:.3f}  (~2)")
    print(f"  identical clouds:   erank   {same.erank_image:5.2f}, "
          f"fusion {same.fusion_index:.3f}  (=1)")
    print()

    # ---- the whole report ----
    print("gap_report on the shoved pair:")
    print(json.dumps(asdict(report)))
    print()
    print(report.summary())


if __name__ == "__main__":
    main()
