"""Gap decomposition and spectral diagnostics for paired embedding matrices.

One call, gap_report, splits the raw paired-cosine gap into the distance
between the two modality centroids and the residual "shape" gap left after
each modality is centered on its own mean, beside the effective ranks of the
embedding matrices and the fusion index (joint rank over mean per-modality
rank). GapReport defines each field; mean_center removes the centroid part.
The ranks' singular values come from each d x d Gram matrix when it is well
conditioned, else from Householder QR.

Typical full-scale magnitudes for an untouched pretrained dual encoder are a
raw gap around 0.7 and a distribution gap around 0.69; nothing in this module
asserts those, they are only context for reading reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (_check_products, _checked_labels, _normalize_rows, _paired_inputs,
                       _row_blocks, as_matrix)

__all__ = [
    "EmbeddingBatch",
    "GapReport",
    "mean_center",
    "gap_report",
]

_MODALITIES = ("image", "text")


@dataclass
class EmbeddingBatch:
    """One modality's embeddings: an N x d matrix plus optional integer class labels,
    the labelled input of joint_clustering_eval and interchangeability_probe."""

    vectors: np.ndarray
    labels: np.ndarray | None = None
    modality: str = "image"

    def __post_init__(self):
        self.vectors = as_matrix(self.vectors, "vectors")
        self.labels = _checked_labels(self.labels, self.vectors.shape[0])
        if self.modality not in _MODALITIES:
            raise ValueError(f"modality must be one of {_MODALITIES}, got {self.modality!r}")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass
class GapReport:
    """All gap and rank diagnostics for one image/text pair, as gap_report fills it.

    raw_gap is 1 minus the mean paired dot product (the cosine for unit rows;
    nothing is renormalized); centroid_gap is the distance between the two
    modality means. distribution_gap is 1 minus the mean paired cosine after
    each modality is shifted by its own mean and renormalized, so no shift of
    either modality by a constant vector moves it. A pair with a centered row
    of norm below 1e-12 is degenerate: left out of that mean and counted in
    degenerate_pairs; an all-degenerate batch is an error. The effective ranks
    are exp(entropy) of the normalized singular values (those below 1e-12 *
    sigma_max dropped) of the raw image, text and stacked matrices. Those
    are the square roots of the Gram's eigenvalues when cond <= 316, where
    their error is O(u cond^2) relative (the ranks stay within 3.2e-13 of an
    SVD's), and come from a Householder R factor otherwise.
    fusion_index is erank_joint over the mean per-modality rank: near 2 when
    the modalities occupy orthogonal subspaces, near 1 when they overlap.
    """

    raw_gap: float
    centroid_gap: float
    distribution_gap: float
    erank_image: float
    erank_text: float
    erank_joint: float
    fusion_index: float
    n_pairs: int
    degenerate_pairs: int

    def summary(self) -> str:
        return (
            f"raw_gap={self.raw_gap:.6f} centroid_gap={self.centroid_gap:.6f} "
            f"distribution_gap={self.distribution_gap:.6f} fusion_index={self.fusion_index:.6f}"
        )


def _raw_gap(v: np.ndarray, t: np.ndarray) -> float:
    return float(1.0 - np.einsum("ij,ij->i", v, t).mean())


def _distribution_gap(v: np.ndarray, t: np.ndarray,
                      mean_v: np.ndarray, mean_t: np.ndarray) -> tuple[float, int]:
    # Each step is per row, so blocks give the bits of the whole-matrix form
    # while only the paired cosines and the degenerate mask stay n-sized.
    n = v.shape[0]
    cos = np.empty(n)
    bad = np.empty(n, dtype=bool)
    for rows in _row_blocks(n):
        vb = v[rows] - mean_v
        tb = t[rows] - mean_t
        v_bad = _normalize_rows(vb, out=vb)[2]
        t_bad = _normalize_rows(tb, out=tb)[2]
        np.einsum("ij,ij->i", vb, tb, out=cos[rows])
        np.logical_or(v_bad, t_bad, out=bad[rows])
    n_bad = int(bad.sum())
    if n_bad == n:
        raise ValueError("all pairs are degenerate after centering")
    if n_bad:
        cos = cos[~bad]
    return float(1.0 - cos.mean()), n_bad


def _center_into(m: np.ndarray, out: np.ndarray, renormalize: bool) -> np.ndarray:
    """m minus its column mean, written into ``out`` (which may be m itself),
    then re-normalized in place by row blocks when asked."""
    np.subtract(m, m.mean(axis=0), out=out)
    if renormalize:
        for rows in _row_blocks(out.shape[0]):
            _normalize_rows(out[rows], out=out[rows])
    return out


def mean_center(v, t, renormalize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """New float64 (V, T): each shifted by -(its own centroid), rows optionally
    re-normalized; the inputs are left alone.

    The default is a pure translation, which zeroes the centroid gap while
    preserving the distribution gap exactly; renormalization re-projects rows
    to the unit sphere at the cost of that exactness. The range rule, before
    any work, covers the column sums (n entries) and, to renormalize, each
    centered row's squared norm (d squares of entries up to twice the largest).
    """
    v, t, *top = _paired_inputs(v, t)
    top = max(top)
    _check_products(v.shape[0], top, 1.0, "the batches")
    if renormalize:
        _check_products(4 * v.shape[1], top, top, "the batches")
    return _center_into(v, np.empty_like(v), renormalize), _center_into(t, np.empty_like(t), renormalize)


def _gram_sv(gram: np.ndarray) -> np.ndarray | None:
    """sqrt of a Gram's eigenvalues, descending, or None unless it is finite,
    lambda_max > 0 and lambda_min >= 1e-5 lambda_max (cond <= 316 behind it)."""
    if not np.isfinite(gram).all():
        return None
    lam = np.linalg.eigvalsh(gram)
    if lam[-1] > 0.0 and lam[0] >= 1e-5 * lam[-1]:
        return np.sqrt(lam[::-1])
    return None


def _spectrum(m: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Singular values of m, descending, with the Gram m'm they were read off
    or, when they were not, the Householder R of m (the other one is None).

    A tall m forms G = m'm once and takes its eigenvalues, kept as
    sigma = sqrt(lambda) when cond(m) <= 316 (_gram_sv). By Weyl's
    inequality the rounding of G and the backward error of eigvalsh move
    each sigma^2 by O(u) sigma_max^2, so each sigma by O(u cond(m)^2)
    relative, and every sigma kept is at least 3e-3 sigma_max, far above
    _erank's 1e-12 cutoff. Against the SVD of m, the effective rank moved by
    at most 3.2e-13 relative at cond 316 (log-spaced, one-dominant and
    two-level spectra, 16 to 160 columns). At cond 1e3 it reached 1.4e-12,
    beyond the 1e-12 the tests hold it to; hence the guard.

    A wide, rank-deficient or worse-conditioned m takes Householder QR,
    min(rows, cols) x cols, and the SVD of that R.
    """
    if m.shape[0] < 2:
        raise ValueError(f"need at least 2 rows, got {m.shape[0]}")
    if m.shape[0] >= m.shape[1]:
        with np.errstate(over="ignore", invalid="ignore"):  # _gram_sv rejects a non-finite G
            gram = m.T @ m
        sv = _gram_sv(gram)
        if sv is not None:
            return sv, gram, None
    r = np.linalg.qr(m, mode="r")
    return np.linalg.svd(r, compute_uv=False), None, r


def _erank(sv: np.ndarray) -> float:
    """exp(entropy) of descending singular values, below 1e-12 * sigma_max dropped."""
    if sv[0] <= 0.0:
        raise ValueError("all-zero matrix has no effective rank")
    sv = sv[sv >= 1e-12 * sv[0]]
    p = sv / sv.sum()
    return float(np.exp(-(p * np.log(p)).sum()))


def _ranks(v: np.ndarray, t: np.ndarray) -> tuple[float, float, float]:
    """Effective ranks of V, T and the stacked [V; T], from one spectrum per modality.

    G_v + G_t is the Gram of [V; T], and its condition number is at most the
    larger of the two modalities', so when both took the Gram path the joint
    singular values are read off its eigenvalues, under the same guard.
    Otherwise [R_v; R_t], the stacked Householder R factors, has that Gram
    and so those singular values. Neither way factors the stacked rows.
    """
    (sv_v, g_v, r_v), (sv_t, g_t, r_t) = _spectrum(v), _spectrum(t)
    with np.errstate(over="ignore"):  # _gram_sv rejects an overflowed sum
        sv_joint = None if g_v is None or g_t is None else _gram_sv(g_v + g_t)
    if sv_joint is None:
        r_v = np.linalg.qr(v, mode="r") if r_v is None else r_v
        r_t = np.linalg.qr(t, mode="r") if r_t is None else r_t
        sv_joint = np.linalg.svd(np.vstack([r_v, r_t]), compute_uv=False)
    return _erank(sv_v), _erank(sv_t), _erank(sv_joint)


def _fusion(er_v: float, er_t: float, er_joint: float) -> float:
    """Fusion index from the effective ranks of V, T and [V; T]."""
    return er_joint / (0.5 * (er_v + er_t))


def gap_report(v, t) -> GapReport:
    """Compute every gap and rank diagnostic for the paired rows of V and T.

    The inputs are validated once; each modality mean is taken once. Inputs
    whose float64 sums of products could overflow, or products underflow,
    are rejected before any work: 4 n d products of the largest entry squared
    bound every sum here (the joint Gram's trace, a centered row's norm, a column sum).
    """
    v, t, *top = _paired_inputs(v, t)
    top = max(top)
    _check_products(4 * v.size, top, top, "the batches")
    mean_v = v.mean(axis=0)
    mean_t = t.mean(axis=0)
    dist, n_bad = _distribution_gap(v, t, mean_v, mean_t)
    er_v, er_t, er_joint = _ranks(v, t)
    return GapReport(
        raw_gap=_raw_gap(v, t),
        centroid_gap=float(np.linalg.norm(mean_v - mean_t)),
        distribution_gap=dist,
        erank_image=er_v,
        erank_text=er_t,
        erank_joint=er_joint,
        fusion_index=_fusion(er_v, er_t, er_joint),
        n_pairs=v.shape[0],
        degenerate_pairs=n_bad,
    )
