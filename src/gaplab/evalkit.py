"""Evaluation suite: joint clustering, retrieval, the text-to-image linear
probe, and least-squares trend fitting.

Everything here is deterministic: clustering takes an explicit seed, retrieval
ties break toward the lower index, and the probe is a closed-form ridge
system. The probe is the interchangeability measure: a classifier fit only on
text embeddings scored only on image embeddings, so its accuracy tracks how
freely one modality substitutes for the other.

Joint clustering pools the two modalities without a stacked copy: its
private k-means, _kmeans, reads the points as row parts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import comb, log

import numpy as np

from .geometry import _BLOCK_ROWS, EmbeddingBatch
from .numerics import _paired_inputs

__all__ = [
    "ClusterReport",
    "SweepRecord",
    "SWEEP_FIELDS",
    "adjusted_rand_index",
    "v_measure",
    "joint_clustering_eval",
    "recall_at_k",
    "interchangeability_probe",
    "linear_fit_r2",
]


@dataclass
class ClusterReport:
    v_measure: float
    ari: float
    k: int
    n_points: int
    inertia: float


@dataclass
class SweepRecord:
    """Final eval-split metrics of one trained model. Field order is the CSV
    column order."""

    alpha_target: float
    raw_gap: float
    centroid_gap: float
    distribution_gap: float
    ari: float
    v_measure: float
    i2t_r1: float
    t2i_r1: float
    probe_accuracy: float
    erank_image: float
    erank_text: float
    fusion_index: float


SWEEP_FIELDS = tuple(f.name for f in fields(SweepRecord))


def _squared_distances(parts, bounds, point_sq: np.ndarray, centers: np.ndarray,
                       out=None) -> np.ndarray:
    """||p - c||^2 by the expanded form over the rows of all parts, into
    ``out`` when given; ``point_sq`` is (points**2).sum(axis=1).

    The steps run in place on the product, in the order of the plain formula
    point_sq - 2 (points @ centers.T) + |c|^2: negating the doubled product
    and adding point_sq gives the bits of the subtraction, and scaling by 2 is
    exact. So the only n x k array is the result; each part fills its rows.
    """
    d2 = np.empty((point_sq.size, centers.shape[0])) if out is None else out
    for part, lo, hi in zip(parts, bounds, bounds[1:]):
        np.matmul(centers, part.T, out=d2[lo:hi].T)
    d2 *= -2.0
    d2 += point_sq[:, None]
    d2 += (centers**2).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def _row(parts, bounds: np.ndarray, i) -> np.ndarray:
    """Row i of the parts stacked; part p holds rows bounds[p]:bounds[p + 1]."""
    p = int(np.searchsorted(bounds, i, side="right")) - 1
    return parts[p][i - bounds[p]]


def _cluster_mean(parts, bounds: np.ndarray, rows: np.ndarray, block: np.ndarray) -> np.ndarray:
    """points[rows].mean(axis=0) of the parts stacked, for sorted global rows,
    gathering at most _BLOCK_ROWS rows at a time into block, a
    (_BLOCK_ROWS + 1) x d scratch array.

    NumPy sums a C-contiguous block over axis 0 row by row, in order, so each
    block after the first carries the running total as its leading row: the
    additions, and the bits, are those of the one-shot mean.
    """
    lead = 0
    for lo in range(0, rows.size, _BLOCK_ROWS):
        idx = rows[lo:lo + _BLOCK_ROWS]
        cuts = np.searchsorted(idx, bounds)
        for part, start, a, b in zip(parts, bounds, cuts, cuts[1:]):
            # mode="raise" would gather into a temporary first
            np.take(part, idx[a:b] - start, axis=0, out=block[lead + a:lead + b], mode="clip")
        block[0] = block[:lead + idx.size].sum(axis=0)
        lead = 1
    return block[0] / rows.size


def _kmeans(parts, k: int, seed: int) -> tuple[np.ndarray, float]:
    """Seeded k-means++ and Lloyd iterations, beside one n x k distance buffer,
    over the rows of a tuple of 2-D float64 arrays stacked only logically: the
    bits are those of (np.vstack(parts),). Stops when every centroid moves
    less than 1e-6 or after 100 iterations. An emptied cluster is re-seeded
    with the point farthest from its own centroid (lowest index on ties).
    Returns (labels, inertia)."""
    bounds = np.cumsum([0] + [part.shape[0] for part in parts])
    n = int(bounds[-1])
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    point_sq = np.empty(n)
    for part, start, stop in zip(parts, bounds, bounds[1:]):
        for lo in range(start, stop, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, stop)
            point_sq[lo:hi] = (part[lo - start:hi - start] ** 2).sum(axis=1)

    centers = np.empty((k, parts[0].shape[1]))
    centers[0] = _row(parts, bounds, rng.integers(n))
    d2 = _squared_distances(parts, bounds, point_sq, centers[:1]).ravel()
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[j] = _row(parts, bounds, idx)
        d2 = np.minimum(d2, _squared_distances(parts, bounds, point_sq, centers[j:j + 1]).ravel())

    labels = None  # those the centers are the means of; None: recompute every mean
    dist = np.empty((n, k))  # reused by every distance pass below
    for _ in range(100):
        _squared_distances(parts, bounds, point_sq, centers, out=dist)
        new_labels = dist.argmin(axis=1)
        new_centers = centers.copy()
        stale = np.ones(k, dtype=bool)
        if labels is not None:  # a mean over the same rows keeps its bits
            moved = new_labels != labels
            stale[:] = False
            stale[labels[moved]] = stale[new_labels[moved]] = True
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        block = np.empty((_BLOCK_ROWS + 1, centers.shape[1]))  # serves every mean below
        for c in np.flatnonzero(stale & (counts > 0)):
            new_centers[c] = _cluster_mean(parts, bounds, np.flatnonzero(labels == c), block)
        del block  # the distance pass and the steals stay under the gathers' peak
        for c in np.flatnonzero(counts == 0):
            own = dist[np.arange(n), labels]
            # steal the globally worst-fit point
            worst = int(own.argmax())
            new_centers[c] = _row(parts, bounds, worst)
            labels[worst] = c
            dist[worst] = 0.0
        if counts.min() == 0:
            labels = None
        shift = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if shift < 1e-6:
            break

    _squared_distances(parts, bounds, point_sq, centers, out=dist)
    labels = dist.argmin(axis=1)
    inertia = float(dist[np.arange(n), labels].sum())
    return labels, inertia


def _check_labelings(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.shape[0] != truth.shape[0]:
        raise ValueError(f"labelings differ in length: {pred.shape[0]} vs {truth.shape[0]}")
    if pred.shape[0] < 2:
        raise ValueError("need at least 2 points")
    return pred, truth


def _contingency(pred, truth) -> np.ndarray:
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def adjusted_rand_index(pred, truth) -> float:
    """Chance-corrected pair-counting agreement between two labelings.

    Evaluated in exact integer arithmetic; the degenerate case where the
    expected and maximum index coincide (e.g. both labelings trivial) is 1.
    """
    pred, truth = _check_labelings(pred, truth)
    table = _contingency(pred, truth)
    n = int(table.sum())

    sum_cells = sum(comb(int(x), 2) for x in table.ravel())
    sum_rows = sum(comb(int(x), 2) for x in table.sum(axis=1))
    sum_cols = sum(comb(int(x), 2) for x in table.sum(axis=0))
    pairs = comb(n, 2)

    # ARI = (sum_cells - sum_rows*sum_cols/pairs) / ((sum_rows+sum_cols)/2 - sum_rows*sum_cols/pairs)
    # scaled by 2*pairs to stay in integers
    numer = 2 * (pairs * sum_cells - sum_rows * sum_cols)
    denom = pairs * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if denom == 0:
        return 1.0
    return numer / denom


def v_measure(pred, truth) -> float:
    """Harmonic mean of homogeneity and completeness from contingency entropies.

    Conventions: 0*log(0) = 0; a zero marginal entropy makes that side's score
    1 (nothing left to violate); if homogeneity and completeness are both 0
    the harmonic mean is 0.
    """
    pred, truth = _check_labelings(pred, truth)
    table = _contingency(pred, truth).astype(np.float64)
    n = table.sum()
    rows, cols = table.sum(axis=1), table.sum(axis=0)  # pred, truth marginal counts
    p_cluster = rows / n
    p_class = cols / n

    def entropy(p) -> float:
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    h_class = entropy(p_class)
    h_cluster = entropy(p_cluster)

    # H(truth | pred) and H(pred | truth) over the nonzero cells, row-major; the
    # marginals are integer counts, exact in any order of summation
    h_class_given = 0.0
    h_cluster_given = 0.0
    for i, j in zip(*np.nonzero(table)):
        nij = table[i, j]
        h_class_given -= (nij / n) * log(nij / rows[i])
        h_cluster_given -= (nij / n) * log(nij / cols[j])

    homogeneity = 1.0 if h_class == 0 else 1.0 - h_class_given / h_class
    completeness = 1.0 if h_cluster == 0 else 1.0 - h_cluster_given / h_cluster
    if homogeneity + completeness == 0.0:
        return 0.0
    return 2.0 * homogeneity * completeness / (homogeneity + completeness)


def joint_clustering_eval(images: EmbeddingBatch, texts: EmbeddingBatch,
                          seed: int = 0) -> ClusterReport:
    """Pool both modalities into one point set, cluster, and score against the
    duplicated class labels. Each embedding contributes one point; the batches
    may differ in size but not in dimension, and are never stacked. k is the
    number of distinct labels over both batches, and must be at least 2."""
    if images.labels is None or texts.labels is None:
        raise ValueError("both batches need labels for clustering evaluation")
    if images.dim != texts.dim:
        raise ValueError(f"images are {images.dim}-d but texts are {texts.dim}-d")
    truth = np.concatenate([images.labels, texts.labels])
    k = int(np.unique(truth).size)
    if k < 2:
        raise ValueError("need at least 2 clusters")
    labels, inertia = _kmeans((images.vectors, texts.vectors), k, seed)
    return ClusterReport(
        v_measure=v_measure(labels, truth),
        ari=adjusted_rand_index(labels, truth),
        k=k,
        n_points=truth.size,
        inertia=inertia,
    )


# Image rows scored per block in recall_at_k: a block's scores are
# _RECALL_BLOCK_ROWS x n float64, so memory is O(n), not O(n^2).
_RECALL_BLOCK_ROWS = 256


def _recall_hits(v: np.ndarray, t: np.ndarray, k: int) -> tuple[int, int]:
    """Image and text queries whose partner (same index) ranks in the top k.

    One GEMM S = v[block] @ t.T per block of image rows serves both
    directions: its rows rank texts for each image query, and its columns
    add each text query's counts over that block of images. Rank is 1 plus
    the competitors scoring strictly higher, plus the equal ones at a lower
    index, so a competitor at a lower index counts when its score is >= the
    partner's and one at a higher index when it is >. The partner's own entry
    is never counted, so it cannot outrank itself.

    An image query's partner score is the diagonal entry of its own row of S,
    as are its competitors. A text query's column spans every block, so its
    partner score comes from a pre-pass over the diagonal blocks; exact ties
    there assume that the BLAS computes a dot product the same way whatever
    the shape of the product it sits in.
    """
    n = v.shape[0]
    b = _RECALL_BLOCK_ROWS
    own = np.empty(n)
    for lo in range(0, n, b):
        own[lo:lo + b] = np.diagonal(v[lo:lo + b] @ t[lo:lo + b].T)
    i2t_rank = np.ones(n, dtype=np.int64)
    t2i_rank = np.ones(n, dtype=np.int64)
    for lo in range(0, n, b):
        hi = min(lo + b, n)
        scores = v[lo:hi] @ t.T
        own_rows = np.diagonal(scores[:, lo:hi])[:, None]
        # texts before the block (lower index than every image query here)
        left = scores[:, :lo]
        i2t_rank[lo:hi] += np.count_nonzero(left >= own_rows, axis=1)
        t2i_rank[:lo] += np.count_nonzero(left > own[:lo], axis=0)
        # texts after the block (higher index than every image query here)
        right = scores[:, hi:]
        i2t_rank[lo:hi] += np.count_nonzero(right > own_rows, axis=1)
        t2i_rank[hi:] += np.count_nonzero(right >= own[hi:], axis=0)
        # the diagonal square: row r is image lo + r, column c is text lo + c
        square = scores[:, lo:hi]
        below = np.tri(hi - lo, k=-1, dtype=bool)  # c < r
        above = below.T                             # c > r
        i2t_rank[lo:hi] += np.count_nonzero(
            (square >= own_rows) & below | (square > own_rows) & above, axis=1)
        own_cols = own[lo:hi]
        t2i_rank[lo:hi] += np.count_nonzero(
            (square >= own_cols) & above | (square > own_cols) & below, axis=0)
    return int(np.count_nonzero(i2t_rank <= k)), int(np.count_nonzero(t2i_rank <= k))


def recall_at_k(v, t, k: int) -> tuple[float, float]:
    """Fraction of queries whose true partner ranks in the top k by dot product.

    The dot product is the cosine only for unit-norm rows; no normalization
    is applied here. Both directions are returned (image-to-text,
    text-to-image). A competitor with a score equal to the true partner's
    outranks it only at a lower index, so results carry no platform sort
    ambiguity. Scores are computed in blocks of image rows, one product
    serving both directions, so memory grows linearly in n.
    """
    v, t = _paired_inputs(v, t)
    n = v.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    i2t, t2i = _recall_hits(v, t, k)
    return i2t / n, t2i / n


def interchangeability_probe(train_texts: EmbeddingBatch, test_images: EmbeddingBatch) -> float:
    """Accuracy of a ridge one-vs-all classifier fit on texts, scored on images.

    The ridge strength is 1e-2 times the mean diagonal of the text Gram
    matrix, so it is scale-free. Ties in the class scores resolve to the
    first class in sorted label order.
    """
    if train_texts.labels is None or test_images.labels is None:
        raise ValueError("both batches need labels for the probe")
    x = train_texts.vectors
    classes = np.unique(train_texts.labels)
    if classes.size < 2:
        raise ValueError("probe needs at least 2 classes")
    if not np.isin(test_images.labels, classes).all():
        raise ValueError("test labels contain classes absent from the training labels")

    onehot = (train_texts.labels[:, None] == classes[None, :]).astype(np.float64)
    gram = x.T @ x
    lam = 1e-2 * float(np.diag(gram).mean())
    weights = np.linalg.solve(gram + lam * np.eye(x.shape[1]), x.T @ onehot)

    scores = test_images.vectors @ weights
    pred = classes[scores.argmax(axis=1)]
    return float((pred == test_images.labels).mean())


def linear_fit_r2(x, y) -> tuple[float, float, float]:
    """Ordinary least squares of y on x: (slope, intercept, r_squared).

    Constant x is an error (no slope is identified); constant y fits slope 0
    with r_squared defined as 0. A NaN or infinite entry is an error.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y must have equal length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    if x.shape[0] < 3:
        raise ValueError("need at least 3 points")
    if np.ptp(x) == 0.0:
        raise ValueError("x is constant; the slope is not identified")

    xm = x - x.mean()
    ym = y - y.mean()
    slope = float((xm * ym).sum() / (xm * xm).sum())
    intercept = float(y.mean() - slope * x.mean())
    ss_tot = float((ym * ym).sum())
    if ss_tot == 0.0:
        return 0.0, float(y.mean()), 0.0
    residual = y - (slope * x + intercept)
    r_squared = 1.0 - float((residual * residual).sum()) / ss_tot
    return slope, intercept, r_squared
