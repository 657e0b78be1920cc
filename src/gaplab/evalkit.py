"""Evaluation suite: joint clustering, retrieval, the text-to-image linear
probe, and least-squares trend fitting.

Everything here is deterministic: clustering takes an explicit seed, retrieval
ties break toward the lower index, and the probe is a closed-form ridge
system. Recall@1 ranks by float64 scores but computes them in float32
wherever a proven rounding margin settles the query. The probe is the interchangeability measure: a classifier fit only on
text embeddings scored only on image embeddings, so its accuracy tracks how
freely one modality substitutes for the other.

Joint clustering pools the two modalities without a stacked copy: its
private k-means, _kmeans, reads the points as row parts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import comb, frexp, ldexp, log

import numpy as np

from . import numerics
from .geometry import EmbeddingBatch
from .numerics import (_TINY32, _TINY64, _U32, _U64, _check_products, _checked_matrix, _paired_inputs,
                       _row_blocks, _scalar)

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
    """||p - c||^2 by the expanded form, centroid-major: a k x n array with
    one row per centroid and one column per row of all parts, into ``out``
    when given; ``point_sq`` is (points**2).sum(axis=1).

    The steps run in place on the product, in the order of the plain formula
    point_sq - 2 (centers @ points.T) + |c|^2: negating the doubled product
    and adding point_sq gives the bits of the subtraction, and scaling by 2 is
    exact. So the only k x n array is the result; each part fills its columns.
    This (k x d)(d x n) order keeps OpenBLAS off the 8 MB packing buffer of
    its threaded (n x d)(d x k) product (n = 4,096, d = 512).
    """
    d2 = np.empty((centers.shape[0], point_sq.size)) if out is None else out
    for part, lo, hi in zip(parts, bounds, bounds[1:]):
        np.matmul(centers, part.T, out=d2[:, lo:hi])
    d2 *= -2.0
    d2 += point_sq[None, :]
    d2 += (centers**2).sum(axis=1)[:, None]
    return np.maximum(d2, 0.0, out=d2)


def _row(parts, bounds: np.ndarray, i) -> np.ndarray:
    """Row i of the parts stacked; part p holds rows bounds[p]:bounds[p + 1]."""
    p = int(np.searchsorted(bounds, i, side="right")) - 1
    return parts[p][i - bounds[p]]


def _cluster_mean(parts, bounds: np.ndarray, rows: np.ndarray, block: np.ndarray) -> np.ndarray:
    """points[rows].mean(axis=0) of the parts stacked, for sorted global rows,
    gathering one row block at a time into block, a (numerics._BLOCK_ROWS + 1)
    x d scratch array.

    NumPy sums a C-contiguous block over axis 0 row by row, in order, so each
    block after the first carries the running total as its leading row: the
    additions, and the bits, are those of the one-shot mean.
    """
    lead = 0
    for span in _row_blocks(rows.size):
        idx = rows[span]
        cuts = np.searchsorted(idx, bounds)
        for part, start, a, b in zip(parts, bounds, cuts, cuts[1:]):
            # mode="raise" would gather into a temporary first
            np.take(part, idx[a:b] - start, axis=0, out=block[lead + a:lead + b], mode="clip")
        block[0] = block[:lead + idx.size].sum(axis=0)
        lead = 1
    return block[0] / rows.size


def _kmeans(parts, k: int, seed: int) -> tuple[np.ndarray, float]:
    """Seeded k-means++ and Lloyd iterations, beside one k x n distance buffer,
    over the rows of a tuple of 2-D float64 arrays stacked only logically: the
    bits are those of (np.vstack(parts),). Stops when no centroid moves more
    than 1e-6 times the largest point norm, or after 100 iterations. An
    emptied cluster is re-seeded with the point farthest from its own
    centroid (lowest index on ties). Returns (labels, inertia)."""
    bounds = np.cumsum([0] + [part.shape[0] for part in parts])
    n = int(bounds[-1])
    k = _scalar(k, "k", integer=True, low=1, high=n)
    rng = np.random.default_rng(seed)
    point_sq = np.empty(n)
    for part, start in zip(parts, bounds):
        for rows in _row_blocks(part.shape[0]):
            point_sq[start:][rows] = (part[rows] ** 2).sum(axis=1)

    tol = 1e-6 * np.sqrt(point_sq.max())
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
    dist = np.empty((k, n))  # reused by every distance pass below
    for _ in range(100):
        _squared_distances(parts, bounds, point_sq, centers, out=dist)
        new_labels = dist.argmin(axis=0)
        new_centers = centers.copy()
        stale = np.ones(k, dtype=bool)
        if labels is not None:  # a mean over the same rows keeps its bits
            moved = new_labels != labels
            stale[:] = False
            stale[labels[moved]] = stale[new_labels[moved]] = True
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        block = np.empty((numerics._BLOCK_ROWS + 1, centers.shape[1]))  # serves every mean below
        for c in np.flatnonzero(stale & (counts > 0)):
            new_centers[c] = _cluster_mean(parts, bounds, np.flatnonzero(labels == c), block)
        del block  # the distance pass and the steals stay under the gathers' peak
        for c in np.flatnonzero(counts == 0):
            own = dist[labels, np.arange(n)]
            # steal the globally worst-fit point
            worst = int(own.argmax())
            new_centers[c] = _row(parts, bounds, worst)
            labels[worst] = c
            dist[:, worst] = 0.0
        if counts.min() == 0:
            labels = None
        shift = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if shift <= tol:
            break

    _squared_distances(parts, bounds, point_sq, centers, out=dist)
    labels = dist.argmin(axis=0)
    inertia = float(dist[labels, np.arange(n)].sum())
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
    number of distinct labels over both batches, at least 2; seed seeds k-means.

    Points whose float64 sums could overflow, or products underflow, are
    rejected before any work: a squared distance is at most 4 d m^2 for entries
    up to m (centroids' too), and the seeding and the inertia sum one per point."""
    seed = _scalar(seed, "seed", integer=True, low=0)
    if images.labels is None or texts.labels is None:
        raise ValueError("both batches need labels for clustering evaluation")
    if images.dim != texts.dim:
        raise ValueError(f"images are {images.dim}-d but texts are {texts.dim}-d")
    top = max(_checked_matrix(b.vectors, "points")[1] for b in (images, texts))
    _check_products(4 * (images.n + texts.n) * images.dim, top, top, "the batches")
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


def _gamma(m: int, u: float) -> float:
    """Higham's gamma_m = m u / (1 - m u)."""
    return m * u / (1.0 - m * u)


def _screened_hits(v: np.ndarray, t: np.ndarray, top: tuple[float, float]) -> tuple[int, int]:
    """recall_at_k's hits at k = 1 (image queries, text queries), from float32
    scores plus a float64 rescoring of the queries they cannot settle. top is
    (max |v|, max |t|).

    Scaling. x = 2^a v_i and y = 2^b t_j, with 2^a and 2^b the powers of two
    that bring max |v| and max |t| into [1/2, 1), or below it when the
    scale would pass 2^1000 (an all-subnormal input). So every |x_k| and
    |y_k| is below 1 and no float32 cast or product overflows. In real
    arithmetic x.y = 2^(a+b) v_i.t_j, so ranking by one is ranking by the
    other, and the float64 ranks are left as they are.

    Bound. Let s = x.y, s32 its float32 score from copies rounded to float32,
    and s64 = 2^(a+b) fl64(v_i.t_j) for any float64 dot product of v_i and
    t_j, such as the rescoring's below. With unit roundoffs u32 = 2^-24 and
    u64 = 2^-53, gamma_m = m u / (1 - m u), and the smallest normal numbers
    tiny32 and tiny64:
    - rounding x and y to float32 moves each product x_k y_k by a factor
      (1 + u32)^2, and the float32 dot product of d terms adds gamma_d
      (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      section 3.1; Jeannerod & Rump 2013 give d u). Since
      (1 + u)^2 (1 + gamma_d) <= 1 + gamma_(d+2) (Higham, Lemma 3.3),
      |s32 - s| <= gamma32_(d+2) sum_k |x_k y_k|;
    - |s64 - s| <= gamma64_d sum_k |x_k y_k|;
    - underflow, gradual or flushed to zero, adds at most tiny per rounded
      input (times the other factor, below 1), product and sum, and later
      sums grow it by at most 1 + gamma_d < 2: below 8 d tiny32 for s32
      (2d inputs, d products, d - 1 sums) and 8 d 2^(a+b) tiny64 for s64.
      This absolute term A covers rows whose float32 copies underflow, and
      inputs so small that their float64 products underflow.
    By Cauchy-Schwarz, sum_k |x_k y_k| <= |x| |y|. The norms, taken in
    float64, are within (d/2 + 2) u64 relative of the true ones (and, where
    squares underflow, short by far less than A); the 1% slack in
    c = 1.01 (gamma32_(d+2) + gamma64_d) covers that and the rounding of the
    margin and of P - C below. So |s32 - s64| <= c |x_i| |y_j| + A for
    every pair.

    Screen. The texts are cast to float32 one tile of 8 blocks at a time,
    and each block of image rows is scored against the tile in one float32
    product. Where the block's rows meet the tile's, the diagonal gives each
    pair's partner score P, which is then masked to -inf; running maxima of
    each image row and each text column, over all tiles, give the best
    competitor C of either query, so no pre-pass is needed. The order of the
    dot products does not enter the bound. An image query i is a hit when
    P - C > c |x_i| (|y_i| + max_j |y_j|) + 2A: then its partner's float64
    score beats every competitor's strictly, under any tie rule. It is a
    miss when C - P exceeds the same margin, and text queries mirror this.
    The rest, a handful in a few thousand on unit-norm dumps, are scored
    again in float64 by _ranked_hits, under the tie rule. A query's partner
    and competitors sit in one row of one product there, so an exact float64
    tie assumes only that the BLAS computes equal dot products in one row
    alike. Memory is one float32 tile of T, one float32 block of V and one
    256 x 2,048 float32 score block (6.8 MB at d = 512) beside 28 bytes a
    row; a whole float32 T and a 256 x n block took 61 MB at n = 20,000.
    """
    n, d = v.shape
    exp_v, exp_t = (min(1000, -frexp(m)[1]) for m in top)
    c = 1.01 * (_gamma(d + 2, _U32) + _gamma(d, _U64))
    floor = 8 * d * (_TINY32 + ldexp(_TINY64, exp_v + exp_t))  # A

    v_norm, t_norm = np.empty(n), np.empty(n)
    for m, e, norm in ((v, exp_v, v_norm), (t, exp_t, t_norm)):
        for rows in _row_blocks(n):
            x = np.ldexp(m[rows], e)
            norm[rows] = np.sqrt(np.einsum("ij,ij->i", x, x))
    del x  # the tiles' float32 buffers take its place
    own = np.empty(n, dtype=np.float32)
    row_best = np.full(n, -np.inf, dtype=np.float32)
    col_best = np.full(n, -np.inf, dtype=np.float32)
    tile = 8 * numerics._BLOCK_ROWS  # text rows per float32 tile
    x32 = np.empty((min(numerics._BLOCK_ROWS, n), d), dtype=np.float32)
    y32 = np.empty((min(tile, n), d), dtype=np.float32)
    block = np.empty((x32.shape[0], y32.shape[0]), dtype=np.float32)  # every block's scores
    for cols in _row_blocks(n, tile):
        y = y32[:cols.stop - cols.start]
        np.multiply(t[cols], 2.0**exp_t, out=y, casting="unsafe")  # exact, then rounded once
        for rows in _row_blocks(n):
            x = x32[:rows.stop - rows.start]
            np.multiply(v[rows], 2.0**exp_v, out=x, casting="unsafe")
            scores = np.matmul(x, y.T, out=block[:x.shape[0], :y.shape[0]])
            pairs = np.arange(max(rows.start, cols.start), min(rows.stop, cols.stop))
            diag = (pairs - rows.start, pairs - cols.start)  # empty off the tile's rows
            own[pairs] = scores[diag]
            scores[diag] = -np.inf
            np.maximum(row_best[rows], scores.max(axis=1), out=row_best[rows])
            np.maximum(col_best[cols], scores.max(axis=0), out=col_best[cols])
    del x, y, scores, x32, y32, block  # the rescoring's float64 block takes their place

    own = own.astype(np.float64)
    hits = []
    for queries, keys, best, q_norm, k_norm in ((v, t, row_best, v_norm, t_norm),
                                                (t, v, col_best, t_norm, v_norm)):
        lead = own - best
        margin = c * q_norm * (k_norm + k_norm.max()) + 2.0 * floor
        unsettled = np.flatnonzero(np.abs(lead) <= margin)
        hits.append(int(np.count_nonzero(lead > margin))
                    + _ranked_hits(queries, keys, unsettled, 1))
    return hits[0], hits[1]


def _ranked_hits(queries: np.ndarray, keys: np.ndarray, rows: np.ndarray, k: int) -> int:
    """How many of the given query rows rank their partner, keys[row], in the
    top k by float64 scores under recall_at_k's tie rule. Blocks of rows are
    scored into one reused buffer, and each query is ranked within its own
    row of the product."""
    cols = np.arange(keys.shape[0])
    block = np.empty((min(numerics._BLOCK_ROWS, rows.size), keys.shape[0]))
    hits = 0
    for span in _row_blocks(rows.size):
        idx = rows[span]
        scores = np.matmul(queries[idx], keys.T, out=block[:idx.size])
        own = scores[np.arange(idx.size), idx][:, None]
        beaten = (scores > own) | (scores == own) & (cols < idx[:, None])
        hits += int(np.count_nonzero(np.count_nonzero(beaten, axis=1) < k))
    return hits


def recall_at_k(v, t, k: int) -> tuple[float, float]:
    """Fraction of queries whose true partner ranks in the top k by dot product.

    The dot product is the cosine only for unit-norm rows; no normalization
    is applied here. Both directions are returned (image-to-text,
    text-to-image). A query's rank is 1 plus the competitors whose float64
    score beats its partner's: those scoring strictly higher, and the equal
    ones at a lower index, so results carry no platform sort ambiguity.

    k = 1 settles nearly every query from float32 products of image blocks
    and text tiles (_screened_hits, in scratch that does not grow with n
    beyond O(n) vectors) and rescores the rest in float64; k > 1 scores
    every query of both directions in float64, one 256 x n block at a time,
    as does k = 1 past d of about 1.7 million, where the screen's bound
    ((d + 2) u32 well below 1) fails. k must
    be an integer (not a bool) in [1, n]; inputs whose float64 scores could
    overflow or underflow (_check_products) are rejected before any work.
    """
    k = _scalar(k, "k", integer=True, low=1)
    v, t, *top = _paired_inputs(v, t)
    n, d = v.shape
    if k > n:  # a bound known once the pairs are read
        raise ValueError(f"k must be <= {n} (the pair count), got {k}")
    _check_products(d, *top, "V and T")
    if k == 1 and (d + 2) * _U32 < 0.1:
        i2t, t2i = _screened_hits(v, t, top)
    else:
        rows = np.arange(n)
        i2t, t2i = _ranked_hits(v, t, rows, k), _ranked_hits(t, v, rows, k)
    return i2t / n, t2i / n


def interchangeability_probe(train_texts: EmbeddingBatch, test_images: EmbeddingBatch) -> float:
    """Accuracy of a ridge one-vs-all classifier fit on texts, scored on images.

    The ridge strength is 1e-2 times the mean diagonal of the text Gram
    matrix, so it is scale-free. Ties in the class scores resolve to the
    first class in sorted label order.

    Texts whose float64 fit could overflow or underflow are rejected before
    any work. With n texts and entries up to m, the Gram's trace is at most
    n d m^2, and the ridge adds 1% of its mean to the diagonal. Its largest
    entry is at least m^2, the product _check_products bounds. So are images
    of another dimension, or whose scores could overflow or underflow: the
    weights are scaled by the power of two that takes their largest |entry|
    into [1/2, 1), which scales every score exactly and keeps each argmax. A
    score then sums d products of entries up to m and weights below 1, the
    largest at least 1/2, which the check of 2 d products of m and 1/2 covers."""
    if train_texts.labels is None or test_images.labels is None:
        raise ValueError("both batches need labels for the probe")
    if test_images.dim != train_texts.dim:
        raise ValueError(f"images are {test_images.dim}-d but texts are {train_texts.dim}-d")
    x, top = _checked_matrix(train_texts.vectors, "texts")
    _check_products(2 * x.shape[0] * x.shape[1], top, top, "the texts")
    image_top = _checked_matrix(test_images.vectors, "images")[1]
    _check_products(2 * test_images.dim, image_top, 0.5, "the images")
    classes = np.unique(train_texts.labels)
    if classes.size < 2:
        raise ValueError("probe needs at least 2 classes")
    if not np.isin(test_images.labels, classes).all():
        raise ValueError("test labels contain classes absent from the training labels")

    onehot = (train_texts.labels[:, None] == classes[None, :]).astype(np.float64)
    gram = x.T @ x
    lam = 1e-2 * float(np.diag(gram).mean())
    gram.flat[::gram.shape[0] + 1] += lam  # the ridge, in place: no d x d identity
    weights = np.linalg.solve(gram, x.T @ onehot)

    # class-major scores: the (c x d)(d x n) order, as in _squared_distances
    scores = np.ldexp(weights, -frexp(float(np.abs(weights).max()))[1]).T @ test_images.vectors.T
    pred = classes[scores.argmax(axis=0)]
    return float((pred == test_images.labels).mean())


def linear_fit_r2(x, y) -> tuple[float, float, float]:
    """Ordinary least squares of y on x: (slope, intercept, r_squared).

    Constant x is an error (no slope is identified); constant y fits slope 0
    with r_squared defined as 0. A NaN or infinite entry is an error.

    Scaling x and y by the powers of two that bring their largest |entry|
    into [1/2, 1) is exact and keeps every sum in range at any finite scale;
    a slope or intercept beyond the float64 range is an error."""
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

    exp_x, exp_y = (-frexp(float(np.abs(z).max()))[1] for z in (x, y))
    x, y = np.ldexp(x, exp_x), np.ldexp(y, exp_y)
    xm = x - x.mean()
    ym = y - y.mean()
    slope = float((xm * ym).sum() / (xm * xm).sum())
    intercept = float(y.mean() - slope * x.mean())
    ss_tot = float((ym * ym).sum())
    if ss_tot == 0.0:
        return 0.0, ldexp(float(y.mean()), -exp_y), 0.0
    residual = y - (slope * x + intercept)
    r_squared = 1.0 - float((residual * residual).sum()) / ss_tot
    try:
        return ldexp(slope, exp_x - exp_y), ldexp(intercept, -exp_y), r_squared
    except OverflowError:
        raise ValueError("the fit is beyond the float64 range") from None
