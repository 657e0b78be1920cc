import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest

import gaplab as gl
from gaplab import evalkit, numerics

from conftest import similarity_matrix, traced_peak, unit_rows


def blobs(rng, k=3, per=20, d=4, spread=0.05):
    """Well-separated Gaussian blobs with known assignments."""
    centers = rng.standard_normal((k, d)) * 10.0
    labels = np.repeat(np.arange(k), per)
    points = centers[labels] + spread * rng.standard_normal((k * per, d))
    return points, labels


def ari_by_pair_enumeration(pred, truth) -> float:
    """Independent pair-counting form of the adjusted Rand index."""
    n = len(pred)
    a = b = c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_p = pred[i] == pred[j]
            same_t = truth[i] == truth[j]
            a += same_p and same_t
            b += same_p and not same_t
            c += (not same_p) and same_t
            d += (not same_p) and (not same_t)
    den = (a + b) * (b + d) + (a + c) * (c + d)
    if den == 0:
        return 1.0
    return 2.0 * (a * d - b * c) / den


def v_measure_by_entropies(pred, truth) -> float:
    """Independent vectorized entropy form of the V-measure."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    n = pred.size
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    joint = np.zeros((pi.max() + 1, ti.max() + 1))
    np.add.at(joint, (pi, ti), 1.0 / n)

    def ent(p):
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    h_truth, h_pred = ent(joint.sum(axis=0)), ent(joint.sum(axis=1))
    h_joint = ent(joint.ravel())
    h_truth_given = h_joint - h_pred
    h_pred_given = h_joint - h_truth
    hom = 1.0 if h_truth == 0 else 1.0 - h_truth_given / h_truth
    comp = 1.0 if h_pred == 0 else 1.0 - h_pred_given / h_pred
    if hom + comp == 0.0:
        return 0.0
    return 2.0 * hom * comp / (hom + comp)


def recall_by_stable_sort(v, t, k) -> tuple[float, float]:
    """Recall@k in both directions from a stable sort of each similarity row:
    descending score, ties to the lower index."""
    s = similarity_matrix(v, t)
    n = s.shape[0]
    result = []
    for mat in (s, s.T):
        hits = 0
        for i in range(n):
            order = sorted(range(n), key=lambda j: (-mat[i, j], j))
            hits += order.index(i) < k
        result.append(hits / n)
    return tuple(result)


# ------------------------------------------------------------------- kmeans

def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    points, truth = blobs(rng)
    labels, inertia = evalkit._kmeans((points,), 3, 1)
    assert gl.adjusted_rand_index(labels, truth) == 1.0
    assert inertia >= 0.0


def test_kmeans_k_equals_n_has_zero_inertia():
    rng = np.random.default_rng(1)
    points = rng.standard_normal((6, 3))
    labels, inertia = evalkit._kmeans((points,), 6, 0)
    # distances come from the expanded quadratic form, so "zero" carries a
    # cancellation residue on the order of the machine epsilon
    assert inertia < 1e-12
    assert sorted(labels.tolist()) == list(range(6))


def test_kmeans_is_deterministic_in_the_seed():
    rng = np.random.default_rng(2)
    points, _ = blobs(rng, k=4, per=15)
    a = evalkit._kmeans((points,), 4, 7)
    b = evalkit._kmeans((points,), 4, 7)
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_kmeans_result_bits_are_pinned():
    # Bits of the plain expanded distance form. Computing the point norms once
    # and doubling the product instead of the points are exact rewrites, so
    # neither may move a label or a bit of the inertia.
    rng = np.random.default_rng(2024)
    points = rng.standard_normal((120, 5)) + np.repeat(1.5 * rng.standard_normal((4, 5)), 30, axis=0)
    labels, inertia = evalkit._kmeans((points,), 4, 5)
    assert "".join(map(str, labels)) == (
        "333333333333333333333333333333222222222222222222222222202222"
        "000000200000030022000000000000111111111111111111111111111111"
    )
    assert inertia.hex() == "0x1.1b3e3b641748ep+9"


def plain_kmeans(points, k, seed):
    """The whole-array form of kmeans: one-shot norms, distances and means,
    every mean recomputed on every iteration, and the same stopping rule (no
    centroid moves more than 1e-6 times the largest point norm)."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    point_sq = (points**2).sum(axis=1)
    tol = 1e-6 * np.sqrt(point_sq.max())

    def sq_dist(centers):
        d2 = point_sq[:, None] - 2.0 * (points @ centers.T) + (centers**2).sum(axis=1)[None, :]
        return np.maximum(d2, 0.0)

    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = sq_dist(centers[:1]).ravel()
    for j in range(1, k):
        total = d2.sum()
        centers[j] = points[rng.choice(n, p=d2 / total) if total > 0.0 else rng.integers(n)]
        d2 = np.minimum(d2, sq_dist(centers[j:j + 1]).ravel())
    for _ in range(100):
        dist = sq_dist(centers)
        labels = dist.argmin(axis=1)
        new_centers = np.array([points[labels == c].mean(axis=0) if (labels == c).any() else centers[c]
                                for c in range(k)])
        for c in range(k):
            if not (labels == c).any():  # steal the globally worst-fit point
                worst = int(dist[np.arange(n), labels].argmax())
                new_centers[c] = points[worst]
                labels[worst] = c
                dist[worst] = 0.0
        shift = np.linalg.norm(new_centers - centers, axis=1).max()
        centers = new_centers
        if shift <= tol:
            break
    dist = sq_dist(centers)
    labels = dist.argmin(axis=1)
    return labels, float(dist[np.arange(n), labels].sum())


def test_kmeans_in_blocks_equals_the_whole_array_form():
    # Clusters of 600-1000 rows, so each centroid mean spans several gathers,
    # and 2,400 points, so the norms span several row blocks. No cluster
    # empties, so the reference needs no re-seeding.
    rng = np.random.default_rng(31)
    sizes = (600, 800, 1000)
    points = np.vstack([rng.standard_normal((m, 9)) + 20.0 * rng.standard_normal(9) for m in sizes])
    points = points[rng.permutation(points.shape[0])]
    labels, inertia = evalkit._kmeans((points,), 3, 3)
    want_labels, want_inertia = plain_kmeans(points, 3, seed=3)
    assert sorted(np.bincount(labels)) == list(sizes)
    assert np.array_equal(labels, want_labels)
    assert inertia == want_inertia


def test_kmeans_recomputes_only_the_means_whose_rows_changed(monkeypatch):
    # Two cases with empty clusters, each re-seeded by a steal. (1) Repeated
    # rows, a little noise on some: k exceeds the distinct locations, so
    # k-means++ repeats a center, and a cluster empties in two iterations.
    # (2) Grid points, a few jittered: the cluster a steal takes a row from
    # keeps its other rows, so its mean is stale unless every mean is
    # recomputed after a steal.
    rng = np.random.default_rng(355)
    base = rng.standard_normal((int(rng.integers(3, 6)), 3))
    repeated = np.repeat(base, int(rng.integers(2, 5)), axis=0)
    jitter = rng.standard_normal(repeated.shape) * (rng.random((repeated.shape[0], 1)) < 0.5)
    repeated = repeated + 1e-3 * jitter
    rng = np.random.default_rng(209)
    n = int(rng.integers(6, 20))
    grid = rng.integers(-2, 3, size=(n, 2)).astype(float)
    grid += 0.01 * rng.standard_normal((n, 2)) * (rng.random((n, 1)) < 0.3)
    real_row = evalkit._row
    for points, k, seed, n_steals in ((repeated, 6, 355, 2), (grid, 4, 209, 1)):
        steals = []
        monkeypatch.setattr(evalkit, "_row", lambda *args: steals.append(args[2]) or real_row(*args))
        labels, inertia = evalkit._kmeans((points,), k, seed)
        assert len(steals) == k + n_steals  # k-means++ takes k rows, then the steals
        want_labels, want_inertia = plain_kmeans(points, k, seed=seed)
        assert np.array_equal(labels, want_labels) and inertia == want_inertia

    # 2,400 rows that settle over several iterations: only the first
    # recomputes every mean, so fewer than k per iteration run
    rng = np.random.default_rng(31)
    points = np.vstack([rng.standard_normal((600, 9)) + 2.0 * rng.standard_normal(9) for _ in range(4)])
    calls = {"mean": 0, "dist": 0}
    real_mean, real_dist = evalkit._cluster_mean, evalkit._squared_distances

    def count(name, fn):
        return lambda *args, **kwargs: calls.__setitem__(name, calls[name] + 1) or fn(*args, **kwargs)

    monkeypatch.setattr(evalkit, "_cluster_mean", count("mean", real_mean))
    monkeypatch.setattr(evalkit, "_squared_distances", count("dist", real_dist))
    labels, inertia = evalkit._kmeans((points,), 6, 3)
    iterations = calls["dist"] - 6 - 1  # k-means++ passes, then one final labelling
    assert iterations >= 3
    assert 6 <= calls["mean"] < 6 * iterations
    want_labels, want_inertia = plain_kmeans(points, 6, seed=3)
    assert np.array_equal(labels, want_labels) and inertia == want_inertia


B = numerics._BLOCK_ROWS


@pytest.mark.parametrize("size", [1, B - 1, B, B + 1, 1537])
def test_cluster_mean_in_blocks_has_the_one_shot_bits(size):
    rng = np.random.default_rng(size)
    points = rng.standard_normal((2000, 7)) * rng.uniform(0.1, 1e3, 7)
    rows = np.sort(rng.choice(2000, size, replace=False))
    want = points[rows].mean(axis=0)
    block = np.empty((B + 1, 7))
    assert np.array_equal(evalkit._cluster_mean((points,), np.array([0, 2000]), rows, block), want)
    # two parts split inside a row block, so blocks after the first cross it
    parts = (points[:700], points[700:])
    assert np.array_equal(evalkit._cluster_mean(parts, np.array([0, 700, 2000]), rows, block), want)


def kmeans_of_parts_matches_the_stack(parts, k, seed):
    """The parts form's labels, after checking its bits against one stacked part."""
    labels, inertia = evalkit._kmeans(parts, k, seed)
    want_labels, want_inertia = evalkit._kmeans((np.vstack(parts),), k, seed)
    assert np.array_equal(labels, want_labels)
    assert inertia == want_inertia
    return labels


def test_kmeans_of_parts_has_the_bits_of_the_stacked_points():
    # 700 + 1,000 rows: the split falls off a 512-row boundary, so the norms'
    # row blocks and each part's product differ from the stacked call's.
    rng = np.random.default_rng(41)
    points = np.vstack([rng.standard_normal((m, 9)) + 20.0 * rng.standard_normal(9)
                        for m in (600, 800, 300)])
    points = points[rng.permutation(points.shape[0])]
    labels = kmeans_of_parts_matches_the_stack((points[:700], points[700:]), 3, seed=3)
    kmeans_of_parts_matches_the_stack((points,), 3, seed=3)
    # some cluster's gather block holds rows from both sides of the split
    blocks = [rows[lo:lo + 512] for c in range(3)
              for rows in [np.flatnonzero(labels == c)] for lo in range(0, rows.size, 512)]
    assert any(b[0] < 700 <= b[-1] for b in blocks)


def test_kmeans_of_parts_reseeds_from_the_second_part(monkeypatch):
    # With seed 0 a Lloyd pass empties one of the 8 clusters of these 1-D
    # points, and the worst-fit point that re-seeds it is row 3, the first row
    # of the second part. (Exact duplicate points re-seed from row 0, since
    # every point then sits on a center.)
    x = np.array([0, 19, -4, -11, 20, 16, -18, 15, 6, 19, 15, 5, -7, 12, -11, -7, -8, -18],
                 dtype=float)[:, None]
    looked_up = []
    row = evalkit._row

    def spy(parts, bounds, i):
        if len(parts) == 2:
            looked_up.append(int(i))
        return row(parts, bounds, i)

    monkeypatch.setattr(evalkit, "_row", spy)
    kmeans_of_parts_matches_the_stack((x[:3], x[3:]), 8, seed=0)
    assert any(i >= 3 for i in looked_up[8:])  # the first 8 are the k-means++ picks
    dup = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5 + [[0.0, 10.0]])
    kmeans_of_parts_matches_the_stack((dup[:6], dup[6:]), 4, seed=0)


@pytest.mark.parametrize("e", [20, -20, -30, -400])
def test_kmeans_stops_at_the_same_step_at_any_power_of_two_scale(e):
    # 40 + 40 unit rows in 4 classes. An absolute stopping shift of 1e-6
    # stopped early from 2^-20 down (inertia/s^2 42.1 against 33.6, ARI 0.52
    # against 0.93); scaled to the largest point norm, every power of two
    # gives the same labels and inertia scaled by exactly 2^(2e).
    rng = np.random.default_rng(41)
    labels = np.arange(40) % 4
    centers = rng.standard_normal((4, 8))
    v, t = (gl.l2_normalize_rows(centers[labels] + 0.8 * rng.standard_normal((40, 8)))[0]
            for _ in range(2))
    want_labels, want_inertia = evalkit._kmeans((v, t), 4, 0)
    got_labels, got_inertia = evalkit._kmeans((np.ldexp(v, e), np.ldexp(t, e)), 4, 0)
    assert np.array_equal(got_labels, want_labels)
    assert got_inertia == math.ldexp(want_inertia, 2 * e)


def test_kmeans_handles_duplicate_points():
    points = np.array([[0.0, 0.0]] * 5 + [[10.0, 10.0]] * 5 + [[0.0, 10.0]])
    labels, inertia = evalkit._kmeans((points,), 4, 0)
    assert labels.shape == (11,)
    assert labels.max() < 4 and labels.min() >= 0
    assert np.isfinite(inertia)


def test_kmeans_validates_k():
    points = np.zeros((3, 2))
    with pytest.raises(ValueError):
        evalkit._kmeans((points,), 0, 0)
    with pytest.raises(ValueError):
        evalkit._kmeans((points,), 4, 0)


# ---------------------------------------------------------------------- ARI

def test_ari_perfect_and_hand_values():
    assert gl.adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert gl.adjusted_rand_index([0, 0, 1, 1], [0, 0, 0, 1]) == 0.0
    assert abs(gl.adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 2]) - 4.0 / 7.0) < 1e-15
    # one trivial labeling scores zero against an informative one
    assert gl.adjusted_rand_index([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0
    # both trivial: expected and maximum agreement coincide
    assert gl.adjusted_rand_index([0, 0, 0], [1, 1, 1]) == 1.0


def test_ari_matches_pair_enumeration_oracle():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        pred = rng.integers(0, 5, n)
        truth = rng.integers(0, 5, n)
        got = gl.adjusted_rand_index(pred, truth)
        want = ari_by_pair_enumeration(pred.tolist(), truth.tolist())
        assert abs(got - want) < 1e-12


def test_ari_is_relabeling_invariant_and_near_zero_when_independent():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 6, 200)
    remap = rng.permutation(6)[labels]
    assert gl.adjusted_rand_index(remap, labels) == 1.0

    a = rng.integers(0, 10, 10000)
    b = rng.integers(0, 10, 10000)
    assert abs(gl.adjusted_rand_index(a, b)) < 0.05


def test_ari_validates_lengths():
    with pytest.raises(ValueError):
        gl.adjusted_rand_index([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        gl.adjusted_rand_index([0], [0])


# ---------------------------------------------------------------- V-measure

def test_v_measure_perfect_and_degenerate():
    assert gl.v_measure([0, 1, 2, 0], [2, 0, 1, 2]) == 1.0
    # single predicted cluster: perfectly complete, zero homogeneity
    assert gl.v_measure([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0
    # constant truth: homogeneity is vacuous, completeness rules
    v = gl.v_measure([0, 0, 1, 1], [0, 0, 0, 0])
    assert 0.0 <= v <= 1.0


def test_v_measure_matches_entropy_oracle():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 30))
        pred = rng.integers(0, 4, n)
        truth = rng.integers(0, 4, n)
        got = gl.v_measure(pred, truth)
        want = v_measure_by_entropies(pred, truth)
        assert abs(got - want) < 1e-12


def v_measure_by_cell_loop(pred, truth) -> float:
    """The V-measure's former double loop, which re-summed a row and a column per cell."""
    table = evalkit._contingency(*evalkit._check_labelings(pred, truth)).astype(np.float64)
    n = table.sum()

    def ent(p):
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    h_class, h_cluster = ent(table.sum(axis=0) / n), ent(table.sum(axis=1) / n)
    h_class_given = h_cluster_given = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            nij = table[i, j]
            if nij > 0:
                h_class_given -= (nij / n) * math.log(nij / table[i, :].sum())
                h_cluster_given -= (nij / n) * math.log(nij / table[:, j].sum())
    hom = 1.0 if h_class == 0 else 1.0 - h_class_given / h_class
    comp = 1.0 if h_cluster == 0 else 1.0 - h_cluster_given / h_cluster
    if hom + comp == 0.0:
        return 0.0
    return 2.0 * hom * comp / (hom + comp)


def test_v_measure_has_the_bits_of_the_cell_loop():
    rng = np.random.default_rng(18)
    for _ in range(300):
        n = int(rng.integers(2, 400))
        pred = rng.integers(0, int(rng.integers(1, 12)), n)
        truth = rng.integers(0, int(rng.integers(1, 12)), n)
        assert gl.v_measure(pred, truth) == v_measure_by_cell_loop(pred, truth)


def test_v_measure_is_symmetric_and_near_zero_when_independent():
    rng = np.random.default_rng(6)
    a = rng.integers(0, 5, 300)
    b = rng.integers(0, 5, 300)
    assert abs(gl.v_measure(a, b) - gl.v_measure(b, a)) < 1e-12

    a = rng.integers(0, 10, 10000)
    b = rng.integers(0, 10, 10000)
    assert abs(gl.v_measure(a, b)) < 0.05


# -------------------------------------------------------- joint clustering

def test_joint_clustering_on_separable_batches():
    rng = np.random.default_rng(7)
    points, labels = blobs(rng, k=4, per=10, d=6)
    pts, _ = gl.l2_normalize_rows(points)
    images = gl.EmbeddingBatch(pts, labels=labels)
    texts = gl.EmbeddingBatch(pts, labels=labels, modality="text")
    report = gl.joint_clustering_eval(images, texts, seed=3)
    assert report.k == 4
    assert report.n_points == 80
    assert report.ari == 1.0
    assert report.v_measure == 1.0
    data = json.loads(json.dumps(asdict(report)))
    assert set(data) == {"v_measure", "ari", "k", "n_points", "inertia"}


def test_joint_clustering_requires_labels_and_k():
    rng = np.random.default_rng(8)
    v = unit_rows(rng, 6, 3)
    labeled = gl.EmbeddingBatch(v, labels=np.zeros(6, dtype=int))
    bare = gl.EmbeddingBatch(v, modality="text")
    with pytest.raises(ValueError):
        gl.joint_clustering_eval(labeled, bare)
    with pytest.raises(ValueError, match="at least 2 clusters"):
        gl.joint_clustering_eval(labeled, gl.EmbeddingBatch(v, labels=np.zeros(6, dtype=int), modality="text"))


def test_joint_clustering_pools_batches_of_different_sizes():
    rng = np.random.default_rng(12)
    points, labels = blobs(rng, k=4, per=125, d=6, spread=2.0)
    order = rng.permutation(500)
    points, labels = points[order], labels[order]
    images = gl.EmbeddingBatch(points[:300], labels=labels[:300])
    texts = gl.EmbeddingBatch(points[300:], labels=labels[300:], modality="text")
    report = gl.joint_clustering_eval(images, texts, seed=2)
    want_labels, want_inertia = evalkit._kmeans((points,), 4, 2)
    assert report.n_points == 500
    assert report.inertia == want_inertia
    assert report.ari == gl.adjusted_rand_index(want_labels, labels)


def test_joint_clustering_rejects_a_dimension_mismatch_before_any_work(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("clustered before the dimensions were checked")

    monkeypatch.setattr(evalkit, "_kmeans", must_not_run)
    rng = np.random.default_rng(13)
    images = gl.EmbeddingBatch(unit_rows(rng, 8, 6), labels=np.arange(8) % 2)
    texts = gl.EmbeddingBatch(unit_rows(rng, 8, 5), labels=np.arange(8) % 2, modality="text")
    with pytest.raises(ValueError, match="6-d.*5-d"):
        gl.joint_clustering_eval(images, texts)


def overflow_pair(scale):
    """The 40 x 8 standard-normal labelled pair, both batches times scale."""
    rng = np.random.default_rng(37)
    v, t = rng.standard_normal((40, 8)), rng.standard_normal((40, 8))
    labels = np.arange(40) % 4
    return (gl.EmbeddingBatch(scale * v, labels=labels),
            gl.EmbeddingBatch(scale * t, labels=labels, modality="text"))


def test_joint_clustering_rejects_sums_of_products_that_overflow_float64(monkeypatch):
    base = gl.joint_clustering_eval(*overflow_pair(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = gl.joint_clustering_eval(*overflow_pair(1e150))
    assert (scaled.ari, scaled.v_measure, scaled.k, scaled.n_points) == \
        (base.ari, base.v_measure, base.k, base.n_points)
    assert scaled.inertia == pytest.approx(1e300 * base.inertia, rel=1e-12)

    def must_not_run(*args, **kwargs):
        raise AssertionError("clustered before the overflow check")

    monkeypatch.setattr(evalkit, "_kmeans", must_not_run)
    with pytest.raises(ValueError, match="can overflow"):
        gl.joint_clustering_eval(*overflow_pair(1e200))


# ---------------------------------------------------------------- recall@k

def test_recall_orthonormal_and_mismatched():
    v = np.eye(4)
    assert gl.recall_at_k(v, v, 1) == (1.0, 1.0)
    rolled = np.roll(v, 1, axis=0)
    i2t, t2i = gl.recall_at_k(v, rolled, 1)
    assert i2t == 0.0 and t2i == 0.0
    assert gl.recall_at_k(v, rolled, 4) == (1.0, 1.0)


def test_recall_matches_stable_sort_oracle():
    rng = np.random.default_rng(9)
    for trial in range(10):
        v = unit_rows(rng, 8, 5)
        t = unit_rows(rng, 8, 5)
        for k in (1, 3, 8):
            assert gl.recall_at_k(v, t, k) == recall_by_stable_sort(v, t, k)


def straddling_key_ties(block: int):
    """(V, T) of 2 block + 37 pairs (the last block is partial) with duplicated
    keys straddling two block boundaries."""
    n = 2 * block + 37
    rng = np.random.default_rng(30)
    # Small integer entries: every score is exact, so ties are exact ties.
    v = rng.integers(-2, 3, size=(n, 3)).astype(np.float64)
    t = rng.integers(-2, 3, size=(n, 3)).astype(np.float64)
    # Duplicated keys straddling a block boundary, each the best match of
    # both its queries: the query after the boundary loses rank 1 to the
    # equal key before it.
    t[block - 1] = t[block] = v[block - 1] = v[block] = 5.0
    v[2 * block - 1] = v[2 * block] = t[2 * block - 1] = t[2 * block] = -5.0
    return v, t


def straddling_image_ties(block: int):
    """(V, T) of 2 block + 37 pairs with unique text rows and duplicated image
    rows straddling two block boundaries."""
    n = 2 * block + 37
    rng = np.random.default_rng(32)
    # Unique text rows: distinct codes in [-6, 6]^3, plus a fourth coordinate.
    codes = rng.choice(13**3, size=n, replace=False)
    t = np.zeros((n, 4))
    t[:, :3] = np.stack([codes // 169, codes // 13 % 13, codes % 13], axis=1) - 6
    v = np.zeros((n, 4))
    v[:, :3] = rng.integers(-2, 3, size=(n, 3))
    # Duplicated image rows straddling a block boundary. Each pair is the best
    # match of the text after the boundary (50 against at most 36), which
    # loses rank 1 to the equal image before it.
    for i, sign in ((block, 1.0), (2 * block, -1.0)):
        t[i, 3] = sign
        v[i - 1] = v[i] = (0.0, 0.0, 0.0, 50.0 * sign)
        scores = v @ t[i]
        assert scores.max() == scores[i] == scores[i - 1]
    assert np.unique(t, axis=0).shape[0] == n
    return v, t


@pytest.mark.parametrize("block", [numerics._BLOCK_ROWS, 7])
def test_blocked_recall_keeps_the_tie_rule_across_blocks(monkeypatch, block):
    monkeypatch.setattr(numerics, "_BLOCK_ROWS", block)
    v, t = straddling_key_ties(block)
    for k in (1, 3, v.shape[0]):
        assert gl.recall_at_k(v, t, k) == recall_by_stable_sort(v, t, k)


@pytest.mark.parametrize("block", [numerics._BLOCK_ROWS, 7])
def test_blocked_recall_keeps_the_tie_rule_for_text_queries(monkeypatch, block):
    monkeypatch.setattr(numerics, "_BLOCK_ROWS", block)
    v, t = straddling_image_ties(block)
    for k in (1, 3, v.shape[0]):
        assert gl.recall_at_k(v, t, k) == recall_by_stable_sort(v, t, k)


@pytest.mark.parametrize("ties", [straddling_key_ties, straddling_image_ties])
@pytest.mark.parametrize("block", [numerics._BLOCK_ROWS, 7])
def test_recall_at_1_past_the_screens_bound_takes_the_float64_kernel(monkeypatch, block, ties):
    def must_not_run(*args):
        raise AssertionError("the float32 screen ran past its bound")

    monkeypatch.setattr(numerics, "_BLOCK_ROWS", block)
    monkeypatch.setattr(evalkit, "_U32", 1.0)  # (d + 2) u32 < 0.1 fails at any d
    monkeypatch.setattr(evalkit, "_screened_hits", must_not_run)
    v, t = ties(block)
    assert gl.recall_at_k(v, t, 1) == recall_by_stable_sort(v, t, 1)


def recall_by_two_gemms(v, t, k) -> tuple[float, float]:
    """The earlier blocked kernel: one GEMM per block of queries and per direction."""

    def hits(queries, keys):
        n = queries.shape[0]
        block = numerics._BLOCK_ROWS
        cols = np.arange(n)
        total = 0
        for lo in range(0, n, block):
            rows = cols[lo:lo + block]
            scores = queries[lo:lo + block] @ keys.T
            own = scores[rows - lo, rows][:, None]
            rank = (1 + np.count_nonzero(scores > own, axis=1)
                    + np.count_nonzero((scores == own) & (cols < rows[:, None]), axis=1))
            total += int(np.count_nonzero(rank <= k))
        return total

    n = v.shape[0]
    return hits(v, t) / n, hits(t, v) / n


@pytest.mark.parametrize("block", [numerics._BLOCK_ROWS, 7])
def test_one_gemm_recall_equals_the_two_gemm_kernel(monkeypatch, block):
    monkeypatch.setattr(numerics, "_BLOCK_ROWS", block)
    n, d = 2 * block + 37, 16
    rng = np.random.default_rng(33)
    v = rng.standard_normal((n, d))
    t = 0.6 * v + rng.standard_normal((n, d))  # partners often, not always, rank first
    for k in (1, 5):
        assert gl.recall_at_k(v, t, k) == recall_by_two_gemms(v, t, k)


def test_recall_memory_stays_below_the_dense_matrix():
    n, d = 3000, 4
    rng = np.random.default_rng(31)
    v = rng.standard_normal((n, d))
    t = rng.standard_normal((n, d))
    for k in (1, 5):  # the float32 screen, and the float64 kernel
        _, peak = traced_peak(gl.recall_at_k, v, t, k)
        assert peak <= n * n * 8 / 4
    # k > 1 holds one reused float64 score block and its boolean masks
    assert peak <= 1.75 * numerics._BLOCK_ROWS * n * 8


def test_recall_is_monotone_in_k():
    rng = np.random.default_rng(10)
    v = unit_rows(rng, 12, 4)
    t = unit_rows(rng, 12, 4)
    values = [gl.recall_at_k(v, t, k) for k in range(1, 13)]
    for (a1, b1), (a2, b2) in zip(values, values[1:]):
        assert a2 >= a1 and b2 >= b1
    assert values[-1] == (1.0, 1.0)


def count_rescored(monkeypatch) -> list:
    """Patch the float64 kernel, which at k = 1 only rescores the queries
    recall@1's screen leaves; returns the list that collects each call's
    query rows, image queries first."""
    calls = []
    ranked_hits = evalkit._ranked_hits

    def counting(queries, keys, rows, k):
        calls.append(rows.tolist())
        return ranked_hits(queries, keys, rows, k)

    monkeypatch.setattr(evalkit, "_ranked_hits", counting)
    return calls


def test_recall_ties_resolve_by_index(monkeypatch):
    # Identical first two text rows: query 0 keeps rank 1, query 1 loses it.
    # The float32 screen cannot settle an exact tie, so both are scored again.
    t = np.eye(3)
    t[1] = t[0]
    rescored = count_rescored(monkeypatch)
    i2t, _ = gl.recall_at_k(t, t, 1)
    assert abs(i2t - 2.0 / 3.0) < 1e-15
    assert rescored[0] == [0, 1]


def test_recall_validates_k():
    v = np.eye(3)
    for k in (0, 4, 1.5, 1.0, True, np.bool_(True), "1"):
        with pytest.raises(ValueError):
            gl.recall_at_k(v, v, k)
    assert gl.recall_at_k(v, v, np.int64(1)) == gl.recall_at_k(v, v, np.uint8(3)) == (1.0, 1.0)


def near_tie(partner_wins: bool, competitor_first: bool):
    """(V, T), two pairs, where image 0's partner and its competitor score
    float64 values 2^-35 apart that both round to 1.0 in float32, while the
    float32 product puts them 2^-23 apart the other way round.

    With V's query row (1, 1), the scores are exact sums in float64:
    (1 + 2^-24 - 2^-35, 0) scores just below the float32 midpoint
    1 + 2^-24, so its cast rounds down to 1, and
    (1 + 2^-24 + 2^-40, -2^-40 - 2^-34) scores 2^-35 less, but its first
    entry's cast rounds up to 1 + 2^-23, which the small second term cannot
    pull back.
    """
    high = np.array([1.0 + 2.0**-24 - 2.0**-35, 0.0])
    low = np.array([1.0 + 2.0**-24 + 2.0**-40, -2.0**-40 - 2.0**-34])
    s64 = np.array([1.0, 1.0]) @ np.stack([high, low]).T
    assert s64[0] - s64[1] == 2.0**-35 and (s64.astype(np.float32) == 1.0).all()
    s32 = np.ones(2, dtype=np.float32) @ np.stack([high, low]).astype(np.float32).T
    assert s32[1] - s32[0] == 2.0**-23
    t = np.stack([high, low] if partner_wins else [low, high])
    v = np.array([[1.0, 1.0], [-1.0, 1.0]])
    if competitor_first:
        v, t = v[::-1], t[::-1]
    return v, t


@pytest.mark.parametrize("partner_wins", [True, False])
@pytest.mark.parametrize("competitor_first", [True, False])
@pytest.mark.parametrize("text_queries", [False, True])
def test_screened_recall_rescores_near_ties_the_float32_product_flips(
        monkeypatch, partner_wins, competitor_first, text_queries):
    v, t = near_tie(partner_wins, competitor_first)
    if text_queries:  # the same query, asked text-to-image
        v, t = t, v
    rescored = count_rescored(monkeypatch)
    got = gl.recall_at_k(v, t, 1)
    assert got == recall_by_stable_sort(v, t, 1)
    query = int(competitor_first)
    assert query in rescored[text_queries]


@pytest.mark.parametrize("scale_v, scale_t, tiny_rows", [
    (1e39, 1e39, 1.0),    # beyond float32: a plain cast would overflow
    (1e30, 1e30, 1.0),    # float32 products would overflow
    (1e-30, 1e-30, 1.0),  # float32 products would underflow
    (1e30, 1e-30, 1.0),
    (1.0, 1.0, 1e-43),    # half the image rows are float32 subnormals
    (1e-162, 1e-162, 1.0),  # float64 products are subnormal
    (1e-310, 1e-20, 1.0),   # float64 products underflow to 0: every score ties
])
def test_screened_recall_matches_the_float64_ranks_at_any_scale(scale_v, scale_t, tiny_rows):
    rng = np.random.default_rng(0)
    v = rng.standard_normal((200, 6))
    t = v + 0.3 * rng.standard_normal((200, 6))
    v[:100] *= tiny_rows
    v, t = scale_v * v, scale_t * t
    if scale_v * scale_t < 1e-300:
        # The float64 ranks there are not the unscaled ones (recall 0.005
        # against 0.235 where every score ties), so the input is refused.
        with pytest.raises(ValueError, match="underflows"):
            gl.recall_at_k(v, t, 1)
        return
    assert gl.recall_at_k(v, t, 1) == recall_by_stable_sort(v, t, 1)


def scaled_unit_pair(e):
    """80 labelled unit pairs (d = 8, 4 classes), unscaled and times 2^e."""
    rng = np.random.default_rng(41)
    labels = np.arange(80) % 4
    centers = rng.standard_normal((4, 8))
    v, t = (gl.l2_normalize_rows(centers[labels] + 0.8 * rng.standard_normal((80, 8)))[0]
            for _ in range(2))
    return labels, (v, t), (np.ldexp(v, e), np.ldexp(t, e))


def answer_or_value_error(call, *args):
    try:
        return call(*args)
    except ValueError:
        return None


@pytest.mark.parametrize("e", [0, -500, -900, -1030])
def test_recall_and_clustering_give_the_unscaled_answer_or_raise(e):
    # From 2^-900 down the float64 products underflow: recall@1 read
    # (0.0125, 0.0125) against (0.0625, 0.0875) and the ARI 0 against 0.90.
    labels, (v, t), (sv, st) = scaled_unit_pair(e)
    for k in (1, 3):
        assert answer_or_value_error(gl.recall_at_k, sv, st, k) in (None, gl.recall_at_k(v, t, k))

    def cluster(v, t):
        return gl.joint_clustering_eval(gl.EmbeddingBatch(v, labels=labels),
                                        gl.EmbeddingBatch(t, labels=labels, modality="text"))

    want, got = cluster(v, t), answer_or_value_error(cluster, sv, st)
    assert got is None or (got.ari, got.v_measure, got.k, got.n_points, got.inertia) == \
        (want.ari, want.v_measure, want.k, want.n_points, math.ldexp(want.inertia, 2 * e))


def test_recall_and_clustering_reject_underflowing_products_before_any_work(monkeypatch):
    labels, _, (sv, st) = scaled_unit_pair(-900)
    for name in ("_screened_hits", "_ranked_hits", "_kmeans"):
        monkeypatch.setattr(evalkit, name, lambda *args: pytest.fail("worked before the check"))
    for k in (1, 3):
        with pytest.raises(ValueError, match="underflows"):
            gl.recall_at_k(sv, st, k)
    with pytest.raises(ValueError, match="underflows"):
        gl.joint_clustering_eval(gl.EmbeddingBatch(sv, labels=labels),
                                 gl.EmbeddingBatch(st, labels=labels, modality="text"))


def test_recall_rejects_scores_that_overflow_float64():
    rng = np.random.default_rng(35)
    v, t = rng.standard_normal((50, 8)), rng.standard_normal((50, 8))
    with pytest.raises(ValueError, match="can overflow"):
        gl.recall_at_k(1e200 * v, 1e200 * t, 1)
    assert gl.recall_at_k(1e150 * v, 1e150 * t, 1) == recall_by_stable_sort(v, t, 1)


# -------------------------------------------------------------------- probe

def probe_batches(rng, k=4, per=6, d=8):
    labels = np.repeat(np.arange(k), per)
    centers = rng.standard_normal((k, d)) * 5.0
    pts = centers[labels] + 0.05 * rng.standard_normal((k * per, d))
    pts, _ = gl.l2_normalize_rows(pts)
    texts = gl.EmbeddingBatch(pts, labels=labels, modality="text")
    images = gl.EmbeddingBatch(pts, labels=labels)
    return texts, images


def test_probe_is_perfect_on_shared_separable_clusters():
    rng = np.random.default_rng(11)
    texts, images = probe_batches(rng)
    assert gl.interchangeability_probe(texts, images) == 1.0


def test_probe_on_orthogonal_subspaces_is_chance():
    # Texts live in the first four coordinates, images in the last four; the
    # ridge weights then score every image exactly zero, ties go to the first
    # class, and accuracy is exactly 1/k on balanced labels.
    rng = np.random.default_rng(12)
    k, per, d = 4, 6, 8
    labels = np.repeat(np.arange(k), per)
    tx = np.zeros((k * per, d))
    im = np.zeros((k * per, d))
    tx[:, :4] = unit_rows(rng, k * per, 4)
    im[:, 4:] = unit_rows(rng, k * per, 4)
    acc = gl.interchangeability_probe(
        gl.EmbeddingBatch(tx, labels=labels, modality="text"),
        gl.EmbeddingBatch(im, labels=labels))
    assert acc == 1.0 / k


def test_probe_is_scale_free():
    rng = np.random.default_rng(13)
    texts, images = probe_batches(rng, per=5)
    base = gl.interchangeability_probe(texts, images)
    scaled = gl.interchangeability_probe(
        gl.EmbeddingBatch(texts.vectors * 40.0, labels=texts.labels, modality="text"),
        gl.EmbeddingBatch(images.vectors * 40.0, labels=images.labels))
    assert base == scaled


def test_probe_validation():
    rng = np.random.default_rng(14)
    texts, images = probe_batches(rng)
    unseen = gl.EmbeddingBatch(images.vectors, labels=images.labels + 100)
    with pytest.raises(ValueError):
        gl.interchangeability_probe(texts, unseen)
    single = gl.EmbeddingBatch(texts.vectors, labels=np.zeros(texts.n, dtype=int), modality="text")
    with pytest.raises(ValueError):
        gl.interchangeability_probe(single, images)


def test_probe_rejects_a_fit_that_overflows_float64(monkeypatch):
    images, texts = overflow_pair(1.0)
    base = gl.interchangeability_probe(texts, images)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        images, texts = overflow_pair(1e150)
        assert gl.interchangeability_probe(texts, images) == base

    def must_not_run(*args, **kwargs):
        raise AssertionError("solved before the overflow check")

    monkeypatch.setattr(np.linalg, "solve", must_not_run)
    images, texts = overflow_pair(1e200)
    with pytest.raises(ValueError, match="can overflow"):
        gl.interchangeability_probe(texts, images)


def test_probe_rejects_texts_whose_gram_underflows(monkeypatch):
    # Unit rows at 2^-400 have squares near 2^-800, normal numbers: the
    # accuracy is the unscaled one. At 1e-160 the squares are subnormal,
    # where the fit returned chance; they are refused before the solve.
    texts, images = probe_batches(np.random.default_rng(42), per=10)
    base = gl.interchangeability_probe(texts, images)

    def scaled(factor):
        return gl.EmbeddingBatch(factor * texts.vectors, labels=texts.labels, modality="text")

    assert gl.interchangeability_probe(scaled(2.0**-400), images) == base
    monkeypatch.setattr(np.linalg, "solve", lambda *args: pytest.fail("solved before the check"))
    with pytest.raises(ValueError, match="underflows"):
        gl.interchangeability_probe(scaled(1e-160), images)


# ------------------------------------------------------------ linear_fit_r2

def test_linear_fit_exact_line():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    slope, intercept, r2 = gl.linear_fit_r2(x, 2.0 * x - 1.0)
    assert abs(slope - 2.0) < 1e-12
    assert abs(intercept + 1.0) < 1e-12
    assert abs(r2 - 1.0) < 1e-12


def test_linear_fit_matches_polyfit_oracle():
    rng = np.random.default_rng(15)
    for _ in range(10):
        x = rng.standard_normal(25)
        y = 1.7 * x + rng.standard_normal(25)
        slope, intercept, r2 = gl.linear_fit_r2(x, y)
        ref_slope, ref_intercept = np.polyfit(x, y, 1)
        assert abs(slope - ref_slope) < 1e-10
        assert abs(intercept - ref_intercept) < 1e-10
        resid = y - (ref_slope * x + ref_intercept)
        ref_r2 = 1.0 - (resid**2).sum() / ((y - y.mean()) ** 2).sum()
        assert abs(r2 - ref_r2) < 1e-10


def test_linear_fit_r2_is_affine_invariant():
    rng = np.random.default_rng(16)
    x = rng.standard_normal(30)
    y = 0.5 * x + 0.3 * rng.standard_normal(30)
    _, _, base = gl.linear_fit_r2(x, y)
    _, _, shifted = gl.linear_fit_r2(3.0 * x - 7.0, -2.0 * y + 11.0)
    assert abs(base - shifted) < 1e-10


def test_linear_fit_independent_data_has_tiny_r2():
    rng = np.random.default_rng(17)
    _, _, r2 = gl.linear_fit_r2(rng.standard_normal(2000), rng.standard_normal(2000))
    assert r2 < 0.05


def test_linear_fit_edge_cases():
    with pytest.raises(ValueError):
        gl.linear_fit_r2([1.0, 2.0], [1.0, 2.0])                 # too short
    with pytest.raises(ValueError):
        gl.linear_fit_r2([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])       # constant x
    slope, intercept, r2 = gl.linear_fit_r2([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    assert (slope, intercept, r2) == (0.0, 4.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_linear_fit_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="must be finite"):
        gl.linear_fit_r2([1.0, 2.0, bad], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="must be finite"):
        gl.linear_fit_r2([1.0, 2.0, 3.0], [1.0, bad, 3.0])


def unscaled_linear_fit(x, y):
    """The least-squares formulas with no scaling: linear_fit_r2's oracle
    wherever no sum overflows or underflows."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    xm, ym = x - x.mean(), y - y.mean()
    slope = float((xm * ym).sum() / (xm * xm).sum())
    intercept = float(y.mean() - slope * x.mean())
    ss_tot = float((ym * ym).sum())
    if ss_tot == 0.0:
        return 0.0, float(y.mean()), 0.0
    residual = y - (slope * x + intercept)
    return slope, intercept, 1.0 - float((residual * residual).sum()) / ss_tot


def test_linear_fit_keeps_the_unscaled_bits_at_moderate_scales():
    rng = np.random.default_rng(38)
    for _ in range(500):
        n = int(rng.integers(3, 12))
        sx, sy = 10.0 ** rng.uniform(-5, 5, 2)
        x = sx * (rng.standard_normal(n) + rng.standard_normal())
        y = sy * rng.standard_normal(n) + 0.5 * x * sy / sx
        assert gl.linear_fit_r2(x, y) == unscaled_linear_fit(x, y)


@pytest.mark.parametrize("scale_x, scale_y", [
    (1e200, 1.0), (1e-200, 1.0), (1.0, 1e200), (1.0, 1e-200),
    (2.0**600, 1.0), (2.0**-600, 1.0), (2.0**600, 2.0**-300), (1e-310, 1e-310),
], ids=["x1e200", "x1e-200", "y1e200", "y1e-200", "x2^600", "x2^-600", "x2^600-y2^-300",
        "both1e-310"])
def test_linear_fit_at_any_finite_scale(scale_x, scale_y):
    x = np.array([1.0, 2.0, 3.0, 5.0])
    y = np.array([2.0, 3.5, 4.5, 7.5])
    slope, intercept, r2 = unscaled_linear_fit(x, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gl.linear_fit_r2(scale_x * x, scale_y * y)
    want = (slope * scale_y / scale_x, intercept * scale_y, r2)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_linear_fit_pins_the_line_through_huge_x():
    slope, intercept, r2 = gl.linear_fit_r2(np.array([1.0, 2.0, 3.0]) * 1e200, [1.0, 2.0, 3.0])
    assert slope == pytest.approx(1e-200, rel=1e-15)
    assert abs(intercept) < 1e-15 and r2 == pytest.approx(1.0, abs=1e-15)


def test_linear_fit_beyond_the_float64_range_is_an_error():
    with pytest.raises(ValueError, match="beyond the float64 range"):
        gl.linear_fit_r2(np.array([1.0, 2.0, 3.0]) * 1e-200, np.array([1.0, 2.0, 4.0]) * 1e200)


# ------------------------------------------------------------------ records

def test_sweep_record_field_order():
    values = {name: float(i) for i, name in enumerate(gl.SWEEP_FIELDS)}
    rec = gl.SweepRecord(**values)
    assert list(asdict(rec)) == list(gl.SWEEP_FIELDS)
    assert json.loads(json.dumps(asdict(rec)))["alpha_target"] == 0.0
