"""Working-set bounds of the dump path, measured with tracemalloc.

D is the size of one n x d float64 array. Each bound counts the allocations a
call makes beyond its inputs, its result included, so an n x d temporary in
any of these paths fails its test.
"""

import numpy as np
import pytest

import gaplab as gl
from gaplab import cli, evalkit, numerics

from conftest import traced_peak, unit_rows

N, DIM = 4096, 64
D = N * DIM * 8
MIB = 1 << 20


def pair():
    rng = np.random.default_rng(0)
    return unit_rows(rng, N, DIM), unit_rows(rng, N, DIM)


def test_as_matrix_holds_no_temporary():
    # The input check is one max and one min reduction; an n x d finiteness
    # mask would be an eighth of D by itself.
    m = unit_rows(np.random.default_rng(0), N, 512)
    out, peak = traced_peak(gl.as_matrix, m)
    assert out is m
    assert peak <= 0.01 * N * 512 * 8


def test_gap_report_holds_only_row_blocks_beyond_its_inputs():
    v, t = pair()
    report, peak = traced_peak(gl.gap_report, v, t)
    assert report.n_pairs == N
    # row blocks and d x d Grams; an n x d temporary would be D by itself
    assert peak <= 0.3 * D


def test_gap_report_at_dump_width_holds_under_half_of_one_input():
    # At d = 512 each d x d Gram is an eighth of D, and G_v, G_t, their sum
    # and eigvalsh's copy of it can be live at once; an n x d temporary would
    # be D by itself.
    d = 512
    rng = np.random.default_rng(0)
    v, t = unit_rows(rng, N, d), unit_rows(rng, N, d)
    report, peak = traced_peak(gl.gap_report, v, t)
    assert report.n_pairs == N
    assert peak <= 0.5 * N * d * 8


def test_mean_center_renormalize_holds_its_outputs():
    v, t = pair()
    (cv, ct), peak = traced_peak(gl.mean_center, v, t, renormalize=True)
    assert np.allclose(np.linalg.norm(cv, axis=1), 1.0)
    assert peak <= 2.25 * D      # the two centered outputs, renormalized in place


@pytest.mark.parametrize("renormalize", [False, True])
def test_mean_center_leaves_its_inputs_alone(renormalize):
    v, t = pair()
    v0, t0 = v.copy(), t.copy()
    gl.mean_center(v, t, renormalize=renormalize)
    assert np.array_equal(v, v0) and np.array_equal(t, t0)


def test_center_command_centers_the_pair_it_read_in_place(tmp_path, capsys):
    v, t = pair()
    labels = np.arange(N) % 8
    gl.write_embeddings(tmp_path / "v.emb", v, labels)
    gl.write_embeddings(tmp_path / "t.emb", t, labels)
    del v, t
    argv = ["center", "--images", str(tmp_path / "v.emb"), "--texts", str(tmp_path / "t.emb"),
            "--out-images", str(tmp_path / "cv.emb"), "--out-texts", str(tmp_path / "ct.emb"),
            "--renormalize"]
    code, peak = traced_peak(cli.main, argv)
    assert code == 0
    # the pair it read (2 D) plus one 1 MiB .emb chunk and the labels; a
    # report's Q1 or any other n x d temporary beside the pair would be 3 D
    assert peak <= 2 * D + MIB + 0.125 * D


def test_joint_clustering_holds_no_stacked_copy():
    rng = np.random.default_rng(1)
    dim = 256
    labels = np.arange(N) % 8
    images = gl.EmbeddingBatch(unit_rows(rng, N, dim), labels=labels)
    texts = gl.EmbeddingBatch(unit_rows(rng, N, dim), labels=labels, modality="text")
    report, peak = traced_peak(gl.joint_clustering_eval, images, texts, seed=0)
    assert report.n_points == 2 * N
    # a stack of both modalities would be 2 D by itself
    assert peak <= 0.5 * (N * dim * 8)


def test_kmeans_makes_no_n_by_d_temporary():
    v, _ = pair()
    # Two clusters of about n/2 rows each: a one-shot gather of either would
    # take about D/2, as the squared points of the old norm pass took D.
    (labels, _), peak = traced_peak(evalkit._kmeans, (v,), 2, 0)
    assert np.bincount(labels).min() > 512
    assert peak <= 0.25 * D


def test_recall_at_1_holds_one_text_tile_beyond_its_inputs():
    # The screen casts the texts to float32 one tile of 8 row blocks at a
    # time: the tile, one float32 image block and one block x tile score
    # block, beside a few vectors of n entries (norms, maxima, margins). A
    # whole float32 copy of the texts would be D / 2 by itself at any d.
    # tracemalloc cannot see OpenBLAS's own buffers, such as the packing
    # buffer of a threaded product; the dump benchmark's peak_rss_mb shows
    # those, and the bits of the k-means and probe products are pinned by
    # tests/test_evalkit.py.
    d = 512
    rng = np.random.default_rng(2)
    v = unit_rows(rng, N, d)
    t = gl.l2_normalize_rows(0.15 * v + unit_rows(rng, N, d))[0]
    hits, peak = traced_peak(gl.recall_at_k, v, t, 1)
    assert 0.0 < min(hits) and max(hits) < 1.0
    block, tile = numerics._BLOCK_ROWS, 8 * numerics._BLOCK_ROWS
    assert peak <= tile * d * 4 + block * d * 4 + block * tile * 4 + 128 * N
    assert peak < 0.5 * N * d * 8


def test_probe_builds_no_identity_beside_its_gram():
    # The ridge goes onto the Gram's diagonal in place. A dense
    # gram + lam * np.eye(d) holds a second d x d buffer beside the Gram
    # (NumPy folds the identity, its multiple and the sum into one). The
    # rest is the one-hot targets and the class scores, c x n each.
    # tracemalloc cannot see OpenBLAS's or LAPACK's own buffers (solve's
    # copy of the system, a threaded product's packing buffer).
    d, classes = 512, 8
    rng = np.random.default_rng(3)
    labels = np.arange(N) % classes
    texts = gl.EmbeddingBatch(unit_rows(rng, N, d), labels=labels, modality="text")
    images = gl.EmbeddingBatch(unit_rows(rng, N, d), labels=labels)
    gl.interchangeability_probe(texts, gl.EmbeddingBatch(images.vectors[:8], labels=labels[:8]))
    _, peak = traced_peak(gl.interchangeability_probe, texts, images)
    gram = d * d * 8
    assert peak <= gram + 3 * N * classes * 8 + 0.1 * gram


def test_read_embeddings_holds_its_output_and_one_chunk(tmp_path):
    v, _ = pair()
    labels = np.arange(N) % 7
    path = tmp_path / "v.emb"
    gl.write_embeddings(path, v, labels)
    (m, got), peak = traced_peak(gl.read_embeddings, path)
    assert np.array_equal(got, labels)
    assert peak <= m.nbytes + got.nbytes + MIB


def test_write_embeddings_streams_its_payload(tmp_path):
    v, _ = pair()
    _, peak = traced_peak(gl.write_embeddings, tmp_path / "v.emb", v, np.arange(N) % 7)
    assert peak <= 1.5 * MIB
