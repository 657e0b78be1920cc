import json
import sys
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest

import gaplab as gl
from gaplab.geometry import _distribution_gap, _erank, _fusion, _ranks, _raw_gap, _spectrum

from conftest import random_orthogonal, unit_rows


def paired_batches(rng, n=12, d=6):
    return unit_rows(rng, n, d), unit_rows(rng, n, d)


def erank(m) -> float:
    """Effective rank of one matrix, through the kernel behind gap_report's ranks."""
    return _erank(_spectrum(m)[0])


# ---------------------------------------------------------- EmbeddingBatch

def test_batch_basic_properties():
    rng = np.random.default_rng(0)
    v = unit_rows(rng, 4, 3)
    b = gl.EmbeddingBatch(v, labels=np.array([0, 1, 1, 0]), modality="text")
    assert b.n == 4 and b.dim == 3
    assert b.labels.dtype == np.int64


def test_batch_validation():
    rng = np.random.default_rng(1)
    v = unit_rows(rng, 4, 3)
    with pytest.raises(ValueError):
        gl.EmbeddingBatch(v, labels=np.array([0, 1]))          # wrong length
    with pytest.raises(ValueError):
        gl.EmbeddingBatch(v, modality="audio")


@pytest.mark.parametrize("labels", [[0.5, 1.7, 2.9, 0.0], [0.0, 1.0, float("nan"), 2.0]])
def test_batch_rejects_non_integer_labels(labels):
    v = unit_rows(np.random.default_rng(1), 4, 3)
    with pytest.raises(ValueError, match="labels must be integers"):
        gl.EmbeddingBatch(v, labels=np.array(labels))


# ----------------------------------------------------------------- raw_gap

def test_raw_gap_identical_and_antipodal():
    rng = np.random.default_rng(2)
    v = unit_rows(rng, 8, 5)
    assert abs(gl.gap_report(v, v).raw_gap) < 1e-15
    assert abs(gl.gap_report(v, -v).raw_gap - 2.0) < 1e-15


def test_raw_gap_hand_case_orthogonal_pairs():
    v = np.array([[1.0, 0.0], [0.0, 1.0]])
    t = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert abs(gl.gap_report(v, t).raw_gap - 1.0) < 1e-15


def test_raw_gap_accepts_array_likes_and_checks_pairing():
    rng = np.random.default_rng(3)
    v, t = paired_batches(rng)
    direct = gl.gap_report(v, t)
    listed = gl.gap_report(v.tolist(), t.tolist())
    assert direct.raw_gap == listed.raw_gap
    assert direct == listed
    with pytest.raises(ValueError):
        gl.gap_report(v, t[:-1])
    with pytest.raises(ValueError, match="dim mismatch"):
        gl.gap_report(v, t[:, :-1])


def test_gap_report_rejects_sums_of_products_that_overflow_float64():
    rng = np.random.default_rng(36)
    v, t = rng.standard_normal((50, 8)), rng.standard_normal((50, 8))
    with pytest.raises(ValueError, match="can overflow"):
        gl.gap_report(1e200 * v, 1e200 * t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = gl.gap_report(1e150 * v, 1e150 * t)
    assert all(np.isfinite(getattr(r, f.name)) for f in fields(r))
    assert r.distribution_gap == pytest.approx(gl.gap_report(v, t).distribution_gap, rel=1e-12)
    with pytest.raises(ValueError, match="underflows"):
        gl.gap_report(2.0**-900 * v, 2.0**-900 * t)


# ------------------------------------------------------------ centroid_gap

def test_centroid_gap_values():
    rng = np.random.default_rng(4)
    v = unit_rows(rng, 6, 4)
    assert abs(gl.gap_report(v, v).centroid_gap) < 1e-15

    # Means e1 and e2, with a third column that keeps the centered rows
    # nonzero (a constant cloud has only degenerate pairs).
    spread = np.array([[1.0], [-1.0]] * 3)
    a = np.hstack([np.tile([1.0, 0.0], (6, 1)), spread])
    b = np.hstack([np.tile([0.0, 1.0], (6, 1)), spread])
    assert abs(gl.gap_report(a, b).centroid_gap - np.sqrt(2.0)) < 1e-15

    # Antipodal clouds sit two mean-lengths apart.
    expected = 2.0 * np.linalg.norm(v.mean(axis=0))
    assert abs(gl.gap_report(v, -v).centroid_gap - expected) < 1e-12


# -------------------------------------------------------- distribution_gap

def test_distribution_gap_translation_invariance():
    rng = np.random.default_rng(5)
    v, t = paired_batches(rng)
    base = gl.gap_report(v, t).distribution_gap
    for _ in range(50):
        shift = rng.standard_normal(v.shape[1]) * rng.uniform(0.1, 50.0)
        shifted = gl.gap_report(v + shift, t).distribution_gap
        assert abs(shifted - base) < 1e-10


def test_distribution_gap_loop_oracle():
    rng = np.random.default_rng(6)
    v, t = paired_batches(rng, n=7, d=4)
    r = gl.gap_report(v, t)
    got, excluded = r.distribution_gap, r.degenerate_pairs
    assert excluded == 0

    cv = v - v.mean(axis=0)
    ct = t - t.mean(axis=0)
    cos = [
        float(np.dot(cv[i] / np.linalg.norm(cv[i]), ct[i] / np.linalg.norm(ct[i])))
        for i in range(7)
    ]
    assert abs(got - (1.0 - float(np.mean(cos)))) < 1e-12


def test_distribution_gap_counts_degenerate_pairs():
    # First image row is the average of the other two, so it centers to zero.
    b = np.array([1.0, 0.0, 0.0])
    c = np.array([0.0, 1.0, 0.0])
    v = np.vstack([(b + c) / 2.0, b, c])
    rng = np.random.default_rng(7)
    t = unit_rows(rng, 3, 3)
    r = gl.gap_report(v, t)
    value, excluded = r.distribution_gap, r.degenerate_pairs
    assert excluded == 1
    assert np.isfinite(value)


def test_distribution_gap_all_degenerate_is_an_error():
    v = np.tile([0.5, 0.5], (3, 1))
    t = np.tile([0.1, 0.9], (3, 1))
    with pytest.raises(ValueError, match="all pairs are degenerate"):
        gl.gap_report(v, t)


def dense_unit_rows(m):
    """Single-block reference: every row scaled to unit norm, near-zero rows kept."""
    norms = np.linalg.norm(m, axis=1)
    bad = norms < 1e-12
    return m / np.where(bad, 1.0, norms)[:, None], bad


def dense_distribution_gap(v, t):
    vc, v_bad = dense_unit_rows(v - v.mean(axis=0))
    tc, t_bad = dense_unit_rows(t - t.mean(axis=0))
    keep = ~(v_bad | t_bad)
    return float(1.0 - np.einsum("ij,ij->i", vc[keep], tc[keep]).mean()), int((~keep).sum())


def with_rows_at_centroid(rng, n, d, rows):
    """Shifted Gaussian rows; the given rows are moved onto the centroid.

    Moving a row moves the centroid, so the move is repeated until the rows
    sit within rounding of it (each pass shrinks the miss by len(rows) / n).
    """
    m = rng.standard_normal((n, d)) + rng.standard_normal(d)
    for _ in range(12):
        m[rows] = m.mean(axis=0)
    return m


def test_blocked_distribution_gap_equals_the_dense_form_bit_for_bit():
    # Six full 256-row blocks and a partial one; odd d so that rows do not
    # share an alignment. Degenerate pairs fall in three different blocks,
    # from either modality and from both.
    rng = np.random.default_rng(12)
    n, d = 3 * 512 + 7, 13
    v = with_rows_at_centroid(rng, n, d, [5, 700, 1540])
    t = with_rows_at_centroid(rng, n, d, [700, 1100, 1541])
    want = dense_distribution_gap(v, t)
    assert want[1] == 5
    assert _distribution_gap(v, t, v.mean(axis=0), t.mean(axis=0)) == want
    report = gl.gap_report(v, t)
    assert (report.distribution_gap, report.degenerate_pairs) == want


def test_blocked_renormalize_equals_the_dense_form_bit_for_bit():
    rng = np.random.default_rng(13)
    n, d = 3 * 512 + 7, 13
    v = with_rows_at_centroid(rng, n, d, [9, 1200])
    t = rng.standard_normal((n, d))
    cv, ct = gl.mean_center(v, t, renormalize=True)
    for got, m in ((cv, v), (ct, t)):
        want, _ = dense_unit_rows(m - m.mean(axis=0))
        assert np.array_equal(got, want)


def test_all_degenerate_is_an_error_across_blocks():
    v = np.tile([0.5, 0.5, 0.25], (3 * 512 + 7, 1))
    with pytest.raises(ValueError, match="all pairs are degenerate"):
        gl.gap_report(v, np.random.default_rng(14).standard_normal(v.shape))


def test_distribution_gap_identical_clouds():
    rng = np.random.default_rng(8)
    v = unit_rows(rng, 9, 5)
    assert abs(gl.gap_report(v, v).distribution_gap) < 1e-12


# --------------------------------------------------------------- rotations

def test_gaps_are_orthogonal_invariant():
    rng = np.random.default_rng(9)
    v, t = paired_batches(rng)
    q = random_orthogonal(rng, v.shape[1])
    a = gl.gap_report(v @ q, t @ q)
    b = gl.gap_report(v, t)
    assert abs(a.raw_gap - b.raw_gap) < 1e-9
    assert abs(a.centroid_gap - b.centroid_gap) < 1e-9
    assert abs(a.distribution_gap - b.distribution_gap) < 1e-9


# -------------------------------------------------------------- mean_center

def test_mean_center_kills_centroid_gap_keeps_distribution_gap():
    rng = np.random.default_rng(10)
    v, t = paired_batches(rng)
    before = gl.gap_report(v, t).distribution_gap
    after = gl.gap_report(*gl.mean_center(v, t))
    assert after.centroid_gap < 1e-10
    assert abs(after.distribution_gap - before) < 1e-10


def test_mean_center_idempotent():
    rng = np.random.default_rng(11)
    v, t = paired_batches(rng)
    cv, ct = gl.mean_center(v, t)
    cv2, ct2 = gl.mean_center(cv, ct)
    assert np.max(np.abs(cv - cv2)) < 1e-12
    assert np.max(np.abs(ct - ct2)) < 1e-12


def test_mean_center_renormalize_and_metadata():
    rng = np.random.default_rng(12)
    v, t = paired_batches(rng)
    v32, t32 = v.astype(np.float32), t.astype(np.float32)
    cv, ct = gl.mean_center(v32, t32, renormalize=True)
    # two new float64 arrays of the inputs' shape, and the inputs keep their bits
    for out, m in ((cv, v32), (ct, t32)):
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.shape == m.shape
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)
    assert np.array_equal(v32, v.astype(np.float32)) and np.array_equal(t32, t.astype(np.float32))


@pytest.mark.parametrize("renormalize", [False, True])
def test_mean_center_refuses_out_of_range_inputs_before_any_work(renormalize):
    # The first column sum and centered entries overflow float64, though each
    # entry is finite; three rows of 1e308 overflow the column sum alone. A
    # RuntimeWarning from work already started would fail the test.
    texts = np.arange(6.0).reshape(3, 2)
    for images in ([[1.7e308, 1.0], [-1.7e308, 1.0], [-1.7e308, 2.0]], np.full((3, 2), 1e308)):
        with pytest.raises(ValueError, match="can overflow"):
            gl.mean_center(images, texts, renormalize=renormalize)
    # The renormalization's squared norms underflow at 2^-540; the translation
    # alone is exact there.
    v, t = paired_batches(np.random.default_rng(37))
    tiny = 2.0**-540
    if renormalize:
        with pytest.raises(ValueError, match="underflows"):
            gl.mean_center(tiny * v, tiny * t, renormalize=True)
    else:
        for small, unit in zip(gl.mean_center(tiny * v, tiny * t), gl.mean_center(v, t)):
            assert np.array_equal(small, tiny * unit)
    # Inside the range a power-of-two scaling moves no bit.
    scale = 2.0**400
    for big, unit in zip(gl.mean_center(scale * v, scale * t, renormalize=renormalize),
                         gl.mean_center(v, t, renormalize=renormalize)):
        assert np.array_equal(big, unit if renormalize else scale * unit)


def test_mean_center_needs_only_its_column_sums_in_range():
    # gap_report's 4 n d squares overflow at 1e200; the column sums do not
    rng = np.random.default_rng(41)
    v, t = 1e200 * rng.standard_normal((50, 8)), 1e200 * rng.standard_normal((50, 8))
    with pytest.raises(ValueError, match="can overflow"):
        gl.gap_report(v, t)
    with pytest.raises(ValueError, match="can overflow"):
        gl.mean_center(v, t, renormalize=True)
    cv, ct = gl.mean_center(v, t)
    assert np.array_equal(cv, v - v.mean(axis=0))
    assert np.array_equal(ct, t - t.mean(axis=0))


# ----------------------------------------------------------- effective rank

def test_effective_rank_hand_values():
    assert abs(erank(np.eye(4)) - 4.0) < 1e-9
    rank1 = np.outer([1.0, 2.0, 3.0], [1.0, 1.0])
    assert abs(erank(rank1) - 1.0) < 1e-9
    # Spectrum (1, 1, 0): two equal directions.
    flat = np.diag([1.0, 1.0, 0.0])
    assert abs(erank(flat) - 2.0) < 1e-9


def test_effective_rank_bounds_and_errors():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((20, 6))
    er = erank(m)
    assert 1.0 <= er <= 6.0 + 1e-12
    with pytest.raises(ValueError):
        erank(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        erank(m[:1])


def test_effective_rank_scale_invariant():
    rng = np.random.default_rng(14)
    m = rng.standard_normal((10, 5))
    assert abs(erank(m) - erank(m * 37.5)) < 1e-9


# ------------------------------------------------------------- fusion index

def test_fusion_index_identical_clouds_is_one():
    rng = np.random.default_rng(15)
    v = unit_rows(rng, 10, 6)
    assert abs(gl.gap_report(v, v).fusion_index - 1.0) < 1e-9


def test_fusion_index_orthogonal_subspaces_is_two():
    d, k = 8, 4
    v = np.eye(d)[:k]          # spans e1..e4
    t = np.eye(d)[k:]          # spans e5..e8
    assert abs(gl.gap_report(v, t).fusion_index - 2.0) < 1e-6


def erank_by_stacked_svd(m) -> float:
    """Effective rank from the SVD of the matrix itself, no R factor."""
    sv = np.linalg.svd(m, compute_uv=False)
    sv = sv[sv >= 1e-12 * sv[0]]
    p = sv / sv.sum()
    return float(np.exp(-(p * np.log(p)).sum()))


def _low_rank(rng, n, d, rank):
    return rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))


@pytest.mark.parametrize("case", ["tall", "wide", "wide_stack_tall", "unequal_rows",
                                  "rank_deficient"])
def test_r_factor_ranks_match_the_stacked_svd(case):
    rng = np.random.default_rng(20)
    v, t = {
        "tall": lambda: (rng.standard_normal((40, 6)), rng.standard_normal((40, 6))),
        "wide": lambda: (rng.standard_normal((3, 9)), rng.standard_normal((3, 9))),
        "wide_stack_tall": lambda: (rng.standard_normal((5, 8)), rng.standard_normal((6, 8))),
        "unequal_rows": lambda: (rng.standard_normal((25, 5)), rng.standard_normal((9, 5))),
        "rank_deficient": lambda: (_low_rank(rng, 30, 8, 2), _low_rank(rng, 20, 8, 3)),
    }[case]()
    er_v, er_t = erank_by_stacked_svd(v), erank_by_stacked_svd(t)
    er_joint = erank_by_stacked_svd(np.vstack([v, t]))

    def close(got, want):
        return abs(got - want) <= 1e-12 * abs(want)

    assert close(erank(v), er_v)
    assert close(erank(t), er_t)
    assert close(erank(np.vstack([v, t])), er_joint)
    assert close(_fusion(*_ranks(v, t)), er_joint / (0.5 * (er_v + er_t)))
    if v.shape[0] == t.shape[0]:
        r = gl.gap_report(v, t)
        assert close(r.erank_image, er_v) and close(r.erank_text, er_t)
        assert close(r.erank_joint, er_joint)
        assert close(r.fusion_index, er_joint / (0.5 * (er_v + er_t)))


# Columns of the Gram-path test matrices. The four test_cholesky_qr2_* tests
# keep the name of the factorization the Gram path replaced, so that their
# test ids stay stable; they pin the Gram path's conditioning guard and the
# Householder fallback.
GRAM_COLS = 24


def conditioned(rng, n, d, cond):
    """U diag(sigma) W' with sigma log-spaced from 1 down to 1/cond.

    At cond 10^2.5 the Gram's eigenvalue ratio is exactly the guard's 1e-5,
    so which side of the guard it lands on is up to rounding: no test uses it.
    """
    u, _ = np.linalg.qr(rng.standard_normal((n, d)))
    return (u * np.logspace(0.0, -np.log10(cond), d)) @ random_orthogonal(rng, d).T


def erank_by_householder(m) -> float:
    """The Householder path alone: SVD of the R of np.linalg.qr."""
    return erank_by_stacked_svd(np.linalg.qr(m, mode="r"))


def count_linalg_calls(monkeypatch, name) -> list:
    """Shapes of the arguments of every np.linalg.<name> call from here on."""
    calls = []
    original = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(gl.geometry.np.linalg, name, counted)
    return calls


def assert_ranks_match_the_stacked_svd(v, t, report=True):
    """The kernels' ranks, and gap_report's unless report is False, against the SVD."""
    er_v, er_t = erank_by_stacked_svd(v), erank_by_stacked_svd(t)
    er_joint = erank_by_stacked_svd(np.vstack([v, t]))
    fusion = er_joint / (0.5 * (er_v + er_t))

    def close(got, want):
        return abs(got - want) <= 1e-12 * abs(want)

    assert close(erank(v), er_v)
    assert close(erank(t), er_t)
    assert close(_fusion(*_ranks(v, t)), fusion)
    if not report:
        return
    r = gl.gap_report(v, t)
    assert close(r.erank_image, er_v) and close(r.erank_text, er_t)
    assert close(r.erank_joint, er_joint) and close(r.fusion_index, fusion)


def ranks_counting_calls(monkeypatch, v, t) -> tuple[int, int]:
    """(eigvalsh calls, Householder QR calls) of one _ranks(v, t)."""
    with monkeypatch.context() as patch:
        eighs = count_linalg_calls(patch, "eigvalsh")
        qrs = count_linalg_calls(patch, "qr")
        _ranks(v, t)
    return len(eighs), len(qrs)


def assert_gram_path_up_to_cond_1e2(monkeypatch, v, t, cond):
    fallback = erank_by_householder(v), erank_by_householder(t)
    assert_ranks_match_the_stacked_svd(v, t)
    if cond <= 1e2:
        # one eigvalsh per modality and one of G_v + G_t, no QR
        assert ranks_counting_calls(monkeypatch, v, t) == (3, 0)
    else:
        # the Gram's eigenvalues are not trusted here: Householder alone, bit for bit
        assert ranks_counting_calls(monkeypatch, v, t) == (2, 2)
        assert (erank(v), erank(t)) == fallback


@pytest.mark.parametrize("rows", [2 * GRAM_COLS, 8 * GRAM_COLS])
@pytest.mark.parametrize("cond", [1.0, 1e2, 1e3, 1e5, 1e7, 1e10])
def test_cholesky_qr2_ranks_match_the_stacked_svd(monkeypatch, cond, rows):
    rng = np.random.default_rng(21)
    v = conditioned(rng, rows, GRAM_COLS, cond)
    t = conditioned(rng, rows, GRAM_COLS, cond)
    assert_gram_path_up_to_cond_1e2(monkeypatch, v, t, cond)


@pytest.mark.parametrize("cond", [1e3, 1e5, 1.5e6, 1e7])
def test_cholesky_qr2_rejects_an_ill_conditioned_r1_before_the_second_pass(monkeypatch, cond):
    # One eigvalsh rejects the Gram; Householder alone does the rest.
    for rows in (2 * GRAM_COLS, 8 * GRAM_COLS):
        rng = np.random.default_rng(21)
        for m in (conditioned(rng, rows, GRAM_COLS, cond), conditioned(rng, rows, GRAM_COLS, cond)):
            r = np.linalg.qr(m, mode="r")
            with monkeypatch.context() as patch:
                eighs = count_linalg_calls(patch, "eigvalsh")
                qrs = count_linalg_calls(patch, "qr")
                sv, gram, got_r = _spectrum(m)
            assert (len(eighs), len(qrs), gram) == (1, 1, None)
            assert np.array_equal(got_r, r)
            assert _erank(sv) == erank_by_householder(m)


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e3, 1e5, 1e7])
def test_cholesky_qr2_over_several_row_blocks_and_a_blocked_inverse(monkeypatch, cond):
    # 1300 x 160: larger than GRAM_COLS on both axes.
    rng = np.random.default_rng(24)
    v, t = conditioned(rng, 1300, 160, cond), conditioned(rng, 1300, 160, cond)
    assert_gram_path_up_to_cond_1e2(monkeypatch, v, t, cond)


@pytest.mark.parametrize("case", ["rank_deficient", "wide", "overflowing"])
def test_cholesky_qr2_hands_rank_deficient_and_wide_inputs_to_householder(monkeypatch, case):
    rng = np.random.default_rng(22)
    shape = {"wide": (GRAM_COLS // 2, GRAM_COLS)}.get(case, (8 * GRAM_COLS, GRAM_COLS))
    if case == "rank_deficient":
        v = _low_rank(rng, *shape, GRAM_COLS // 2)
        t = _low_rank(rng, *shape, GRAM_COLS // 3)
    else:
        v, t = rng.standard_normal(shape), rng.standard_normal(shape)
    if case == "overflowing":  # m'm overflows to inf; the Householder R does not
        v, t = v * 1e200, t * 1e200
        with pytest.raises(ValueError, match="can overflow"):
            gl.gap_report(v, t)
    fallback = erank_by_householder(v), erank_by_householder(t)
    # no errstate: the kernels keep the Gram's overflow warning to themselves
    assert_ranks_match_the_stacked_svd(v, t, report=case != "overflowing")
    eighs, qrs = ranks_counting_calls(monkeypatch, v, t)
    assert (erank(v), erank(t)) == fallback
    assert (eighs, qrs) == ((2, 2) if case == "rank_deficient" else (0, 2))


def test_a_mixed_pair_takes_its_joint_rank_from_the_stacked_householder_factors(monkeypatch):
    rng = np.random.default_rng(27)
    v = conditioned(rng, 8 * GRAM_COLS, GRAM_COLS, 10.0)
    t = _low_rank(rng, 8 * GRAM_COLS, GRAM_COLS, GRAM_COLS // 2)
    assert _spectrum(v)[1] is not None and _spectrum(t)[1] is None
    assert_ranks_match_the_stacked_svd(v, t)
    stacked = np.vstack([np.linalg.qr(v, mode="r"), np.linalg.qr(t, mode="r")])
    assert _ranks(v, t)[2] == erank_by_stacked_svd(stacked)
    # both Grams are tried, then v's R is formed for the stack
    assert ranks_counting_calls(monkeypatch, v, t) == (2, 2)


@pytest.mark.parametrize("zero_side", ["image", "text"])
def test_an_all_zero_modality_has_no_effective_rank(zero_side):
    rng = np.random.default_rng(28)
    m, zero = rng.standard_normal((40, 6)), np.zeros((40, 6))
    pair = (zero, m) if zero_side == "image" else (m, zero)
    with pytest.raises(ValueError, match="all-zero matrix has no effective rank"):
        _ranks(*pair)


# --------------------------------------------------------------- gap_report

def test_gap_report_fields_match_individual_ops():
    rng = np.random.default_rng(17)
    v, t = paired_batches(rng, n=15, d=6)
    r = gl.gap_report(v, t)
    dist, excl = _distribution_gap(v, t, v.mean(axis=0), t.mean(axis=0))
    assert r.raw_gap == _raw_gap(v, t)
    assert r.centroid_gap == float(np.linalg.norm(v.mean(axis=0) - t.mean(axis=0)))
    assert r.distribution_gap == dist
    assert r.degenerate_pairs == excl
    assert r.n_pairs == 15
    assert r.erank_image == erank(v)
    assert r.erank_text == erank(t)
    assert r.fusion_index == _fusion(*_ranks(v, t))


def test_gap_report_identical_batches():
    rng = np.random.default_rng(18)
    v = unit_rows(rng, 12, 5)
    r = gl.gap_report(v, v)
    assert abs(r.raw_gap) < 1e-12
    assert abs(r.centroid_gap) < 1e-12
    assert abs(r.distribution_gap) < 1e-12
    assert abs(r.fusion_index - 1.0) < 1e-9


def test_gap_report_json_round_trip_and_summary():
    rng = np.random.default_rng(19)
    v, t = paired_batches(rng)
    r = gl.gap_report(v, t)
    data = json.loads(json.dumps(asdict(r)))
    again = gl.GapReport(**data)
    assert again == r
    s = r.summary()
    for key in ("raw_gap=", "centroid_gap=", "distribution_gap=", "fusion_index="):
        assert key in s


def test_gap_report_validates_once_and_skips_householder(monkeypatch):
    """Counts scans by the input check, numerics._checked_matrix (as_matrix
    runs through it), through every gaplab module that binds it, so a
    re-import under another name is caught too: one scan per matrix, for
    float64 arrays and for float32 ones that need a cast alike."""
    rng = np.random.default_rng(23)
    v = conditioned(rng, 600, 24, 10.0)
    t = conditioned(rng, 600, 24, 10.0)
    singles = v.astype(np.float32), t.astype(np.float32)
    calls = count_linalg_calls(monkeypatch, "qr")
    checks = []
    original = gl.numerics._checked_matrix

    def counted(*args, **kwargs):
        checks.append(1)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("gaplab") and getattr(mod, "_checked_matrix", None) is original:
            monkeypatch.setattr(mod, "_checked_matrix", counted)

    gl.gap_report(v, t)
    assert (len(checks), calls) == (2, [])
    checks.clear()
    gl.gap_report(*singles)
    assert (len(checks), calls) == (2, [])
