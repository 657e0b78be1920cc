import ast
import re
import sys
from dataclasses import astuple, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gaplab as gl
from gaplab import embfile, evalkit, geometry, losses, numerics, sweep, trainkit

from conftest import row_cross_entropy, similarity_matrix, unit_rows


# ---------------------------------------------------------------- as_matrix

def test_as_matrix_accepts_lists_and_casts():
    m = gl.as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.shape == (2, 2)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        gl.as_matrix(np.zeros(3))          # 1-D
    with pytest.raises(ValueError):
        gl.as_matrix(np.zeros((0, 3)))     # empty
    with pytest.raises(ValueError):
        gl.as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        gl.as_matrix(np.array([[np.inf, 1.0]]))


# Every public entry point that takes an embedding matrix, with the private
# kernels it runs once its inputs pass: (call, module, kernels, labelled). A
# labelled entry takes one matrix and its labels; the others take a pair.
TEMP = gl.Temperature()
CHECKED_ENTRIES = {
    "gap_report": (lambda v, t, _: gl.gap_report(v, t), geometry,
                   ["_raw_gap", "_distribution_gap", "_ranks"], False),
    "mean_center": (lambda v, t, _: gl.mean_center(v, t), geometry, ["_center_into"], False),
    "recall_at_k": (lambda v, t, _: gl.recall_at_k(v, t, 1), evalkit,
                    ["_screened_hits", "_ranked_hits"], False),
    "clip_loss": (lambda v, t, _: gl.clip_loss(v, t, TEMP), losses,
                  ["_reweighted", "_intra", "_cma"], False),
    "reweighted_loss": (lambda v, t, _: gl.reweighted_loss(v, t, TEMP, 0.05), losses,
                        ["_reweighted", "_intra", "_cma"], False),
    "intra_loss": (lambda v, t, _: gl.intra_loss(v, t, TEMP), losses,
                   ["_reweighted", "_intra", "_cma"], False),
    "cma_loss": (lambda v, t, _: gl.cma_loss(v, t, TEMP, 0.5), losses,
                 ["_reweighted", "_intra", "_cma"], False),
    "EmbeddingBatch": (lambda m, labels, _: gl.EmbeddingBatch(m, labels=labels), None, [], True),
    "write_embeddings": (lambda m, labels, path: gl.write_embeddings(path, m, labels), embfile,
                         ["_atomic_write"], True),
}
INPUT_FAULTS = ["NaN", "+inf", "-inf", "count mismatch", "dim mismatch"]


def faulty_inputs(fault, labelled):
    """A 12 x 4 pair with the fault: a non-finite entry (NaN in the images,
    an infinity in the texts), or texts one row or one column short. For a
    labelled entry, the matrix is the pair's sum, so either entry reaches it,
    and the mismatches are labels one short and labels as a column."""
    rng = np.random.default_rng(39)
    v, t = rng.standard_normal((12, 4)), rng.standard_normal((12, 4))
    labels = np.arange(12) % 3
    if fault == "count mismatch":
        return (v, labels[:-1]) if labelled else (v, t[:-1])
    if fault == "dim mismatch":
        return (v, labels[:, None]) if labelled else (v, t[:, :-1])
    (v if fault == "NaN" else t)[3, 2] = {"NaN": np.nan, "+inf": np.inf, "-inf": -np.inf}[fault]
    return (v + t, labels) if labelled else (v, t)


@pytest.mark.parametrize("fault", INPUT_FAULTS)
@pytest.mark.parametrize("entry", list(CHECKED_ENTRIES))
def test_every_embedding_input_is_checked_before_any_kernel_runs(entry, fault, monkeypatch,
                                                                  tmp_path):
    call, module, kernels, labelled = CHECKED_ENTRIES[entry]

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{entry} ran a kernel on a {fault} input")

    for name in kernels:
        monkeypatch.setattr(module, name, must_not_run)
    if fault in ("NaN", "+inf", "-inf"):
        message = "contains NaN or Inf entries"
    elif labelled:
        message = "labels must have length"
    else:
        message = "pair count mismatch" if fault == "count mismatch" else "embedding dim mismatch"
    with pytest.raises(ValueError, match=message):
        call(*faulty_inputs(fault, labelled), tmp_path / "out.emb")
    assert not any(tmp_path.iterdir())


# ------------------------------------------------------------ row blocks

B = numerics._BLOCK_ROWS


@pytest.mark.parametrize("n, rows, want", [
    (1, 0, [(0, 1)]),
    (B - 1, 0, [(0, B - 1)]),
    (B, 0, [(0, B)]),
    (B + 1, 0, [(0, B), (B, B + 1)]),
    (10, 4, [(0, 4), (4, 8), (8, 10)]),
])
def test_row_blocks_cover_the_rows_in_order(n, rows, want):
    assert [(s.start, s.stop) for s in numerics._row_blocks(n, rows)] == want


# Every caller of _row_blocks, as (V, T, .emb path) -> outputs.
BLOCK_CONSUMERS = {
    "gap_report": lambda v, t, path: astuple(gl.gap_report(v, t)),
    "mean_center": lambda v, t, path: gl.mean_center(v, t, renormalize=True),
    "kmeans": lambda v, t, path: evalkit._kmeans((v, t), 4, 0),
    "recall@1": lambda v, t, path: gl.recall_at_k(v, t, 1),
    "recall@3": lambda v, t, path: gl.recall_at_k(v, t, 3),
    "emb": lambda v, t, path: gl.write_embeddings(path, v) or gl.read_embeddings(path)[:1],
}


@pytest.mark.parametrize("consumer", list(BLOCK_CONSUMERS))
def test_row_block_consumers_have_the_one_block_bits(consumer, monkeypatch, tmp_path):
    # 53 rows in 7-row blocks end on a partial block. Four classes give the
    # k-means means rows in every block, and texts near their images make
    # most queries hits, so a lost block would show in recall.
    n, d = 53, 5
    rng = np.random.default_rng(44)
    v = 3.0 * rng.standard_normal((4, d))[np.arange(n) % 4] + rng.standard_normal((n, d))
    t = v + 0.3 * rng.standard_normal((n, d))

    def run(rows):
        monkeypatch.setattr(numerics, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(embfile, "_CHUNK_BYTES", 4 * d * rows)  # .emb passes its own rows
        return [np.asarray(x).tobytes() for x in BLOCK_CONSUMERS[consumer](v, t, tmp_path / "v.emb")]

    assert run(7) == run(n)


def test_only_numerics_sizes_or_slices_row_blocks():
    # The block size and the block loop live in numerics: no other module
    # defines a *BLOCK* constant or a range with a step. embfile's byte budget
    # reaches the loop as _row_blocks(n, _chunk_rows(d)).
    found = []
    for path in sorted(Path(gl.__file__).parent.glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and "BLOCK" in node.id:
                found.append(f"{path.name}:{node.lineno} defines {node.id}")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "range" and len(node.args) == 3):
                found.append(f"{path.name}:{node.lineno} slices rows with a stepped range")
    assert not found


def test_only_numerics_holds_the_float64_range_rule():
    # The rule's constants (unit roundoffs _U*, smallest normals _TINY*) and
    # every finfo call live in numerics; other modules import them.
    found = []
    for path in sorted(Path(gl.__file__).parent.glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and node.id.startswith(("_U", "_TINY"))):
                found.append(f"{path.name}:{node.lineno} defines {node.id}")
            if isinstance(node, ast.Call) and "finfo" in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
                found.append(f"{path.name}:{node.lineno} calls finfo")
    assert not found


# ------------------------------------------------------- the scalar rule

def _tiny_configs():
    cur = gl.CurriculumConfig(anchor_epochs=1, ramp_epochs=1, stabilize_epochs=1)
    return (gl.TrainConfig(curriculum=cur, batch_size=8, hidden_dim=8, embed_dim=4),
            gl.SynthConfig(n_classes=4, samples_per_class=10, latent_dim=4,
                           image_input_dim=6, text_input_dim=5))


def _cluster_batches():
    rng = np.random.default_rng(5)
    labels = np.arange(12) % 3
    return (gl.EmbeddingBatch(unit_rows(rng, 12, 4), labels=labels),
            gl.EmbeddingBatch(unit_rows(rng, 12, 4), labels=labels, modality="text"))


def _config_site(cls, name):
    return lambda x: cls(**{name: x})


TC, SC = _tiny_configs()
BATCHES = _cluster_batches()
EYE = np.eye(3)


def _config_beyond(f, integer):
    """For each end a config field declares, the nearest value it refuses (the
    end itself if open, the next integer or float past it if closed) and the
    bounds as the refusal states them."""
    meta, ends = f.metadata, []
    lower = ("low", "[", ">=") if "low" in meta else ("above", "(", ">") if "above" in meta else None
    upper = ("high", "]", "<=") if "high" in meta else ("below", ")", "<") if "below" in meta else None
    bound = (f"in {lower[1]}{meta[lower[0]]}, {meta[upper[0]]}{upper[1]}" if lower and upper
             else f"{(lower or upper)[2]} {meta[(lower or upper)[0]]}" if lower or upper else None)
    for end, direction in ((lower, -1), (upper, 1)):
        if end is not None:
            value = meta[end[0]]
            if end[0] in ("low", "high"):
                value = value + direction if integer else np.nextafter(value, direction * np.inf)
            ends.append((value, bound))
    return ends


# Every call site of numerics._scalar: (call taking the value, the name its
# messages start with, whether it takes an integer, an accepted value, and
# values outside its bounds, each with the bounds as the refusal states them).
SCALAR_SITES = {
    **{f"{cls.__name__}.{f.name}": (_config_site(cls, f.name), f.name, f.type == "int",
                                    getattr(cls(), f.name), _config_beyond(f, f.type == "int"))
       for cls in (gl.SynthConfig, gl.TrainConfig, gl.CurriculumConfig)
       for f in fields(cls) if f.type in ("int", "float")},
    "scheduler_new": (lambda x: gl.scheduler_new(gl.CurriculumConfig(), x), "steps_per_epoch", True, 12,
                      [(0, ">= 1")]),
    "phase_of": (lambda x: gl.phase_of(gl.scheduler_new(gl.CurriculumConfig(), 4), x), "global_step", True, 11,
                 [(40, "in [0, 39]")]),
    "recall_at_k": (lambda x: gl.recall_at_k(EYE, EYE, x), "k", True, 2, [(0, ">= 1")]),
    "joint_clustering_eval": (lambda x: gl.joint_clustering_eval(*BATCHES, seed=x), "seed", True, 3,
                              [(-1, ">= 0")]),
    "run_sweep.seeds": (lambda x: gl.run_sweep(TC, SC, [0.5], [x], max_workers=1), "seeds", True, 1,
                        [(-1, ">= 0")]),
    "run_sweep.max_workers": (lambda x: gl.run_sweep(TC, SC, [0.5], [0], max_workers=x), "max_workers", True, 1,
                              [(0, ">= 1")]),
    "run_sweep.alphas": (lambda x: gl.run_sweep(TC, SC, [x], [0], max_workers=1), "alphas", False, 0.5,
                         [(1.5, "in [0, 1]")]),
    "train.alpha": (lambda x: gl.train(TC, SC, alpha=x), "alpha", False, 0.5, [(-0.5, "in [0, 1]")]),
    "cma_loss.alpha": (lambda x: gl.cma_loss(EYE, EYE, TEMP, x), "alpha", False, 0.5, [(1.5, "in [0, 1]")]),
    "reweighted_loss.beta": (lambda x: gl.reweighted_loss(EYE, EYE, TEMP, x), "beta", False, 0.025,
                             [(0.06, "in [0, 0.05]")]),
    "finite_diff_check.h": (lambda x: gl.finite_diff_check(gl.clip_loss, EYE, EYE, TEMP, h=x), "h", False, 1e-5,
                            [(1e-2, "in [1e-07, 0.001]")]),
    "Temperature.log_scale": (gl.Temperature, "log_scale", False, 1.0, [(5.0, f"<= {gl.LOG_SCALE_MAX}")]),
    "scheduler_step": (lambda x: gl.scheduler_step(gl.scheduler_new(gl.CurriculumConfig(), 4), x),
                       "observed loss", False, 0.7, [(-0.5, ">= 0")]),
}


def spy_on_work(monkeypatch) -> list:
    """The names of the work functions called from now on: the matrix check,
    the synthetic data build and a sweep's runs, through every gaplab module
    that binds them."""
    calls = []

    def spied(name, fn):
        def run(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return run

    for name, original in (("_checked_matrix", numerics._checked_matrix),
                           ("synth_dataset", trainkit.synth_dataset),
                           ("_anchor", sweep._anchor), ("_cell", sweep._cell)):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("gaplab") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, spied(name, original))
    return calls


@pytest.mark.parametrize("site", list(SCALAR_SITES))
def test_every_scalar_argument_goes_through_the_one_rule(site, monkeypatch):
    call, name, integer, good, beyond = SCALAR_SITES[site]
    work = spy_on_work(monkeypatch)
    refused = (True, np.bool_(True), "1") + ((1.5,) if integer else ())
    for bad in refused:
        noun = "an integer" if integer else "a number"
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be {noun}, got {re.escape(repr(bad))}$"):
            call(bad)
    # beyond the float64 range; a float32 is compared in float64, without a warning
    for big in (10**400,) if integer else (np.float32(np.inf), Fraction(10**400)):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite, got "):
            call(big)
    for bad, bound in beyond:  # the range refusal states the bounds and the value as checked
        got = repr(int(bad) if integer else float(bad))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {bound}, got {got}')}$"):
            call(bad)
    assert work == []  # refused before any work
    for value in (good, np.int64(good)) if integer else (good, np.float32(good)):
        call(value)


@pytest.mark.parametrize("value", [None, {}, gl.SynthConfig()], ids=["None", "dict", "SynthConfig"])
def test_a_nested_config_field_holds_its_config_class(value):
    with pytest.raises(ValueError, match=f"^curriculum must be a CurriculumConfig, got {re.escape(repr(value))}$"):
        gl.TrainConfig(curriculum=value)


def test_only_numerics_holds_the_scalar_rule():
    # No other module tests a value's type against bool, int, float, the
    # numbers ABCs or NumPy's scalar types: each argument goes through _scalar.
    scalar_types = {"bool", "int", "float", "numbers", "Integral", "Real", "integer", "floating"}
    found = []
    for path in sorted(Path(gl.__file__).parent.glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node.args[1])}
                if named & scalar_types:
                    found.append(f"{path.name}:{node.lineno} tests a scalar type")
    assert not found


# ----------------------------------------------------- l2_normalize_rows

def test_normalize_three_four_five():
    out, bad = gl.l2_normalize_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(out, [[0.6, 0.8]], atol=1e-15)
    assert not bad.any()


def test_normalize_is_idempotent():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 5)) * 10.0
    once, _ = gl.l2_normalize_rows(m)
    twice, _ = gl.l2_normalize_rows(once)
    assert np.max(np.abs(once - twice)) < 1e-15


def test_normalize_flags_zero_rows_and_passes_them_through():
    m = np.array([[0.0, 0.0], [1.0, 0.0]])
    out, bad = gl.l2_normalize_rows(m)
    assert bad.tolist() == [True, False]
    assert np.array_equal(out[0], [0.0, 0.0])
    assert np.allclose(out[1], [1.0, 0.0])


def test_normalize_scales_rows_beyond_the_float64_square_range():
    # The squares of the first two rows overflow float64: each row must still
    # come back as its unit direction, with no RuntimeWarning.
    m = np.array([[1e200, 1e200], [1.7e308, -1.7e308], [3.0, 4.0]])
    out, bad = gl.l2_normalize_rows(m)
    assert not bad.any()
    s = 0.5 ** 0.5
    assert np.allclose(out, [[s, s], [s, -s], [0.6, 0.8]], rtol=0, atol=1e-15)
    assert np.array_equal(out[2], gl.l2_normalize_rows([[3.0, 4.0]])[0][0])


def test_normalize_threshold_is_strict():
    # A row just above the threshold is normalized, one below is flagged.
    m = np.array([[1e-11, 0.0], [1e-13, 0.0]])
    out, bad = gl.l2_normalize_rows(m)
    assert bad.tolist() == [False, True]
    assert np.allclose(out[0], [1.0, 0.0])


# ---------------------------------------------------- similarity_matrix
# The einsum similarity and the row cross-entropy are the loss tests' oracles
# (tests/conftest.py); these tests pin the oracles themselves.

def test_similarity_identity_and_antipodal():
    v = np.eye(3)
    s = similarity_matrix(v, v)
    assert np.array_equal(s, np.eye(3))
    s2 = similarity_matrix(v, -v)
    assert np.array_equal(np.diag(s2), [-1.0, -1.0, -1.0])


def test_similarity_matches_loop_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((3, 5))
    s = similarity_matrix(a, b)
    for i in range(4):
        for j in range(3):
            assert abs(s[i, j] - float(np.dot(a[i], b[j]))) < 1e-12


def test_similarity_self_is_exactly_symmetric():
    # Exact (bitwise) symmetry is relied on by the loss gradients.
    rng = np.random.default_rng(11)
    for n, d in [(8, 4), (257, 64)]:
        v = unit_rows(rng, n, d)
        s = similarity_matrix(v, v)
        assert np.array_equal(s, s.T)


def test_similarity_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        similarity_matrix(np.zeros((2, 3)), np.zeros((2, 4)))


# ------------------------------------------------------- row_cross_entropy

def test_cross_entropy_single_logit_is_zero():
    loss, grad = row_cross_entropy(np.array([[5.0]]), np.array([0]))
    assert loss == 0.0
    assert np.array_equal(grad, [[0.0]])


def test_cross_entropy_two_by_two_hand_value():
    # Uniform diagonal logits 1, off-diagonal 0: loss = log(1 + e^-1).
    logits = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, _ = row_cross_entropy(logits, np.array([0, 1]))
    assert abs(loss - np.log1p(np.exp(-1.0))) < 1e-15


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    h = 1e-5
    for _ in range(10):
        logits = rng.standard_normal((4, 4)) * 2.0
        labels = rng.integers(0, 4, size=4)
        _, grad = row_cross_entropy(logits, labels)
        for i in range(4):
            for j in range(4):
                lp = logits.copy()
                lm = logits.copy()
                lp[i, j] += h
                lm[i, j] -= h
                num = (row_cross_entropy(lp, labels)[0]
                       - row_cross_entropy(lm, labels)[0]) / (2 * h)
                denom = max(abs(num), abs(grad[i, j]), 1e-12)
                assert abs(num - grad[i, j]) / denom < 1e-6


def test_cross_entropy_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(10)
    logits = rng.standard_normal((6, 5))
    labels = rng.integers(0, 5, size=6)
    _, grad = row_cross_entropy(logits, labels)
    assert np.max(np.abs(grad.sum(axis=1))) < 1e-15


def test_cross_entropy_rejects_bad_labels():
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError):
        row_cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(ValueError):
        row_cross_entropy(logits, np.array([-1, 0]))
    with pytest.raises(ValueError):
        row_cross_entropy(logits, np.array([0]))
