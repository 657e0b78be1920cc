"""End-to-end acceptance checks for the whole package.

Each check prints one verdict line; conftest's terminal-summary hook replays
the lines after the run so they stay visible when everything passes. The
checks pin the tolerances and time budgets the package commits to, from exact
algebraic identities through full train/evaluate sweeps on the toy scale.
"""

import json
import time
from dataclasses import asdict

import numpy as np
import pytest

import gaplab as gl
from gaplab import cli as cli_mod

from conftest import bound_losses, end_to_end_fd_error, row_cross_entropy, similarity_matrix, unit_rows
from test_evalkit import ari_by_pair_enumeration, v_measure_by_entropies

RESULTS = []


def check(index: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{index:2d}/11] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" | {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def random_pair(seed: int, n: int = 6, d: int = 4):
    rng = np.random.default_rng(seed)
    return unit_rows(rng, n, d), unit_rows(rng, n, d), gl.Temperature(float(rng.uniform(0.0, 2.5)))


# ------------------------------------------------------------ shared sweeps

@pytest.fixture(scope="module")
def default_sweep():
    """Scheduled runs at the toy defaults: 4 alpha targets x 3 seeds."""
    alphas = [0.0, 0.05, 0.3, 0.7]
    rows = gl.run_sweep(gl.TrainConfig(), gl.SynthConfig(), alphas=alphas, seeds=[0, 1, 2])
    # mean alpha_target of 3 float runs need not be bitwise equal to the
    # requested alpha, so key the mean rows by block position instead
    mean_rows = [rec for label, rec in rows if label == "mean"]
    return {"alphas": alphas, "means": dict(zip(alphas, mean_rows)), "rows": rows}


@pytest.fixture(scope="module")
def ablation_runs():
    """Curriculum vs pinned alpha at 0.5 on the noisier synthetic variant."""
    synth = gl.SynthConfig(noise_sigma=0.8)
    tc = gl.TrainConfig()
    seeds = [0, 1, 2, 3, 4]
    scheduled = gl.run_sweep(tc, synth, [0.5], seeds, scheduled=True)
    pinned = gl.run_sweep(tc, synth, [0.5], seeds, scheduled=False)
    pick = lambda rows: next(rec for label, rec in rows if label == "mean")
    return pick(scheduled), pick(pinned)


@pytest.fixture(scope="module")
def contrastive_only_rows():
    rows = gl.run_sweep(gl.TrainConfig(), gl.SynthConfig(), [0.0], [0, 1, 2, 3, 4])
    return [rec for label, rec in rows if label != "mean"]


# ----------------------------------------------------------------- checks


def test_01_blend_endpoints_are_exact():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        v, t, temp = random_pair(seed)
        lo = gl.cma_loss(v, t, temp, 0.0)
        clip = gl.clip_loss(v, t, temp)
        hi = gl.cma_loss(v, t, temp, 1.0)
        intra = gl.intra_loss(v, t, temp)
        for a, b in ((lo, clip), (hi, intra)):
            worst = max(
                worst,
                abs(a.loss - b.loss),
                float(np.max(np.abs(a.grad_images - b.grad_images))),
                float(np.max(np.abs(a.grad_texts - b.grad_texts))),
                abs(a.grad_log_scale - b.grad_log_scale),
            )
    elapsed = time.perf_counter() - started
    check(1, "blend endpoints reproduce both parent losses",
          worst <= 1e-12 and elapsed < 1.0,
          f"worst deviation {worst:.2e} over 20 inputs, {elapsed:.2f}s")


def test_02_analytic_gradients_match_finite_differences():
    started = time.perf_counter()
    worst_loss = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        v, _ = gl.l2_normalize_rows(rng.standard_normal((4, 3)))
        t, _ = gl.l2_normalize_rows(rng.standard_normal((4, 3)))
        temp = gl.Temperature(float(rng.uniform(0.0, 2.5)))
        alpha = float(rng.uniform(0.05, 0.95))
        beta = float(rng.uniform(0.0, 0.05))
        for loss in bound_losses(alpha, beta).values():
            worst_loss = max(worst_loss, gl.finite_diff_check(loss, v, t, temp))
    worst_chain = max(end_to_end_fd_error(seed) for seed in range(20))
    elapsed = time.perf_counter() - started
    check(2, "every analytic gradient survives finite differences",
          worst_loss < 1e-5 and worst_chain < 1e-4 and elapsed < 30.0,
          f"losses {worst_loss:.2e} (<1e-5), encoder chain {worst_chain:.2e} (<1e-4), {elapsed:.1f}s")


def test_03_distribution_gap_ignores_translations():
    started = time.perf_counter()
    rng = np.random.default_rng(100)
    v = unit_rows(rng, 24, 8)
    t = unit_rows(rng, 24, 8)
    base = gl.gap_report(v, t).distribution_gap
    worst_shift = 0.0
    for _ in range(50):
        sv = rng.standard_normal(8) * rng.uniform(0.1, 30.0)
        st = rng.standard_normal(8) * rng.uniform(0.1, 30.0)
        shifted = gl.gap_report(v + sv, t + st).distribution_gap
        worst_shift = max(worst_shift, abs(shifted - base))
    after = gl.gap_report(*gl.mean_center(v, t))
    centroid_after = after.centroid_gap
    dist_after = after.distribution_gap
    drift = abs(dist_after - base)
    elapsed = time.perf_counter() - started
    check(3, "distribution gap is translation-blind and centering kills only the centroid gap",
          worst_shift <= 1e-10 and centroid_after < 1e-10 and drift < 1e-10 and elapsed < 1.0,
          f"shift dev {worst_shift:.2e}, centroid {centroid_after:.2e}, drift {drift:.2e}")


def test_04_attraction_repulsion_recompose_the_cross_entropy():
    worst = 0.0
    for seed in range(20):
        v, t, temp = random_pair(seed, n=7, d=5)
        split = gl.clip_loss(v, t, temp).diagnostics
        align, oppose = split["align_term"], split["oppose_term"]
        logits = temp.scale * similarity_matrix(v, t)
        i2t, _ = row_cross_entropy(logits, np.arange(7))
        worst = max(worst, abs((align + oppose) - i2t))
    check(4, "attraction + repulsion equals the retrieval cross-entropy",
          worst <= 1e-10, f"worst residual {worst:.2e} over 20 seeds")


def test_05_schedule_contract_holds_for_random_runs():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    violations = 0
    for _ in range(20):
        cfg = gl.CurriculumConfig(
            anchor_epochs=int(rng.integers(0, 4)),
            ramp_epochs=int(rng.integers(1, 5)),
            stabilize_epochs=int(rng.integers(0, 3)),
            alpha_target=float(rng.uniform(0.05, 1.0)),
        )
        spe = int(rng.integers(1, 8))
        for _ in range(100):
            state = gl.scheduler_new(cfg, spe)
            losses = rng.uniform(0.0, 5.0, size=state.total_steps)
            prev = 0.0
            for step, loss in enumerate(losses):
                alpha = gl.scheduler_step(state, float(loss))
                phase = gl.phase_of(state, step)
                ok = alpha <= cfg.alpha_target + 1e-15 and alpha >= prev - 1e-15
                if phase is gl.Phase.ANCHOR:
                    ok = ok and alpha == 0.0
                elif phase is gl.Phase.STABILIZE:
                    ok = ok and alpha == cfg.alpha_target
                else:
                    remaining = state.ramp_end_step - step
                    if remaining == 1:
                        ok = ok and alpha == cfg.alpha_target
                    else:
                        base = (cfg.alpha_target - prev) / remaining
                        if base > 1e-15:
                            factor = (alpha - prev) / base
                            ok = ok and 0.5 - 1e-9 <= factor <= 1.5 + 1e-9
                violations += not ok
                prev = alpha
            violations += prev != cfg.alpha_target
    elapsed = time.perf_counter() - started
    check(5, "blend schedule respects its phase and speed contract",
          violations == 0 and elapsed < 5.0,
          f"0 violations over 20 configs x 100 loss sequences, {elapsed:.1f}s")


def test_06_clustering_scores_match_brute_force():
    started = time.perf_counter()
    rng = np.random.default_rng(6)
    worst_ari = worst_v = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        pred = rng.integers(0, 5, n)
        truth = rng.integers(0, 5, n)
        worst_ari = max(worst_ari, abs(
            gl.adjusted_rand_index(pred, truth)
            - ari_by_pair_enumeration(pred.tolist(), truth.tolist())))
        worst_v = max(worst_v, abs(gl.v_measure(pred, truth) - v_measure_by_entropies(pred, truth)))

    perfect = rng.integers(0, 4, 50)
    remap = rng.permutation(4)[perfect]
    exact_one = (gl.adjusted_rand_index(remap, perfect) == 1.0
                 and gl.v_measure(remap, perfect) == 1.0)

    a = rng.integers(0, 10, 10000)
    b = rng.integers(0, 10, 10000)
    ari_indep = abs(gl.adjusted_rand_index(a, b))
    v_indep = abs(gl.v_measure(a, b))
    elapsed = time.perf_counter() - started
    check(6, "clustering agreement scores match brute-force oracles",
          worst_ari <= 1e-12 and worst_v <= 1e-12 and exact_one
          and ari_indep < 0.05 and v_indep < 0.05 and elapsed < 10.0,
          f"oracle dev ari {worst_ari:.1e} / v {worst_v:.1e}, "
          f"independent ari {ari_indep:.3f} / v {v_indep:.3f}, {elapsed:.1f}s")


def test_07_stronger_blend_shrinks_the_gap(default_sweep):
    means = default_sweep["means"]
    alphas = [0.0, 0.05, 0.3, 0.7]
    dist = [means[a].distribution_gap for a in alphas]
    raw0 = means[0.0].raw_gap
    raw_hi = means[0.7].raw_gap
    decreasing = all(hi > lo for hi, lo in zip(dist, dist[1:]))
    check(7, "raising the blend target strictly shrinks the distribution gap",
          decreasing and raw_hi <= 0.5 * raw0,
          "G_dist " + " > ".join(f"{x:.4f}" for x in dist)
          + f"; raw {raw_hi:.4f} <= 0.5*{raw0:.4f}")


def test_08_distribution_gap_predicts_transfer(default_sweep):
    means = default_sweep["means"]
    alphas = [0.0, 0.05, 0.3, 0.7]
    probe = [means[a].probe_accuracy for a in alphas]
    dist = [means[a].distribution_gap for a in alphas]
    raw = [means[a].raw_gap for a in alphas]
    monotone = all(b >= a for a, b in zip(probe, probe[1:]))
    _, _, r2_dist = gl.linear_fit_r2(dist, probe)
    _, _, r2_raw = gl.linear_fit_r2(raw, probe)
    check(8, "distribution gap predicts cross-modal transfer at least as well as the raw gap",
          monotone and r2_dist >= r2_raw - 0.02 and r2_dist >= 0.8,
          f"probe {' -> '.join(f'{p:.3f}' for p in probe)}; "
          f"R2 dist {r2_dist:.4f} vs raw {r2_raw:.4f}")


def test_09_curriculum_beats_pinned_alpha(ablation_runs):
    scheduled, pinned = ablation_runs
    rel_gap = abs(scheduled.distribution_gap - pinned.distribution_gap) / pinned.distribution_gap
    check(9, "scheduling the blend clusters at least as well as pinning it, at a matched gap",
          scheduled.ari >= pinned.ari and rel_gap <= 0.15,
          f"ARI {scheduled.ari:.4f} >= {pinned.ari:.4f}; gap diff {rel_gap * 100:.1f}% (<=15%)")


def test_10_file_format_and_cli_agree_with_the_library(tmp_path):
    started = time.perf_counter()
    rng = np.random.default_rng(10)
    v = unit_rows(rng, 40, 6)
    t = unit_rows(rng, 40, 6)
    labels = np.arange(40) % 8
    vp, tp = tmp_path / "v.emb", tmp_path / "t.emb"
    gl.write_embeddings(vp, v, labels)
    gl.write_embeddings(tp, t, labels)

    back, back_labels = gl.read_embeddings(vp)
    lossless = (np.array_equal(back, v.astype(np.float32).astype(np.float64))
                and np.array_equal(back_labels, labels))

    out = tmp_path / "report.json"
    assert cli_mod.main(["analyze", "--images", str(vp), "--texts", str(tp),
                         "--out", str(out)]) == 0
    report_cli = json.loads(out.read_text())
    report_mem = gl.gap_report(v, t)
    numeric_drift = max(
        abs(report_cli[key] - value)
        for key, value in asdict(report_mem).items()
        if isinstance(value, float)
    )

    captured = []
    cv, ct = tmp_path / "cv.emb", tmp_path / "ct.emb"
    for _ in range(2):
        assert cli_mod.main(["analyze", "--images", str(vp), "--texts", str(tp),
                             "--out", str(out)]) == 0
        assert cli_mod.main(["center", "--images", str(vp), "--texts", str(tp),
                             "--out-images", str(cv), "--out-texts", str(ct)]) == 0
        captured.append((out.read_bytes(), cv.read_bytes(), ct.read_bytes()))
    deterministic = captured[0] == captured[1]
    elapsed = time.perf_counter() - started
    check(10, "the embedding container round-trips and the CLI mirrors the library",
          lossless and numeric_drift <= 1e-5 and deterministic and elapsed < 5.0,
          f"round-trip exact, analyze drift {numeric_drift:.1e} (<=1e-5), "
          f"reruns byte-identical, {elapsed:.1f}s")


def test_11_contrastive_training_alone_leaves_a_gap(contrastive_only_rows):
    raw_gaps = [rec.raw_gap for rec in contrastive_only_rows]
    hits = sum(g > 0.05 for g in raw_gaps)
    check(11, "contrastive-only training leaves a persistent modality gap",
          hits >= 4,
          f"raw gap > 0.05 in {hits}/5 seeds: " + ", ".join(f"{g:.3f}" for g in raw_gaps))
