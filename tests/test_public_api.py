import importlib
import os
import subprocess
import sys
from pathlib import Path

import gaplab as gl

LIBRARY_MODULES = ("curriculum", "embfile", "evalkit", "geometry",
                   "losses", "numerics", "sweep", "trainkit")

# the exact public surface: a new public name must be added here on purpose.
# Removed over time: train_constant_alpha (now train(..., alpha=)); AdamState
# and adam_step (train owns its optimizer step; the per-key Adam is the
# reference oracle in tests/test_trainkit.py); analytic_bundles, LOSS_IDS,
# numeric_bundle and gradient_discrepancy (finite_diff_check takes a loss
# callable); softmax_rows and singular_values (nothing called them);
# state_from_snapshot (nothing resumes a schedule); clip_loss_decomposed
# (clip_loss's diagnostics carry the same split); encoder_forward,
# encoder_backward, encode_pairs and EncoderCache (train's run calls the
# private kernels); similarity_matrix and row_cross_entropy (the loss
# oracles in tests/conftest.py); raw_gap, centroid_gap,
# distribution_gap, effective_rank, fusion_index and kmeans (gap_report
# reports every statistic, and joint_clustering_eval clusters through the
# private _kmeans); and pca_project_2d (only the retired plot subcommand
# drew with it).
PUBLIC_NAMES = """
CSV_HEADER ClusterReport CurriculumConfig CurriculumState
DEFAULT_LOG_SCALE EmbeddingBatch Encoder EpochRecord GapReport
LABEL_MAGIC LOG_SCALE_MAX LossOutput MAGIC MODALITIES
NonFiniteLossError PairedDataset Phase RunHistory SWEEP_FIELDS SweepRecord
SweepRunError SynthConfig Temperature TrainConfig
adjusted_rand_index as_matrix atomic_write_bytes
clip_loss cma_loss epoch_steps finite_diff_check gap_report
interchangeability_probe intra_loss joint_clustering_eval
l2_normalize_rows linear_fit_r2 mean_center mean_record
phase_of read_embeddings recall_at_k reweighted_loss
run_single run_sweep scheduler_new scheduler_step
sweep_to_csv synth_dataset train v_measure worker_count write_embeddings
""".split()
REMOVED = ("train_constant_alpha", "AdamState", "adam_step", "analytic_bundles", "LOSS_IDS",
           "numeric_bundle", "gradient_discrepancy", "softmax_rows", "singular_values",
           "state_from_snapshot", "clip_loss_decomposed", "encoder_forward", "encoder_backward",
           "encode_pairs", "EncoderCache", "similarity_matrix", "row_cross_entropy",
           "raw_gap", "centroid_gap", "distribution_gap", "effective_rank", "fusion_index",
           "kmeans", "pca_project_2d")


def test_package_all_is_the_union_of_the_library_modules():
    assert len(gl.__all__) == len(set(gl.__all__))
    union = set()
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"gaplab.{name}")
        union.update(module.__all__)
        for attr in module.__all__:
            assert getattr(gl, attr) is getattr(module, attr)
    assert set(gl.__all__) == union


def test_package_keeps_every_earlier_export():
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 53
    assert set(gl.__all__) == set(PUBLIC_NAMES)
    for removed in REMOVED:
        assert removed not in gl.__all__
        assert not hasattr(gl, removed)
    namespace = {}
    exec("from gaplab import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


def test_importing_gaplab_loads_no_process_pool():
    # only a parallel sweep forks: train, analyze and center should not pay
    # for multiprocessing at import
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, gaplab; print(sorted(m for m in sys.modules if m == 'multiprocessing'"
            " or m.startswith('concurrent.futures')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
