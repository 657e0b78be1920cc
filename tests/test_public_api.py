import importlib

import gaplab as gl

LIBRARY_MODULES = ("curriculum", "embfile", "evalkit", "geometry",
                   "losses", "numerics", "sweep", "trainkit")

# every name the package exported before it was built from the submodules'
# __all__ lists, minus train_constant_alpha (now train(..., alpha=)) and
# AdamState and adam_step (train owns its optimizer step; the per-key Adam is
# the reference oracle in tests/test_trainkit.py)
EXPORTED_BEFORE = """
CSV_HEADER ClusterReport CurriculumConfig CurriculumState
DEFAULT_LOG_SCALE EmbeddingBatch Encoder EncoderCache EpochRecord GapReport
LABEL_MAGIC LOG_SCALE_MAX LOSS_IDS LossOutput MAGIC MODALITIES
NonFiniteLossError PairedDataset Phase RunHistory SWEEP_FIELDS SweepRecord
SweepRunError SynthConfig Temperature TrainConfig
adjusted_rand_index analytic_bundles as_matrix atomic_write_bytes
centroid_gap clip_loss clip_loss_decomposed cma_loss distribution_gap
effective_rank encode_pairs encoder_backward encoder_forward
finite_diff_check fusion_index gap_report gradient_discrepancy
interchangeability_probe intra_loss joint_clustering_eval kmeans
l2_normalize_rows linear_fit_r2 mean_center mean_record numeric_bundle
pca_project_2d phase_of raw_gap read_embeddings recall_at_k reweighted_loss
row_cross_entropy run_single run_sweep scheduler_new scheduler_step
similarity_matrix singular_values softmax_rows state_from_snapshot
sweep_to_csv synth_dataset train v_measure worker_count write_embeddings
""".split()


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
    assert len(EXPORTED_BEFORE) == 73
    assert set(EXPORTED_BEFORE) <= set(gl.__all__)
    for removed in ("train_constant_alpha", "AdamState", "adam_step"):
        assert removed not in gl.__all__
    namespace = {}
    exec("from gaplab import *", namespace)
    assert set(EXPORTED_BEFORE) <= set(namespace)
