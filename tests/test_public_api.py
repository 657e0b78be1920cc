import ast
import importlib
import os
import re
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
# private _kmeans); pca_project_2d (only the retired plot subcommand drew
# with it); and MAGIC, LABEL_MAGIC, MODALITIES, CSV_HEADER, worker_count,
# epoch_steps, mean_record and atomic_write_bytes (each had one owner,
# which now holds it privately).
PUBLIC_NAMES = """
ClusterReport CurriculumConfig CurriculumState
DEFAULT_LOG_SCALE EmbeddingBatch Encoder EpochRecord GapReport
LOG_SCALE_MAX LossOutput
NonFiniteLossError PairedDataset Phase RunHistory SWEEP_FIELDS SweepRecord
SweepRunError SynthConfig Temperature TrainConfig
adjusted_rand_index as_matrix
clip_loss cma_loss finite_diff_check gap_report
interchangeability_probe intra_loss joint_clustering_eval
l2_normalize_rows linear_fit_r2 mean_center
phase_of read_embeddings recall_at_k reweighted_loss
run_single run_sweep scheduler_new scheduler_step
sweep_to_csv synth_dataset train v_measure write_embeddings
""".split()
REMOVED = ("train_constant_alpha", "AdamState", "adam_step", "analytic_bundles", "LOSS_IDS",
           "numeric_bundle", "gradient_discrepancy", "softmax_rows", "singular_values",
           "state_from_snapshot", "clip_loss_decomposed", "encoder_forward", "encoder_backward",
           "encode_pairs", "EncoderCache", "similarity_matrix", "row_cross_entropy",
           "raw_gap", "centroid_gap", "distribution_gap", "effective_rank", "fusion_index",
           "kmeans", "pca_project_2d", "MAGIC", "LABEL_MAGIC", "MODALITIES", "CSV_HEADER",
           "worker_count", "epoch_steps", "mean_record", "atomic_write_bytes")
ROOT = Path(__file__).resolve().parents[1]


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
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 45
    assert set(gl.__all__) == set(PUBLIC_NAMES)
    for removed in REMOVED:
        assert removed not in gl.__all__
        assert not hasattr(gl, removed)
    namespace = {}
    exec("from gaplab import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


def _module_level_names(path: Path) -> set:
    """Names a module's own top-level statements define: defs, classes and assignments."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_each_library_module_defines_exactly_its_all_in_public():
    # cli is left out: its cmd_* functions are public for the benchmark's tracer
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"gaplab.{name}")
        public = {n for n in _module_level_names(Path(module.__file__)) if not n.startswith("_")}
        assert public == set(module.__all__), name


def test_every_public_name_is_documented_in_the_readme_or_a_demo():
    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))])
    missing = [n for n in gl.__all__ if not re.search(rf"\b{re.escape(n)}\b", text)]
    assert missing == []


def test_importing_gaplab_loads_no_process_pool():
    # only a parallel sweep forks: train, analyze and center should not pay
    # for multiprocessing at import
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, gaplab; print(sorted(m for m in sys.modules if m == 'multiprocessing'"
            " or m.startswith('concurrent.futures')))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
