"""Train the toy dual encoder end to end and watch the gap close.

Runs the full pipeline on a synthetic paired dataset: three-phase schedule,
manual backprop through both towers and the learnable scale, Adam updates,
and a per-epoch gap report on the held-out split. Finishes with the retrieval
and clustering numbers and a save/load round trip of the embeddings.
"""

import tempfile
from dataclasses import asdict
from pathlib import Path

import gaplab as gl


def main():
    synth = gl.SynthConfig(n_classes=12, samples_per_class=60,
                           latent_dim=12, image_input_dim=24,
                           text_input_dim=18, noise_sigma=0.15, seed=3)
    cfg = gl.TrainConfig(
        curriculum=gl.CurriculumConfig(anchor_epochs=2, ramp_epochs=5,
                                       stabilize_epochs=2, alpha_target=0.4),
        batch_size=64, hidden_dim=48, embed_dim=12, seed=3,
    )
    n_total = synth.n_classes * synth.samples_per_class
    print(f"{n_total} pairs, {synth.n_classes} classes, "
          f"{cfg.epochs} epochs at batch {cfg.batch_size}")
    print()

    _, temp, history = gl.train(cfg, synth)

    print(f"{'epoch':>5}  {'alpha':>6}  {'loss':>7}  {'raw_gap':>8}  "
          f"{'dist_gap':>8}  {'fusion':>6}")
    for rec in history:
        row = asdict(rec)
        gap = row["gap"]
        print(f"{row['epoch']:5d}  {row['alpha']:6.3f}  {row['loss']:7.4f}  "
              f"{gap['raw_gap']:8.4f}  {gap['distribution_gap']:8.4f}  "
              f"{gap['fusion_index']:6.3f}")
    print()
    print(f"learned similarity scale: {temp.scale:.2f} (cap 100)")
    print()

    # ---- final numbers on the held-out split, as the last epoch encoded it ----
    vi, vt, labels = history.eval_pair
    i2t1, t2i1 = gl.recall_at_k(vi, vt, 1)
    i2t5, t2i5 = gl.recall_at_k(vi, vt, 5)
    # clustering and the probe read labels: they take labelled batches
    images, texts = gl.EmbeddingBatch(vi, labels), gl.EmbeddingBatch(vt, labels, modality="text")
    cluster = gl.joint_clustering_eval(images, texts, seed=3)
    probe = gl.interchangeability_probe(texts, images)
    print(f"eval split ({len(vi)} pairs):")
    print(f"  joint clustering   ARI {cluster.ari:.3f}, V-measure {cluster.v_measure:.3f}")
    print(f"  retrieval R@1      i2t {i2t1:.3f}, t2i {t2i1:.3f}")
    print(f"  retrieval R@5      i2t {i2t5:.3f}, t2i {t2i5:.3f}")
    print(f"  text->image probe  {probe:.3f}")
    print()

    # ---- embeddings survive the binary container ----
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "eval_images.emb"
        gl.write_embeddings(path, vi, labels)
        back, back_labels = gl.read_embeddings(path)
        print(f"wrote {path.name}: {path.stat().st_size} bytes, "
              f"shape {back.shape}, labels intact: {(back_labels == labels).all()}")
        print(f"float32 round-trip max error: "
              f"{abs(back - vi).max():.1e}")


if __name__ == "__main__":
    main()
