"""Command-line surface.

Subcommands: analyze (gap report for two embedding files), center (mean-center
both modalities), train (one full curriculum run), sweep (train/eval grid over
alpha targets and seeds), correlate (line fit between two sweep columns), and
plot (2-D PCA scatter of both modalities as an SVG).

Exit codes: 0 success, 2 input or validation error, 3 runtime numerical
failure. All outputs are written atomically and are byte-deterministic for
fixed inputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

import numpy as np

from .curriculum import CurriculumConfig
from .embfile import atomic_write_bytes, read_embeddings, write_embeddings
from .evalkit import linear_fit_r2
from .geometry import EmbeddingBatch, gap_report, mean_center
from .numerics import pca_project_2d
from .sweep import SweepRunError, run_sweep, sweep_to_csv
from .trainkit import NonFiniteLossError, SynthConfig, TrainConfig, epoch_steps, train

__all__ = ["main", "entrypoint", "load_run_config", "render_svg"]


def _atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def _build_config(cls, data: dict, where: str, exclude=()):
    """cls(**data) after checking each key against the field names and types of cls."""
    types = {f.name: f.type for f in dataclasses.fields(cls) if f.name not in exclude}
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if types[key] in (int, "int"):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{where}.{key} must be an integer, got {value!r}")
            kwargs[key] = value
        else:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{where}.{key} must be a number, got {value!r}")
            kwargs[key] = float(value)
    return cls(**kwargs)


def load_run_config(path) -> tuple[TrainConfig, SynthConfig]:
    """Parse and validate a run-config JSON file.

    Schema: {"synth": {...}, "train": {..., "curriculum": {...}}}. Every key
    is optional and falls back to the toy defaults; unknown keys anywhere are
    rejected. The curriculum's steps_per_epoch is not offered: training always
    computes it from the data.
    """
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(raw) - {"synth", "train"})
    if unknown:
        raise ValueError(f"{path}: unknown top-level key(s): {', '.join(unknown)}")

    synth_raw = raw.get("synth", {})
    train_raw = dict(raw.get("train", {}))
    if not isinstance(synth_raw, dict) or not isinstance(train_raw, dict):
        raise ValueError(f"{path}: 'synth' and 'train' must be JSON objects")
    curriculum_raw = train_raw.pop("curriculum", {})
    if not isinstance(curriculum_raw, dict):
        raise ValueError(f"{path}: 'train.curriculum' must be a JSON object")

    synth_cfg = _build_config(SynthConfig, synth_raw, "synth")
    curriculum = _build_config(CurriculumConfig, curriculum_raw, "train.curriculum",
                               exclude={"steps_per_epoch"})
    train_cfg = _build_config(TrainConfig, train_raw, "train", exclude={"curriculum"})
    train_cfg = dataclasses.replace(train_cfg, curriculum=curriculum)
    return train_cfg, synth_cfg


def _read_pair(images_path, texts_path):
    v, v_labels = read_embeddings(images_path)
    t, t_labels = read_embeddings(texts_path)
    if v.shape[0] != t.shape[0]:
        raise ValueError(
            f"pair count mismatch: {images_path} has {v.shape[0]} rows, "
            f"{texts_path} has {t.shape[0]}"
        )
    if v.shape[1] != t.shape[1]:
        raise ValueError(
            f"dimension mismatch: {images_path} is {v.shape[1]}-d, "
            f"{texts_path} is {t.shape[1]}-d"
        )
    images = EmbeddingBatch(v, labels=v_labels, modality="image")
    texts = EmbeddingBatch(t, labels=t_labels, modality="text")
    return images, texts


def cmd_analyze(args) -> int:
    images, texts = _read_pair(args.images, args.texts)
    report = gap_report(images, texts)
    _atomic_write_text(args.out, json.dumps(dataclasses.asdict(report), indent=2) + "\n")
    print(report.summary())
    return 0


def cmd_center(args) -> int:
    images, texts = _read_pair(args.images, args.texts)
    before = gap_report(images, texts)
    centered_images, centered_texts = mean_center(images, texts, renormalize=args.renormalize)
    after = gap_report(centered_images, centered_texts)
    write_embeddings(args.out_images, centered_images.vectors, centered_images.labels)
    write_embeddings(args.out_texts, centered_texts.vectors, centered_texts.labels)
    print(f"before: {before.summary()}")
    print(f"after:  {after.summary()}")
    return 0


def _write_checkpoint(out_dir: str, name: str, enc) -> None:
    """Write an encoder's weights as four float32 .emb files.

    The float64 weights are rounded to float32, so encoders reloaded from
    these files reproduce eval_*.emb only to within one float32 ulp; the
    files are a snapshot for inspection, not an exact resume point.
    """
    for key, param in zip(("w1", "b1", "w2", "b2"), (enc.w1, enc.b1, enc.w2, enc.b2)):
        write_embeddings(os.path.join(out_dir, f"{name}_{key}.emb"), np.atleast_2d(param))


def cmd_train(args) -> int:
    train_cfg, synth_cfg = load_run_config(args.config)
    epoch_steps(train_cfg, synth_cfg)  # reject the config before creating out_dir
    os.makedirs(args.out_dir, exist_ok=True)
    (img_enc, txt_enc), temp, history = train(train_cfg, synth_cfg)

    _atomic_write_text(os.path.join(args.out_dir, "history.jsonl"), history.to_jsonl())
    images, texts = history.eval_batches
    write_embeddings(os.path.join(args.out_dir, "eval_images.emb"), images.vectors, images.labels)
    write_embeddings(os.path.join(args.out_dir, "eval_texts.emb"), texts.vectors, texts.labels)
    _write_checkpoint(args.out_dir, "image", img_enc)
    _write_checkpoint(args.out_dir, "text", txt_enc)
    _atomic_write_text(
        os.path.join(args.out_dir, "temperature.json"),
        json.dumps({"log_scale": temp.log_scale}) + "\n",
    )

    last = history[-1]
    print(f"epochs={len(history)} final_loss={last.loss:.6f} final_alpha={last.alpha:.6f}")
    print(last.gap.summary())
    return 0


def _parse_float_list(text: str, flag: str) -> list:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag} must be a comma-separated number list, got {text!r}") from exc


def _parse_int_list(text: str, flag: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag} must be a comma-separated integer list, got {text!r}") from exc


def cmd_sweep(args) -> int:
    train_cfg, synth_cfg = load_run_config(args.config)
    alphas = _parse_float_list(args.alphas, "--alphas")
    seeds = _parse_int_list(args.seeds, "--seeds")
    try:
        rows = run_sweep(train_cfg, synth_cfg, alphas, seeds, scheduled=not args.constant_alpha)
    except SweepRunError as exc:
        _atomic_write_text(args.out, sweep_to_csv(exc.rows, failure=(exc.alpha, exc.seed)))
        print(f"sweep aborted, partial table in {args.out}: {exc}", file=sys.stderr)
        return 3
    _atomic_write_text(args.out, sweep_to_csv(rows))
    print(f"wrote {len(rows)} rows ({len(alphas)} alpha levels x {len(seeds)} seeds + means) to {args.out}")
    return 0


def _csv_column(rows: list, name: str, path) -> np.ndarray:
    if not rows or name not in rows[0]:
        raise ValueError(f"{path}: no column named {name!r}")
    try:
        return np.array([float(r[name]) for r in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: column {name!r} has a non-numeric entry") from exc


def cmd_correlate(args) -> int:
    with open(args.sweep, "r", encoding="utf-8", newline="") as f:
        all_rows = list(csv.DictReader(f))
    rows = [r for r in all_rows if r.get("seed") == "mean"]
    if not rows:
        rows = [r for r in all_rows
                if r.get("seed", "").isdigit() and all(v != "" for v in r.values())]
    x = _csv_column(rows, args.x, args.sweep)
    y = _csv_column(rows, args.y, args.sweep)
    slope, intercept, r_squared = linear_fit_r2(x, y)
    result = {
        "x": args.x,
        "y": args.y,
        "n_rows": len(rows),
        "slope": slope,
        "intercept": intercept,
        "r_squared": r_squared,
    }
    # always report how the two gap flavors compare as predictors of y
    for col in ("distribution_gap", "raw_gap"):
        key = f"r_squared_{col}"
        if rows and col in rows[0]:
            try:
                series = _csv_column(rows, col, args.sweep)
                result[key] = linear_fit_r2(series, y)[2]
            except ValueError:
                result[key] = None
        else:
            result[key] = None
    _atomic_write_text(args.out, json.dumps(result, indent=2) + "\n")
    print(f"r_squared({args.x} -> {args.y}) = {r_squared:.6f} over {len(rows)} rows")
    return 0


def render_svg(images: EmbeddingBatch, texts: EmbeddingBatch) -> str:
    """Joint 2-D PCA scatter: circles are images, squares are texts.

    Pure function of the inputs with fixed float formatting, so output bytes
    are stable across runs.
    """
    n = images.n
    proj = pca_project_2d(np.vstack([images.vectors, texts.vectors]))
    report = gap_report(images, texts)

    width, height, margin = 640.0, 480.0, 42.0
    lo = proj.min(axis=0)
    hi = proj.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)

    def place(p):
        x = margin + (p[0] - lo[0]) / span[0] * (width - 2 * margin)
        y = height - margin - (p[1] - lo[1]) / span[1] * (height - 2 * margin - 18.0)
        return x, y

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">\n'
    )
    out.write('<rect width="100%" height="100%" fill="white"/>\n')
    for p in proj[:n]:
        x, y = place(p)
        out.write(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="3.5" fill="#3366cc" fill-opacity="0.65"/>\n')
    for p in proj[n:]:
        x, y = place(p)
        out.write(
            f'<rect x="{x - 3.0:.3f}" y="{y - 3.0:.3f}" width="6" height="6" '
            f'fill="#cc3333" fill-opacity="0.65"/>\n'
        )
    out.write(
        f'<text x="{margin:.0f}" y="20" font-family="sans-serif" font-size="12">'
        f'images: circles, texts: squares</text>\n'
    )
    out.write(
        f'<text x="{margin:.0f}" y="{height - 14.0:.0f}" font-family="sans-serif" font-size="12">'
        f"{report.summary()}</text>\n"
    )
    out.write("</svg>\n")
    return out.getvalue()


def cmd_plot(args) -> int:
    images, texts = _read_pair(args.images, args.texts)
    _atomic_write_text(args.out, render_svg(images, texts))
    print(f"wrote scatter of {2 * images.n} points to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaplab",
        description="Modality-gap analysis, alignment-loss training, and sweep tooling "
                    "for paired embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="gap report for a pair of embedding files")
    p.add_argument("--images", required=True)
    p.add_argument("--texts", required=True)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("center", help="subtract each modality's centroid")
    p.add_argument("--images", required=True)
    p.add_argument("--texts", required=True)
    p.add_argument("--out-images", required=True)
    p.add_argument("--out-texts", required=True)
    p.add_argument("--renormalize", action="store_true",
                   help="re-project rows to the unit sphere after centering")
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("train", help="one full curriculum training run")
    p.add_argument("--config", required=True, help="run-config JSON path")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="train and evaluate a grid of alpha targets")
    p.add_argument("--config", required=True, help="run-config JSON path")
    p.add_argument("--alphas", required=True, help="comma-separated alpha targets")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds (default 0,1,2)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--constant-alpha", action="store_true",
                   help="pin alpha from the first step instead of scheduling it")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("correlate", help="line fit between two sweep columns")
    p.add_argument("--sweep", required=True, help="sweep CSV path")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("plot", help="SVG scatter of the joint 2-D PCA projection")
    p.add_argument("--images", required=True)
    p.add_argument("--texts", required=True)
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteLossError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
