"""Command-line surface.

Subcommands: analyze (gap report for two embedding files), center (mean-center
both modalities), train (one full curriculum run), sweep (train/eval grid over
alpha targets and seeds), and correlate (line fit between two sweep columns).

Exit codes: 0 success, 2 input or validation error, 3 runtime numerical
failure. All outputs are written atomically and are byte-deterministic for
fixed inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import pathlib
import sys

import numpy as np

from .embfile import _atomic_write, _check_float32, _write_checked, read_embeddings, write_embeddings
from .evalkit import linear_fit_r2
from .geometry import _center_into, gap_report
from .sweep import SweepRunError, run_sweep, sweep_to_csv
from .trainkit import NonFiniteLossError, SynthConfig, TrainConfig, train

__all__ = ["main", "entrypoint", "load_run_config"]


def _atomic_write_text(path, text: str) -> None:
    _atomic_write(path, lambda f: f.write(text.encode("utf-8")))


def _build_config(cls, data: dict, where: str):
    """cls(**data) after checking each key against the field names of cls, with
    each JSON object of a nested config field built the same way first; an
    error that starts with a key's name is prefixed with the section, where."""
    factories = {f.name: f.default_factory for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(factories))
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    data = {key: _build_config(factories[key], value, f"{where}.{key}")
            if isinstance(value, dict) and dataclasses.is_dataclass(factories[key]) else value
            for key, value in data.items()}
    try:
        return cls(**data)
    except ValueError as exc:
        if str(exc).split(" ", 1)[0] in data:
            raise ValueError(f"{where}.{exc}") from None
        raise


def load_run_config(path) -> tuple[TrainConfig, SynthConfig]:
    """Parse and validate a run-config JSON file.

    Schema: {"synth": {...}, "train": {..., "curriculum": {...}}}. Every key
    is optional and falls back to the toy defaults; unknown keys anywhere, and
    sections that are not objects, are rejected.
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

    synth_raw, train_raw = raw.get("synth", {}), raw.get("train", {})
    if not isinstance(synth_raw, dict) or not isinstance(train_raw, dict):
        raise ValueError(f"{path}: 'synth' and 'train' must be JSON objects")
    synth_cfg = _build_config(SynthConfig, synth_raw, "synth")
    return _build_config(TrainConfig, train_raw, "train"), synth_cfg


def _check_out_dirs(*paths, inputs=()) -> None:
    """Reject an output that is a directory, whose directory is missing or
    unwritable, or that names the same file as an input or an earlier
    output, before any work."""
    for i, path in enumerate(paths):
        if os.path.isdir(path):
            raise ValueError(f"{path}: output path is a directory")
        directory = os.path.dirname(os.fspath(path)) or "."
        if not os.path.isdir(directory):
            raise ValueError(f"{path}: output directory {directory} does not exist")
        if not os.access(directory, os.W_OK | os.X_OK):
            raise ValueError(f"{path}: output directory {directory} is not writable")
        for other in (*inputs, *paths[:i]):
            if os.path.realpath(other) == os.path.realpath(path):
                raise ValueError(f"{path}: output path is the same file as {other}")


def cmd_analyze(args) -> int:
    _check_out_dirs(args.out, inputs=(args.images, args.texts))
    (images, _), (texts, _) = read_embeddings(args.images), read_embeddings(args.texts)
    report = gap_report(images, texts)
    _atomic_write_text(args.out, json.dumps(dataclasses.asdict(report), indent=2) + "\n")
    print(report.summary())
    return 0


def cmd_center(args) -> int:
    _check_out_dirs(args.out_images, args.out_texts, inputs=(args.images, args.texts))
    (images, image_labels), (texts, text_labels) = read_embeddings(args.images), read_embeddings(args.texts)
    before = gap_report(images, texts)
    for m in (images, texts):  # the pair is ours: center it in place
        _center_into(m, m, args.renormalize)
    after = gap_report(images, texts)
    for path, m in ((args.out_images, images), (args.out_texts, texts)):
        _check_float32(m, path)  # both, before either file is written
    _write_checked(args.out_images, images, image_labels)
    _write_checked(args.out_texts, texts, text_labels)
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
    out_dir = pathlib.Path(args.out_dir).absolute()
    made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]  # deepest first
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        encoders, temp, history = train(train_cfg, synth_cfg)
        _atomic_write_text(os.path.join(args.out_dir, "history.jsonl"), history.to_jsonl())
        for name, batch, enc in zip(("image", "text"), history.eval_batches, encoders):
            write_embeddings(os.path.join(args.out_dir, f"eval_{name}s.emb"), batch.vectors, batch.labels)
            _write_checkpoint(args.out_dir, name, enc)
        _atomic_write_text(
            os.path.join(args.out_dir, "temperature.json"),
            json.dumps({"log_scale": temp.log_scale}) + "\n",
        )
    except BaseException:
        for path in made:  # a failed run leaves none of them, unless it holds a file
            with contextlib.suppress(OSError):
                path.rmdir()
        raise

    last = history[-1]
    print(f"epochs={len(history)} final_loss={last.loss:.6f} final_alpha={last.alpha:.6f}")
    print(last.gap.summary())
    return 0


def _parse_list(text: str, flag: str, kind) -> list:
    try:
        return [kind(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        noun = "integer" if kind is int else "number"
        raise ValueError(f"{flag} must be a comma-separated {noun} list, got {text!r}") from exc


def cmd_sweep(args) -> int:
    _check_out_dirs(args.out, inputs=(args.config,))
    train_cfg, synth_cfg = load_run_config(args.config)
    alphas = _parse_list(args.alphas, "--alphas", float)
    seeds = _parse_list(args.seeds, "--seeds", int)
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
    if any(r[name] is None for r in rows):
        raise ValueError(f"{path}: a row is too short to hold column {name!r}")
    try:
        return np.array([float(r[name]) for r in rows])
    except ValueError as exc:
        raise ValueError(f"{path}: column {name!r} has a non-numeric entry") from exc


def cmd_correlate(args) -> int:
    _check_out_dirs(args.out, inputs=(args.sweep,))
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
        try:
            result[f"r_squared_{col}"] = linear_fit_r2(_csv_column(rows, col, args.sweep), y)[2]
        except ValueError:  # a missing or non-numeric column, or a constant one
            result[f"r_squared_{col}"] = None
    _atomic_write_text(args.out, json.dumps(result, indent=2) + "\n")
    print(f"r_squared({args.x} -> {args.y}) = {r_squared:.6f} over {len(rows)} rows")
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteLossError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: arrays too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
