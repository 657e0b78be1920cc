"""The benchmark's three workloads and the oracles that check every op.

Each workload has ``setup()`` (writes its inputs and prepares the oracle's
expected values), ``op(i)`` (the timed call into gaplab) and ``check(result)``
(the oracle, run outside the timed region; raises ``CheckFailed``). Ops reach
gaplab only through module attributes (``cli.main``, ``evalkit.recall_at_k``)
so that a traced run's rebound wrappers see every call. The oracles call no
gaplab function, so a traced run records no span outside an op. The dump
oracle's dense set-up work runs in a forked child, so that the benchmark
process's peak RSS is the ops' own.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import multiprocessing
import os
import shutil
import struct
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from gaplab import cli, embfile, evalkit, geometry, sweep, trainkit

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# train: op i trains seed (workload seed + i) % TRAIN_SEEDS, so every seed
# repeats within a run and its stored reference applies.
TRAIN_SEEDS = 4
TRAIN_ARTIFACTS = frozenset(
    ["history.jsonl", "eval_images.emb", "eval_texts.emb", "temperature.json"]
    + [f"{side}_{p}.emb" for side in ("image", "text") for p in ("w1", "b1", "w2", "b2")]
)
# Final-epoch values vs the stored reference: relative, so that a BLAS kernel
# that sums in another order does not fail a run whose training is unchanged.
TRAIN_REL_TOL = 1e-6

# sweep: seeds (s, s + 1) with s = seed % SWEEP_SEEDS (references per s).
SWEEP_SEEDS = 4
SWEEP_ALPHAS = (0.0, 0.25, 0.5)
SWEEP_REL_TOL = 1e-6     # CSV values vs the stored reference, as for train

# dump: one pair per run, from seed % DUMP_SEEDS (references are stored per seed).
DUMP_SEEDS = 4
DUMP_N, DUMP_D, DUMP_CLASSES = 4096, 512, 32
GAP_REL_TOL = 1e-9       # analyze JSON vs dense formulas, relative to max(1, |x|)
CENTER_ATOL = 1e-6       # centered float32 rows vs the float32-rounded formula
CLUSTER_ATOL = 1e-6      # ARI and V-measure vs the stored reference
INERTIA_REL_TOL = 1e-6
PROBE_ATOL = 1e-12       # probe accuracy is a count over n
CENTERED_EXPECTED = ("images_c.expected.npy", "texts_c.expected.npy")


class CheckFailed(Exception):
    """An op's output disagrees with its oracle."""


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as f:
        return json.load(f)


def run_cli(argv) -> int:
    """``gaplab.cli.main(argv)`` with its summary lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got: float, want: float, rel: float, what: str, floor: float = 0.0) -> None:
    """``|got - want| <= rel * max(floor, |want|)``: relative, or absolute below floor."""
    _expect(math.isfinite(got) and abs(got - want) <= rel * max(floor, abs(want)),
            f"{what}: got {got!r}, want {want!r} (rel tol {rel})")


def in_child(fn, *args):
    """``fn(*args)`` in a forked process, returning its (picklable) result."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
        return pool.submit(fn, *args).result()


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


# -- train --------------------------------------------------------------------


def final_epoch(history: bytes) -> dict:
    """The reference quantities from the last line of a history.jsonl."""
    last = json.loads(history.decode("utf-8").splitlines()[-1])
    return {"loss": last["loss"], "raw_gap": last["gap"]["raw_gap"],
            "distribution_gap": last["gap"]["distribution_gap"]}


class Train:
    name = "train"

    def __init__(self, work_dir: str, seed: int, reference: dict):
        self.work_dir = work_dir
        self.seed = seed
        self.reference = reference.get("train", {})

    def setup(self) -> None:
        self.configs = []
        for s in range(TRAIN_SEEDS):
            path = os.path.join(self.work_dir, f"train-seed{s}.json")
            _write_json(path, {"synth": {"seed": s}, "train": {"seed": s}})
            self.configs.append(path)
        tc, sc = trainkit.TrainConfig(), trainkit.SynthConfig()
        self.work_per_op = tc.epochs * (int(sc.n_samples * sc.train_fraction) // tc.batch_size)
        self.histories: dict = {}

    def op(self, i: int):
        s = (self.seed + i) % TRAIN_SEEDS
        out_dir = os.path.join(self.work_dir, f"train-op{i}")
        rc = run_cli(["train", "--config", self.configs[s], "--out-dir", out_dir])
        return s, out_dir, rc

    def check(self, result) -> None:
        s, out_dir, rc = result
        try:
            _expect(rc == 0, f"gaplab train (seed {s}) exited {rc}")
            _expect(set(os.listdir(out_dir)) == TRAIN_ARTIFACTS,
                    f"train artifacts differ: {sorted(os.listdir(out_dir))}")
            with open(os.path.join(out_dir, "history.jsonl"), "rb") as f:
                history = f.read()
            first = self.histories.setdefault(s, history)
            _expect(history == first, f"history.jsonl for seed {s} changed between ops")
            want = self.reference[str(s)]
            for key, got in final_epoch(history).items():
                _close(got, want[key], TRAIN_REL_TOL, f"train seed {s} final {key}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


# -- sweep --------------------------------------------------------------------


def parse_sweep_csv(text: str) -> list:
    """The sweep CSV as [header, [label, value, ...], ...] with float values."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return [lines[0]] + [[row[0], *map(float, row[1:])] for row in rows]


class Sweep:
    name = "sweep"

    def __init__(self, work_dir: str, seed: int, reference: dict):
        self.work_dir = work_dir
        self.sweep_seed = seed % SWEEP_SEEDS
        self.seeds = (self.sweep_seed, self.sweep_seed + 1)
        self.reference = reference.get("sweep", {})

    def setup(self) -> None:
        self.config = os.path.join(self.work_dir, "sweep.json")
        _write_json(self.config, {})
        tc, sc = cli.load_run_config(self.config)
        rows = sweep.run_sweep(tc, sc, SWEEP_ALPHAS, self.seeds, max_workers=1)
        self.expected = sweep.sweep_to_csv(rows).encode("utf-8")
        self.work_per_op = len(SWEEP_ALPHAS) * len(self.seeds)

    def op(self, i: int):
        out = os.path.join(self.work_dir, f"sweep-op{i}.csv")
        rc = run_cli(["sweep", "--config", self.config,
                      "--alphas", ",".join(repr(a) for a in SWEEP_ALPHAS),
                      "--seeds", ",".join(str(s) for s in self.seeds), "--out", out])
        return out, rc

    def check(self, result) -> None:
        out, rc = result
        try:
            _expect(rc == 0, f"gaplab sweep exited {rc}")
            with open(out, "rb") as f:
                got = f.read()
            _expect(got == self.expected,
                    "sweep CSV differs from the serial run_sweep(max_workers=1) table")
            got_rows = parse_sweep_csv(got.decode("utf-8"))
            want_rows = self.reference[str(self.sweep_seed)]
            _expect(got_rows[0] == want_rows[0] and len(got_rows) == len(want_rows),
                    "sweep CSV header or row count differs from the reference")
            for got_row, want_row in zip(got_rows[1:], want_rows[1:]):
                _expect(got_row[0] == want_row[0] and len(got_row) == len(want_row),
                        f"sweep row {got_row[0]!r} differs from reference row {want_row[0]!r}")
                for col, (g, w) in enumerate(zip(got_row[1:], want_row[1:]), 1):
                    _close(g, w, SWEEP_REL_TOL, f"sweep row {got_row[0]} column {col}")
        finally:
            if os.path.exists(out):
                os.unlink(out)


# -- dump ---------------------------------------------------------------------


def dump_pair(seed: int):
    """A labelled pair with a centroid gap and a distribution gap, as float32.

    Both views share a class prototype plus a per-pair instance component;
    each modality adds its own noise and its own constant offset, then rows
    are projected to the unit sphere (the cone a dual encoder produces).
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 3)))
    n, d, k = DUMP_N, DUMP_D, DUMP_CLASSES
    scale = 1.0 / math.sqrt(d)
    labels = np.repeat(np.arange(k), n // k)
    rng.shuffle(labels)
    prototypes = 0.3 * scale * rng.standard_normal((k, d))
    shared = prototypes[labels] + 0.5 * scale * rng.standard_normal((n, d))
    views = []
    for _ in range(2):
        offset = scale * rng.standard_normal(d)
        x = shared + 1.2 * scale * rng.standard_normal((n, d)) + offset
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        views.append(x.astype(np.float32))
    return views[0], views[1], labels


def _unit_rows(m: np.ndarray):
    norms = np.sqrt((m * m).sum(axis=1))
    bad = norms < 1e-12
    return m / np.where(bad, 1.0, norms)[:, None], bad


def _erank(m: np.ndarray) -> float:
    """Effective rank from the Gram eigenvalues (the library uses an SVD)."""
    eig = np.linalg.eigvalsh(m.T @ m)[::-1]
    sv = np.sqrt(np.clip(eig, 0.0, None))
    sv = sv[sv >= 1e-12 * sv[0]]
    p = sv / sv.sum()
    return float(np.exp(-(p * np.log(p)).sum()))


def dense_gap(v: np.ndarray, t: np.ndarray) -> dict:
    """Every field of the analyze report, from direct dense formulas."""
    vc, v_bad = _unit_rows(v - v.mean(axis=0))
    tc, t_bad = _unit_rows(t - t.mean(axis=0))
    keep = ~(v_bad | t_bad)
    er_v, er_t, er_joint = _erank(v), _erank(t), _erank(np.vstack([v, t]))
    return {
        "raw_gap": float(1.0 - (v * t).sum(axis=1).mean()),
        "centroid_gap": float(np.sqrt(((v.mean(axis=0) - t.mean(axis=0)) ** 2).sum())),
        "distribution_gap": float(1.0 - (vc[keep] * tc[keep]).sum(axis=1).mean()),
        "erank_image": er_v,
        "erank_text": er_t,
        "erank_joint": er_joint,
        "fusion_index": er_joint / (0.5 * (er_v + er_t)),
        "n_pairs": int(v.shape[0]),
        "degenerate_pairs": int((~keep).sum()),
    }


def recall_at_1(queries: np.ndarray, keys: np.ndarray, block: int = 512) -> float:
    """Share of rows whose partner is the first maximum of its similarity row.

    ``argmax`` returns the lowest index among equal maxima, which is the
    library's tie rule (an equal competitor outranks only at a lower index).
    Blocked, so the oracle never holds the n x n matrix.
    """
    n = queries.shape[0]
    hits = 0
    for lo in range(0, n, block):
        sims = queries[lo:lo + block] @ keys.T
        hits += int((sims.argmax(axis=1) == np.arange(lo, lo + sims.shape[0])).sum())
    return hits / n


def read_emb(path):
    """Independent reader for the EMB1 layout: (float32 matrix, labels or None)."""
    with open(path, "rb") as f:
        blob = f.read()
    magic, n, d = struct.unpack_from("<4sII", blob)
    _expect(magic == b"EMB1", f"{path}: bad magic {magic!r}")
    body = 12 + 4 * n * d
    matrix = np.frombuffer(blob, dtype="<f4", count=n * d, offset=12).reshape(n, d)
    labels = None
    if len(blob) > body:
        _expect(blob[body:body + 4] == b"LBL1" and len(blob) == body + 4 + 4 * n,
                f"{path}: bad label section")
        labels = np.frombuffer(blob, dtype="<u4", count=n, offset=body + 4)
    else:
        _expect(len(blob) == body, f"{path}: size {len(blob)} != {body}")
    return matrix, labels


def dump_setup(seed: int, work_dir: str):
    """Writes the pair and the expected centered rows; returns the small expected values.

    Run through ``in_child``: the float64 copies and the dense formulas stay
    out of the benchmark process.
    """
    v32, t32, labels = dump_pair(seed)
    embfile.write_embeddings(os.path.join(work_dir, "images.emb"), v32, labels)
    embfile.write_embeddings(os.path.join(work_dir, "texts.emb"), t32, labels)
    v, t = v32.astype(np.float64), t32.astype(np.float64)
    for name, m in zip(CENTERED_EXPECTED, (v, t)):
        np.save(os.path.join(work_dir, name), _unit_rows(m - m.mean(axis=0))[0].astype(np.float32))
    return labels, dense_gap(v, t), (recall_at_1(v, t), recall_at_1(t, v))


def dump_eval(images_path: str, texts_path: str, seed: int):
    """The library-side evaluation of one op: recall@1, clustering, probe."""
    v, v_labels = embfile.read_embeddings(images_path)
    t, t_labels = embfile.read_embeddings(texts_path)
    recall = evalkit.recall_at_k(v, t, 1)
    images = geometry.EmbeddingBatch(v, labels=v_labels, modality="image")
    texts = geometry.EmbeddingBatch(t, labels=t_labels, modality="text")
    cluster = evalkit.joint_clustering_eval(images, texts, seed=seed)
    probe = evalkit.interchangeability_probe(texts, images)
    return recall, cluster, probe


class Dump:
    name = "dump"

    def __init__(self, work_dir: str, seed: int, reference: dict):
        self.work_dir = work_dir
        self.dump_seed = seed % DUMP_SEEDS
        self.reference = reference.get("dump", {})
        self.work_per_op = DUMP_N

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def setup(self) -> None:
        self.labels, self.gap, self.recall = in_child(dump_setup, self.dump_seed, self.work_dir)

    def op(self, i: int):
        analyze_rc = run_cli(["analyze", "--images", self.path("images.emb"),
                              "--texts", self.path("texts.emb"),
                              "--out", self.path("report.json")])
        center_rc = run_cli(["center", "--images", self.path("images.emb"),
                             "--texts", self.path("texts.emb"),
                             "--out-images", self.path("images_c.emb"),
                             "--out-texts", self.path("texts_c.emb"), "--renormalize"])
        evaluation = dump_eval(self.path("images.emb"), self.path("texts.emb"), self.dump_seed)
        return analyze_rc, center_rc, evaluation

    def check(self, result) -> None:
        analyze_rc, center_rc, (recall, cluster, probe) = result
        outputs = [self.path(p) for p in ("report.json", "images_c.emb", "texts_c.emb")]
        try:
            _expect(analyze_rc == 0, f"gaplab analyze exited {analyze_rc}")
            _expect(center_rc == 0, f"gaplab center exited {center_rc}")
            with open(outputs[0], "r", encoding="utf-8") as f:
                report = json.load(f)
            _expect(set(report) == set(self.gap), f"analyze keys differ: {sorted(report)}")
            for key, want in self.gap.items():
                if isinstance(want, int):
                    _expect(report[key] == want, f"analyze {key}: {report[key]!r} != {want}")
                else:
                    _close(report[key], want, GAP_REL_TOL, f"analyze {key}", floor=1.0)
            for path, expected in zip(outputs[1:], CENTERED_EXPECTED):
                got, got_labels = read_emb(path)
                want = np.load(self.path(expected))
                _expect(got_labels is not None and np.array_equal(got_labels, self.labels),
                        f"{os.path.basename(path)}: labels not preserved")
                err = float(np.abs(got - want).max())
                _expect(err <= CENTER_ATOL, f"{os.path.basename(path)}: max error {err:.3e}")
            _expect(tuple(recall) == self.recall,
                    f"recall@1 {tuple(recall)} != argmax oracle {self.recall}")
            want = self.reference[str(self.dump_seed)]
            _expect(cluster.k == DUMP_CLASSES and cluster.n_points == 2 * DUMP_N,
                    f"clustering shape k={cluster.k} n={cluster.n_points}")
            for key in ("ari", "v_measure"):
                got = float(getattr(cluster, key))
                _expect(abs(got - want[key]) <= CLUSTER_ATOL,
                        f"clustering {key}: {got!r} != reference {want[key]!r}")
            _close(cluster.inertia, want["inertia"], INERTIA_REL_TOL, "clustering inertia")
            _expect(abs(probe - want["probe_accuracy"]) <= PROBE_ATOL,
                    f"probe accuracy {probe!r} != reference {want['probe_accuracy']!r}")
        finally:
            for path in outputs:
                if os.path.exists(path):
                    os.unlink(path)


WORKLOADS = {w.name: w for w in (Train, Sweep, Dump)}
