"""Desk-scale dual-encoder training on synthetic paired data.

A class prototype in a shared latent space is pushed through two different
fixed linear maps to produce the "image" and "text" views of each sample;
two small tanh MLPs with unit-normalized outputs are then trained against the
blended contrastive objective under the three-phase schedule. Everything is
hand-differentiated (including the row-normalization Jacobian) and driven by
an in-place Adam, so a full run is deterministic given its two seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .curriculum import CurriculumConfig, CurriculumState, scheduler_new, scheduler_step
from .geometry import EmbeddingBatch, GapReport, gap_report
from .losses import DEFAULT_LOG_SCALE, LOG_SCALE_MAX, Temperature, cma_loss
from .numerics import _normalize_rows, as_matrix

__all__ = [
    "SynthConfig",
    "PairedDataset",
    "synth_dataset",
    "Encoder",
    "EncoderCache",
    "encoder_forward",
    "encoder_backward",
    "AdamState",
    "adam_step",
    "TrainConfig",
    "EpochRecord",
    "RunHistory",
    "NonFiniteLossError",
    "train",
    "epoch_steps",
    "encode_pairs",
]


@dataclass(frozen=True)
class SynthConfig:
    n_classes: int = 20
    samples_per_class: int = 100
    latent_dim: int = 16
    image_input_dim: int = 32
    text_input_dim: int = 24
    noise_sigma: float = 0.1
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.samples_per_class < 2:
            raise ValueError("samples_per_class must be >= 2")
        if self.latent_dim < 1 or self.image_input_dim < 1 or self.text_input_dim < 1:
            raise ValueError("dimensions must be >= 1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")

    @property
    def n_samples(self) -> int:
        return self.n_classes * self.samples_per_class

    @property
    def n_train(self) -> int:
        """Rows in the train split; the other n_samples - n_train rows are the eval split."""
        n_train = int(self.n_samples * self.train_fraction)
        if n_train < 1 or n_train >= self.n_samples:
            raise ValueError("train_fraction leaves an empty split")
        return n_train


@dataclass
class PairedDataset:
    """Raw (un-normalized, un-encoded) paired views plus a fixed split."""

    images: np.ndarray
    texts: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    eval_idx: np.ndarray


def synth_dataset(config: SynthConfig) -> PairedDataset:
    """Deterministic synthetic paired dataset.

    Per class k, a latent prototype mu_k ~ N(0, I); each sample's views are
    A_img @ mu_k + sigma * noise and A_txt @ mu_k + sigma * noise with fresh
    output-space noise per sample and per modality. The row order is shuffled
    once and the leading train_fraction of it becomes the train split.
    """
    # domain-tagged so a training config with the same integer seed does not
    # alias these streams
    streams = np.random.SeedSequence((config.seed, 1)).spawn(5)
    r_proto, r_maps, r_noise_img, r_noise_txt, r_perm = (np.random.default_rng(s) for s in streams)

    k, m = config.n_classes, config.latent_dim
    n = config.n_samples
    prototypes = r_proto.standard_normal((k, m))
    map_img = r_maps.standard_normal((m, config.image_input_dim)) / math.sqrt(m)
    map_txt = r_maps.standard_normal((m, config.text_input_dim)) / math.sqrt(m)

    labels = np.repeat(np.arange(k), config.samples_per_class)
    latent = prototypes[labels]
    images = latent @ map_img + config.noise_sigma * r_noise_img.standard_normal((n, config.image_input_dim))
    texts = latent @ map_txt + config.noise_sigma * r_noise_txt.standard_normal((n, config.text_input_dim))

    order = r_perm.permutation(n)
    n_train = config.n_train
    return PairedDataset(
        images=images,
        texts=texts,
        labels=labels,
        train_idx=order[:n_train],
        eval_idx=order[n_train:],
    )


class Encoder:
    """Two-layer tanh MLP whose output rows are projected to the unit sphere."""

    def __init__(self, w1, b1, w2, b2):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ValueError("weights must be 2-D")
        if self.b1.shape != (self.w1.shape[1],) or self.b2.shape != (self.w2.shape[1],):
            raise ValueError("bias shapes do not match weights")
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ValueError("hidden dimensions do not match")
        self.version = 0

    @classmethod
    def random(cls, input_dim: int, hidden_dim: int, embed_dim: int, rng: np.random.Generator):
        w1 = rng.standard_normal((input_dim, hidden_dim)) / math.sqrt(input_dim)
        w2 = rng.standard_normal((hidden_dim, embed_dim)) / math.sqrt(hidden_dim)
        return cls(w1, np.zeros(hidden_dim), w2, np.zeros(embed_dim))

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w2.shape[1]

    def params(self, prefix: str = "") -> dict:
        return {f"{prefix}w1": self.w1, f"{prefix}b1": self.b1,
                f"{prefix}w2": self.w2, f"{prefix}b2": self.b2}

    def note_update(self):
        """Invalidate outstanding forward caches after a parameter change."""
        self.version += 1


@dataclass
class EncoderCache:
    x: np.ndarray
    hidden: np.ndarray
    pre_norm: np.ndarray
    embeddings: np.ndarray
    norms: np.ndarray
    degenerate: np.ndarray
    version: int


def encoder_forward(enc: Encoder, x) -> tuple[np.ndarray, EncoderCache]:
    """Unit-norm embeddings plus the cache encoder_backward needs."""
    x = as_matrix(x, "x")
    if x.shape[1] != enc.input_dim:
        raise ValueError(f"input dim mismatch: encoder expects {enc.input_dim}, got {x.shape[1]}")
    hidden = np.tanh(x @ enc.w1 + enc.b1)
    pre_norm = hidden @ enc.w2 + enc.b2
    emb, norms, degenerate = _normalize_rows(as_matrix(pre_norm))
    cache = EncoderCache(x, hidden, pre_norm, emb, norms, degenerate, enc.version)
    return emb, cache


def encoder_backward(enc: Encoder, cache: EncoderCache, grad_embeddings) -> dict:
    """Parameter gradients for a loss on the normalized embeddings.

    Normalization Jacobian per row: (I - v v^T) / ||z||, which kills the
    radial component of the upstream gradient; degenerate rows pass the
    gradient through unchanged (normalization was the identity there).
    """
    grad_embeddings = as_matrix(grad_embeddings, "grad_embeddings")
    if cache.version != enc.version:
        raise ValueError("stale cache: encoder parameters changed after this forward pass")
    if grad_embeddings.shape != cache.embeddings.shape:
        raise ValueError("gradient shape does not match the cached embeddings")

    emb = cache.embeddings
    radial = np.einsum("ij,ij->i", grad_embeddings, emb)[:, None]
    safe = np.where(cache.degenerate, 1.0, cache.norms)[:, None]
    grad_z = (grad_embeddings - radial * emb) / safe
    grad_z = np.where(cache.degenerate[:, None], grad_embeddings, grad_z)

    grad_w2 = cache.hidden.T @ grad_z
    grad_b2 = grad_z.sum(axis=0)
    grad_hidden = grad_z @ enc.w2.T
    grad_pre = grad_hidden * (1.0 - cache.hidden**2)
    grad_w1 = cache.x.T @ grad_pre
    grad_b1 = grad_pre.sum(axis=0)
    return {"w1": grad_w1, "b1": grad_b1, "w2": grad_w2, "b2": grad_b2}


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              betas: tuple = (0.9, 0.999), eps: float = 1e-8) -> None:
    """One bias-corrected Adam update, in place.

    Array parameters are mutated; scalar parameters are rebound in the dict.
    A "log_scale" entry, if present, is clamped to ln(100) afterward so the
    similarity scale never exceeds 100.
    """
    if set(params) != set(grads):
        raise ValueError("params and grads must carry the same keys")
    beta1, beta2 = betas
    state.step += 1
    t = state.step
    corr1 = 1.0 - beta1**t
    corr2 = 1.0 - beta2**t
    for key, param in params.items():
        g = grads[key]
        if isinstance(param, np.ndarray):
            if key not in state.m:
                state.m[key] = np.zeros_like(param)
                state.v[key] = np.zeros_like(param)
            m = state.m[key]
            v = state.v[key]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * np.square(g)
            param -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)
        else:
            m = state.m.get(key, 0.0)
            v = state.v.get(key, 0.0)
            m = beta1 * m + (1.0 - beta1) * float(g)
            v = beta2 * v + (1.0 - beta2) * float(g) ** 2
            state.m[key] = m
            state.v[key] = v
            params[key] = float(param) - lr * (m / corr1) / (math.sqrt(v / corr2) + eps)
    if "log_scale" in params:
        params["log_scale"] = min(float(params["log_scale"]), LOG_SCALE_MAX)


@dataclass(frozen=True)
class TrainConfig:
    curriculum: CurriculumConfig = field(default_factory=CurriculumConfig)
    batch_size: int = 128
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    hidden_dim: int = 64
    embed_dim: int = 16
    init_log_scale: float = DEFAULT_LOG_SCALE
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (contrastive losses degenerate at 1)")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.adam_beta1 < 1.0 or not 0.0 <= self.adam_beta2 < 1.0:
            raise ValueError("adam betas must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be positive")
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ValueError("dimensions must be >= 1")
        if self.init_log_scale > LOG_SCALE_MAX:
            raise ValueError("init_log_scale exceeds the ln(100) cap")

    @property
    def epochs(self) -> int:
        c = self.curriculum
        return c.anchor_epochs + c.ramp_epochs + c.stabilize_epochs


@dataclass
class EpochRecord:
    epoch: int
    alpha: float
    loss: float
    rw_term: float
    intra_term: float
    grad_norm_ratio: float | None
    gap: GapReport


@dataclass
class RunHistory:
    records: list
    eval_batches: tuple  # (image, text) EmbeddingBatch pair of the last epoch's eval encode

    def to_jsonl(self) -> str:
        return "".join(json.dumps(asdict(r)) + "\n" for r in self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]


class NonFiniteLossError(RuntimeError):
    """Raised when a training step produces a NaN/Inf loss; aborts the run."""

    def __init__(self, epoch: int, step: int, alpha: float, loss: float):
        self.epoch = epoch
        self.step = step
        self.alpha = alpha
        self.loss = loss
        super().__init__(
            f"non-finite loss {loss!r} at epoch {epoch}, step {step}, alpha {alpha:.6f}"
        )

    def __reduce__(self):
        # keep the exception picklable across process-pool boundaries
        return (NonFiniteLossError, (self.epoch, self.step, self.alpha, self.loss))


def encode_pairs(img_enc: Encoder, txt_enc: Encoder, data: PairedDataset,
                 rows: np.ndarray) -> tuple[EmbeddingBatch, EmbeddingBatch]:
    """Encode selected dataset rows into labeled embedding batches."""
    vi, _ = encoder_forward(img_enc, data.images[rows])
    vt, _ = encoder_forward(txt_enc, data.texts[rows])
    labels = data.labels[rows]
    return (
        EmbeddingBatch(vi, labels=labels, modality="image"),
        EmbeddingBatch(vt, labels=labels, modality="text"),
    )


def epoch_steps(train_cfg: TrainConfig, synth_cfg: SynthConfig) -> int:
    """Optimizer steps per epoch; ValueError if batch_size exceeds the train split.

    Needs only the configs, so callers can reject a run before any work starts.
    """
    n_train = synth_cfg.n_train
    steps = n_train // train_cfg.batch_size
    if steps < 1:
        raise ValueError(f"batch_size {train_cfg.batch_size} exceeds the train split size {n_train}")
    return steps


def train(train_cfg: TrainConfig, synth_cfg: SynthConfig, alpha: float | None = None):
    """Full three-phase run; returns ((image encoder, text encoder), Temperature, RunHistory).

    Per step: encode a batch, evaluate the blended loss at the current alpha,
    backprop through normalization into both encoders and the log scale, take
    an Adam step, then feed the step's contrastive term to the scheduler. The
    eval-split gap report is appended once per epoch; the last epoch's eval
    embeddings are kept as history.eval_batches.

    alpha, when given, pins the blend from the first step instead (the
    curriculum ablation). Randomness is consumed identically either way, so
    two runs with equal seeds see the same data, initialization, and batch
    order.
    """
    data = synth_dataset(synth_cfg)
    n_train = data.train_idx.size
    steps_per_epoch = epoch_steps(train_cfg, synth_cfg)
    # the schedule's step grid always comes from the data, not the config file
    cfg = replace(train_cfg.curriculum, steps_per_epoch=steps_per_epoch)

    streams = np.random.SeedSequence((train_cfg.seed, 2)).spawn(3)
    r_img, r_txt, r_order = (np.random.default_rng(s) for s in streams)
    img_enc = Encoder.random(synth_cfg.image_input_dim, train_cfg.hidden_dim, train_cfg.embed_dim, r_img)
    txt_enc = Encoder.random(synth_cfg.text_input_dim, train_cfg.hidden_dim, train_cfg.embed_dim, r_txt)

    params = {**img_enc.params("img_"), **txt_enc.params("txt_"),
              "log_scale": float(train_cfg.init_log_scale)}
    adam_state = AdamState()
    betas = (train_cfg.adam_beta1, train_cfg.adam_beta2)

    scheduler: CurriculumState | None = None
    if alpha is None:
        scheduler = scheduler_new(cfg)
        alpha = scheduler.alpha
    else:
        alpha = float(alpha)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")

    epochs = train_cfg.epochs
    batch = train_cfg.batch_size
    records = []
    for epoch in range(epochs):
        order = r_order.permutation(n_train)
        losses, rw_terms, intra_terms, ratios = [], [], [], []
        alpha_used = alpha  # alpha in effect at the epoch's last step, recorded below
        for b in range(steps_per_epoch):
            rows = data.train_idx[order[b * batch:(b + 1) * batch]]
            vi, cache_i = encoder_forward(img_enc, data.images[rows])
            vt, cache_t = encoder_forward(txt_enc, data.texts[rows])
            temp = Temperature(params["log_scale"])
            alpha_used = alpha
            out = cma_loss(vi, vt, temp, alpha)
            if not math.isfinite(out.loss):
                raise NonFiniteLossError(epoch, adam_state.step, alpha, out.loss)

            g_img = encoder_backward(img_enc, cache_i, out.grad_images)
            g_txt = encoder_backward(txt_enc, cache_t, out.grad_texts)
            grads = {f"img_{k}": g for k, g in g_img.items()}
            grads.update({f"txt_{k}": g for k, g in g_txt.items()})
            grads["log_scale"] = out.grad_log_scale
            adam_step(params, grads, adam_state, train_cfg.learning_rate, betas, train_cfg.adam_eps)
            img_enc.note_update()
            txt_enc.note_update()

            diag = out.diagnostics
            losses.append(out.loss)
            rw_terms.append(diag["rw_term"])
            intra_terms.append(diag["intra_term"])
            if diag["grad_norm_intra"] > 0.0:
                ratios.append(diag["grad_norm_rw"] / diag["grad_norm_intra"])

            if scheduler is not None:
                alpha = scheduler_step(scheduler, diag["rw_term"])

        img_eval, txt_eval = encode_pairs(img_enc, txt_enc, data, data.eval_idx)
        records.append(EpochRecord(
            epoch=epoch,
            alpha=alpha_used,
            loss=float(np.mean(losses)),
            rw_term=float(np.mean(rw_terms)),
            intra_term=float(np.mean(intra_terms)),
            grad_norm_ratio=float(np.mean(ratios)) if ratios else None,
            gap=gap_report(img_eval, txt_eval),
        ))

    history = RunHistory(records, eval_batches=(img_eval, txt_eval))
    return (img_enc, txt_enc), Temperature(params["log_scale"]), history
