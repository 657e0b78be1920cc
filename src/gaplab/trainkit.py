"""Desk-scale dual-encoder training on synthetic paired data.

A class prototype in a shared latent space is pushed through two different
fixed linear maps to produce the "image" and "text" views of each sample;
two small tanh MLPs with unit-normalized outputs are then trained against the
blended contrastive objective under the three-phase schedule. Everything is
hand-differentiated (including the row-normalization Jacobian) and driven by
an in-place Adam, so a full run is deterministic given its two seeds. train
validates its data once and owns its step, which runs the private kernels on
unchecked arrays; encoder_forward and encoder_backward wrap the same kernels.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .curriculum import CurriculumConfig, CurriculumState, scheduler_new, scheduler_step
from .geometry import EmbeddingBatch, GapReport, gap_report
from .losses import DEFAULT_LOG_SCALE, LOG_SCALE_MAX, LossOutput, Temperature, _cma
from .numerics import _normalize_rows, as_matrix

__all__ = [
    "SynthConfig",
    "PairedDataset",
    "synth_dataset",
    "Encoder",
    "EncoderCache",
    "encoder_forward",
    "encoder_backward",
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
    """Two-layer tanh MLP whose output rows are projected to the unit sphere.

    w1, b1, w2 and b2 are views, in that order, into one float64 vector, flat;
    train rebinds both encoders into its run's parameter buffer.
    """

    def __init__(self, w1, b1, w2, b2):
        w1, b1, w2, b2 = params = [np.asarray(p, dtype=np.float64) for p in (w1, b1, w2, b2)]
        if w1.ndim != 2 or w2.ndim != 2:
            raise ValueError("weights must be 2-D")
        if b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],):
            raise ValueError("bias shapes do not match weights")
        if w1.shape[1] != w2.shape[0]:
            raise ValueError("hidden dimensions do not match")
        self.shapes = [p.shape for p in params]
        self._bind(np.concatenate([p.ravel() for p in params]))

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

    def _views(self, flat: np.ndarray) -> list:
        """[w1, b1, w2, b2]-shaped views into a vector laid out as flat."""
        ends = np.cumsum([math.prod(shape) for shape in self.shapes])[:-1]
        return [part.reshape(shape) for part, shape in zip(np.split(flat, ends), self.shapes)]

    def _bind(self, flat: np.ndarray) -> None:
        """Make flat, which must already hold this encoder's values, its parameter store."""
        self.flat = flat
        self.w1, self.b1, self.w2, self.b2 = self._views(flat)


@dataclass
class EncoderCache:
    x: np.ndarray
    hidden: np.ndarray
    pre_norm: np.ndarray
    embeddings: np.ndarray
    norms: np.ndarray
    degenerate: np.ndarray


def _forward(enc: Encoder, x: np.ndarray) -> tuple[np.ndarray, EncoderCache]:
    """encoder_forward on a validated x of the encoder's input width."""
    hidden = np.tanh(x @ enc.w1 + enc.b1)
    pre_norm = hidden @ enc.w2 + enc.b2
    emb, norms, degenerate = _normalize_rows(pre_norm)
    return emb, EncoderCache(x, hidden, pre_norm, emb, norms, degenerate)


def encoder_forward(enc: Encoder, x) -> tuple[np.ndarray, EncoderCache]:
    """Unit-norm embeddings plus the cache encoder_backward needs. ValueError if
    x is not a finite matrix of the encoder's input width or an output norm is not finite."""
    x = as_matrix(x, "x")
    if x.shape[1] != enc.input_dim:
        raise ValueError(f"input dim mismatch: encoder expects {enc.input_dim}, got {x.shape[1]}")
    emb, cache = _forward(enc, x)
    if not np.isfinite(cache.norms).all():
        raise ValueError("encoder output norms are not finite")
    return emb, cache


def _backward(enc: Encoder, cache: EncoderCache, grad_embeddings: np.ndarray, out) -> None:
    """encoder_backward on a validated gradient, written into out = [w1, b1, w2, b2] arrays."""
    g_w1, g_b1, g_w2, g_b2 = out
    emb = cache.embeddings
    radial = np.einsum("ij,ij->i", grad_embeddings, emb)[:, None]
    safe = np.where(cache.degenerate, 1.0, cache.norms)[:, None]
    grad_z = (grad_embeddings - radial * emb) / safe
    grad_z = np.where(cache.degenerate[:, None], grad_embeddings, grad_z)

    np.matmul(cache.hidden.T, grad_z, out=g_w2)
    grad_z.sum(axis=0, out=g_b2)
    grad_pre = (grad_z @ enc.w2.T) * (1.0 - cache.hidden**2)
    np.matmul(cache.x.T, grad_pre, out=g_w1)
    grad_pre.sum(axis=0, out=g_b1)


def encoder_backward(enc: Encoder, cache: EncoderCache, grad_embeddings) -> dict:
    """Parameter gradients for a loss on the normalized embeddings.

    Normalization Jacobian per row: (I - v v^T) / ||z||, which kills the
    radial component of the upstream gradient; degenerate rows pass the
    gradient through unchanged (normalization was the identity there).
    """
    grad_embeddings = as_matrix(grad_embeddings, "grad_embeddings")
    if grad_embeddings.shape != cache.embeddings.shape:
        raise ValueError("gradient shape does not match the cached embeddings")
    grads = enc._views(np.empty_like(enc.flat))
    _backward(enc, cache, grad_embeddings, grads)
    return dict(zip(("w1", "b1", "w2", "b2"), grads))


def _adam(flat, grad, m, v, step: int, lr: float, betas: tuple, eps: float) -> None:
    """Bias-corrected Adam update number step (from 1) of flat and its moments m
    and v, in place. flat's last element, the log scale, is then clamped to
    ln(100) so the similarity scale never exceeds 100."""
    if grad.shape != flat.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match parameters {flat.shape}")
    beta1, beta2 = betas
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * np.square(grad)
    flat -= lr * (m / (1.0 - beta1**step)) / (np.sqrt(v / (1.0 - beta2**step)) + eps)
    flat[-1] = min(flat[-1], LOG_SCALE_MAX)


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
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.adam_beta1 < 1.0 or not 0.0 <= self.adam_beta2 < 1.0:
            raise ValueError("adam betas must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ValueError("adam_eps must be positive")
        if self.hidden_dim < 1 or self.embed_dim < 1:
            raise ValueError("dimensions must be >= 1")
        if not -math.inf < self.init_log_scale <= LOG_SCALE_MAX:
            raise ValueError("init_log_scale must be finite and within the ln(100) cap")

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
    """Raised when a run diverges; aborts it. what names the quantity that is not
    finite and loss holds its value: the "loss", an "encoder output norm" (a row
    norm before normalization, which overflows once weights blow up) or the "log scale"."""

    def __init__(self, epoch: int, step: int, alpha: float, loss: float, what: str = "loss"):
        self.epoch, self.step, self.alpha, self.loss, self.what = epoch, step, alpha, loss, what
        super().__init__(
            f"non-finite {what} {loss!r} at epoch {epoch}, step {step}, alpha {alpha:.6f}"
        )

    def __reduce__(self):
        # keep the exception picklable across process-pool boundaries
        return (NonFiniteLossError, (self.epoch, self.step, self.alpha, self.loss, self.what))


class _Step:
    """A run's parameters and its training step: forward, loss, backward and
    Adam on arrays the caller validated once, with nothing in between. Both
    encoders' parameters, then log_scale, sit in one float64 buffer, flat, that
    the encoders' weights view; the gradient and Adam moments share its layout.
    """

    def __init__(self, img_enc: Encoder, txt_enc: Encoder, cfg: TrainConfig):
        encoders = (img_enc, txt_enc)
        parts = (slice(0, img_enc.flat.size), slice(img_enc.flat.size, -1))
        self.flat = np.concatenate([img_enc.flat, txt_enc.flat, [cfg.init_log_scale]])
        self.grad, self.m, self.v = (np.zeros_like(self.flat) for _ in range(3))
        for enc, part in zip(encoders, parts):
            enc._bind(self.flat[part])
        self.towers = [(enc, enc._views(self.grad[part])) for enc, part in zip(encoders, parts)]
        self.count = 0  # Adam steps taken
        self.adam = (cfg.learning_rate, (cfg.adam_beta1, cfg.adam_beta2), cfg.adam_eps)

    def encode(self, tower: int, x: np.ndarray, epoch: int, alpha: float):
        """(embeddings, cache) of tower 0 (image) or 1 (text) for a validated x."""
        emb, cache = _forward(self.towers[tower][0], x)
        worst = float(cache.norms.max())  # NaN if any norm is NaN
        if not math.isfinite(worst):
            raise NonFiniteLossError(epoch, self.count, alpha, worst, "encoder output norm")
        return emb, cache

    def __call__(self, inputs: tuple, alpha: float, epoch: int) -> LossOutput:
        """One step on a validated (image, text) batch at blend alpha in [0, 1]."""
        (vi, cache_i), (vt, cache_t) = (self.encode(i, x, epoch, alpha) for i, x in enumerate(inputs))
        log_scale = float(self.flat[-1])
        if not math.isfinite(log_scale):
            raise NonFiniteLossError(epoch, self.count, alpha, log_scale, "log scale")
        out = _cma(vi, vt, math.exp(log_scale), alpha)
        if not math.isfinite(out.loss):
            raise NonFiniteLossError(epoch, self.count, alpha, out.loss)
        for (enc, grads), cache, upstream in zip(self.towers, (cache_i, cache_t),
                                                 (out.grad_images, out.grad_texts)):
            _backward(enc, cache, upstream, grads)
        self.grad[-1] = out.grad_log_scale
        self.count += 1
        _adam(self.flat, self.grad, self.m, self.v, self.count, *self.adam)
        return out


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
    embeddings are kept as history.eval_batches. A diverging run (a loss,
    encoder output norm or log scale that is not finite) raises
    NonFiniteLossError.

    alpha, when given, pins the blend from the first step instead (the
    curriculum ablation). Randomness is consumed identically either way, so
    two runs with equal seeds see the same data, initialization, and batch
    order.
    """
    data = synth_dataset(synth_cfg)
    # the one validation of the data: every step below runs unchecked
    images, texts = as_matrix(data.images, "images"), as_matrix(data.texts, "texts")
    n_train = data.train_idx.size
    steps_per_epoch = epoch_steps(train_cfg, synth_cfg)
    # the schedule's step grid always comes from the data, not the config file
    cfg = replace(train_cfg.curriculum, steps_per_epoch=steps_per_epoch)

    streams = np.random.SeedSequence((train_cfg.seed, 2)).spawn(3)
    r_img, r_txt, r_order = (np.random.default_rng(s) for s in streams)
    img_enc = Encoder.random(synth_cfg.image_input_dim, train_cfg.hidden_dim, train_cfg.embed_dim, r_img)
    txt_enc = Encoder.random(synth_cfg.text_input_dim, train_cfg.hidden_dim, train_cfg.embed_dim, r_txt)
    step = _Step(img_enc, txt_enc, train_cfg)

    scheduler: CurriculumState | None = None
    if alpha is None:
        scheduler = scheduler_new(cfg)
        alpha = scheduler.alpha
    else:
        alpha = float(alpha)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")

    batch = train_cfg.batch_size
    eval_labels = data.labels[data.eval_idx]
    records = []
    for epoch in range(train_cfg.epochs):
        order = r_order.permutation(n_train)
        losses, rw_terms, intra_terms, ratios = [], [], [], []
        alpha_used = alpha  # alpha in effect at the epoch's last step, recorded below
        for b in range(steps_per_epoch):
            rows = data.train_idx[order[b * batch:(b + 1) * batch]]
            alpha_used = alpha
            out = step((images[rows], texts[rows]), alpha, epoch)

            diag = out.diagnostics
            losses.append(out.loss)
            rw_terms.append(diag["rw_term"])
            intra_terms.append(diag["intra_term"])
            if diag["grad_norm_intra"] > 0.0:
                ratios.append(diag["grad_norm_rw"] / diag["grad_norm_intra"])

            if scheduler is not None:
                alpha = scheduler_step(scheduler, diag["rw_term"])

        vi, _ = step.encode(0, images[data.eval_idx], epoch, alpha_used)
        vt, _ = step.encode(1, texts[data.eval_idx], epoch, alpha_used)
        img_eval = EmbeddingBatch(vi, labels=eval_labels, modality="image")
        txt_eval = EmbeddingBatch(vt, labels=eval_labels, modality="text")
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
    return (img_enc, txt_enc), Temperature(step.flat[-1]), history
