"""Desk-scale dual-encoder training on synthetic paired data.

A class prototype in a shared latent space is pushed through two different
fixed linear maps to produce the "image" and "text" views of each sample;
two small tanh MLPs with unit-normalized outputs are then trained against the
blended contrastive objective under the three-phase schedule. Everything is
hand-differentiated (including the row-normalization Jacobian) and driven by
an in-place Adam, so a full run is deterministic given its two seeds. train
validates the run once; a private _Run then owns it (parameter layout and
buffer, optimizer moments, schedule, batch order and records) and steps it
with the private kernels on unchecked arrays. A run stops at epoch boundaries
and forks there (sweep shares anchor epochs so). While a run trains, OpenBLAS
runs one thread, as at 128-row batches its other threads only spin; a count
already in place is not set again, so a forked sweep worker makes no pool.
"""

from __future__ import annotations

import contextlib
import copy
import ctypes
import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .curriculum import CurriculumConfig, scheduler_new, scheduler_step
from .geometry import EmbeddingBatch, GapReport, gap_report
from .losses import DEFAULT_LOG_SCALE, LOG_SCALE_MAX, LossOutput, Temperature, _cma
from .numerics import _check_fields, _normalize_rows, _scalar, as_matrix

__all__ = [
    "SynthConfig",
    "PairedDataset",
    "synth_dataset",
    "Encoder",
    "TrainConfig",
    "EpochRecord",
    "RunHistory",
    "NonFiniteLossError",
    "train",
]


@dataclass(frozen=True)
class SynthConfig:
    n_classes: int = field(default=20, metadata={"low": 2})
    samples_per_class: int = field(default=100, metadata={"low": 2})
    latent_dim: int = field(default=16, metadata={"low": 1})
    image_input_dim: int = field(default=32, metadata={"low": 1})
    text_input_dim: int = field(default=24, metadata={"low": 1})
    noise_sigma: float = field(default=0.1, metadata={"low": 0})
    train_fraction: float = 0.8
    seed: int = field(default=0, metadata={"low": 0})

    def __post_init__(self):
        _check_fields(self)
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")

    @property
    def n_samples(self) -> int:
        return self.n_classes * self.samples_per_class

    @property
    def n_train(self) -> int:
        """Rows in the train split; the other n_samples - n_train rows, at least 2, are the eval split."""
        try:
            n_train = int(self.n_samples * self.train_fraction)
        except OverflowError:  # the product is beyond the float64 range
            raise ValueError("n_classes * samples_per_class is too large") from None
        if n_train < 1 or self.n_samples - n_train < 2:  # one eval row always centers to zero
            raise ValueError("train_fraction leaves an empty train split or fewer than 2 eval rows")
        return n_train


@dataclass
class PairedDataset:
    """Raw (un-normalized, un-encoded) paired views plus a fixed split."""

    images: np.ndarray
    texts: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray
    eval_idx: np.ndarray


@np.errstate(over="ignore")  # an overflow to inf is what the check below reports
def synth_dataset(config: SynthConfig) -> PairedDataset:
    """Deterministic synthetic paired dataset.

    Per class k, a latent prototype mu_k ~ N(0, I); each sample's views are
    A_img @ mu_k + sigma * noise and A_txt @ mu_k + sigma * noise with fresh
    output-space noise per sample and per modality. The row order is shuffled
    once and the leading train_fraction of it becomes the train split.
    ValueError if a view is not finite: that is a run's one data validation.
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
        images=as_matrix(images, "images"),
        texts=as_matrix(texts, "texts"),
        labels=labels,
        train_idx=order[:n_train],
        eval_idx=order[n_train:],
    )


class Encoder:
    """Two-layer tanh MLP whose output rows are projected to the unit sphere.

    w1, b1, w2 and b2 are float64 arrays; float64 input is kept without a
    copy, so a training run's encoders view its parameter buffer.
    """

    def __init__(self, w1, b1, w2, b2):
        w1, b1, w2, b2 = [np.asarray(p, dtype=np.float64) for p in (w1, b1, w2, b2)]
        if w1.ndim != 2 or w2.ndim != 2:
            raise ValueError("weights must be 2-D")
        if b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],):
            raise ValueError("bias shapes do not match weights")
        if w1.shape[1] != w2.shape[0]:
            raise ValueError("hidden dimensions do not match")
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    @classmethod
    def random(cls, input_dim: int, hidden_dim: int, embed_dim: int, rng: np.random.Generator):
        w1 = rng.standard_normal((input_dim, hidden_dim)) / math.sqrt(input_dim)
        w2 = rng.standard_normal((hidden_dim, embed_dim)) / math.sqrt(hidden_dim)
        return cls(w1, np.zeros(hidden_dim), w2, np.zeros(embed_dim))

    @property
    def embed_dim(self) -> int:
        return self.w2.shape[1]


@dataclass
class _EncoderCache:
    x: np.ndarray
    hidden: np.ndarray
    pre_norm: np.ndarray
    embeddings: np.ndarray
    norms: np.ndarray
    degenerate: np.ndarray


def _forward(enc: Encoder, x: np.ndarray) -> tuple[np.ndarray, _EncoderCache]:
    """Unit-norm embeddings of a validated x of the encoder's input width, plus
    the cache _backward needs. A norm that is not finite is the caller's to check."""
    hidden = np.tanh(x @ enc.w1 + enc.b1)
    pre_norm = hidden @ enc.w2 + enc.b2
    emb, norms, degenerate = _normalize_rows(pre_norm)
    return emb, _EncoderCache(x, hidden, pre_norm, emb, norms, degenerate)


def _backward(enc: Encoder, cache: _EncoderCache, grad_embeddings: np.ndarray, out) -> None:
    """Parameter gradients for a loss on the normalized embeddings, given its
    gradient there, written into out = [w1, b1, w2, b2]-shaped arrays.

    Normalization Jacobian per row: (I - v v^T) / ||z||, which kills the
    radial component of the upstream gradient; degenerate rows pass the
    gradient through unchanged (normalization was the identity there).
    """
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
    batch_size: int = field(default=128, metadata={"low": 2})  # contrastive losses degenerate at 1
    learning_rate: float = 1e-3
    adam_beta1: float = field(default=0.9, metadata={"low": 0})
    adam_beta2: float = field(default=0.999, metadata={"low": 0})
    adam_eps: float = 1e-8
    hidden_dim: int = field(default=64, metadata={"low": 1})
    embed_dim: int = field(default=16, metadata={"low": 1})
    init_log_scale: float = field(default=DEFAULT_LOG_SCALE, metadata={"high": LOG_SCALE_MAX})
    seed: int = field(default=0, metadata={"low": 0})

    def __post_init__(self):
        _check_fields(self)
        for name, value in (("learning_rate", self.learning_rate), ("adam_eps", self.adam_eps)):
            if value <= 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")
        for name, value in (("adam_beta1", self.adam_beta1), ("adam_beta2", self.adam_beta2)):
            if value >= 1.0:
                raise ValueError(f"{name} must be < 1, got {value}")

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
    gap: GapReport | None  # None where a sweep skipped the epoch's eval


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


@functools.cache
def _openblas():
    """(get, set) for the thread count of the OpenBLAS mapped into this process,
    or None; looked up once per process.

    Only Linux lists its mappings (/proc/self/maps). A system OpenBLAS exports
    the plain names; NumPy's wheels rename them: a 64_ suffix for 64-bit integer
    builds (NumPy 1.x) and a scipy_ prefix as well (NumPy 2.x).
    """
    paths = set()
    try:
        with open("/proc/self/maps", "rb") as f:
            for line in f:  # one line at a time: a list of them all would raise peak memory
                fields = line.split(None, 5)
                if len(fields) == 6 and b"openblas" in fields[5].lower():
                    paths.add(os.fsdecode(fields[5].strip()))
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("openblas_", "scipy_openblas_"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


def _blas_threads(count: int) -> int | None:
    """Set this process's OpenBLAS to count threads and return the count it had;
    without OpenBLAS, do nothing and return None. An unchanged count calls no
    setter: after a fork, any call re-creates OpenBLAS's pool, whose new helper
    threads each busy-wait (about 0.13 s of CPU) before they sleep."""
    blas = _openblas()
    if blas is None:
        return None
    before = blas[0]()
    if count != before:
        blas[1](count)
    return before


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread and restore the caller's count after it."""
    before = _blas_threads(1)
    try:
        yield
    finally:
        if before is not None:
            _blas_threads(before)


class _Run:
    """One run between epochs, and its training step. It alone owns the layout of
    flat, one float64 buffer that the encoders view: w1, b1, w2 and b2 of each
    encoder (shapes lists them in order), then log_scale. The gradient (viewed
    per encoder by grads) and the Adam moments share it. The run also owns its
    scheduler (None when alpha is pinned), batch-order generator, alpha, records
    and last eval batches. advance trains epochs on validated data; fork copies it."""

    def __init__(self, train_cfg: TrainConfig, synth_cfg: SynthConfig, alpha: float | None = None):
        self.train_cfg = train_cfg
        n_train = synth_cfg.n_train
        self.steps_per_epoch = n_train // train_cfg.batch_size
        if self.steps_per_epoch < 1:
            raise ValueError(f"batch_size {train_cfg.batch_size} exceeds the train split size {n_train}")
        streams = np.random.SeedSequence((train_cfg.seed, 2)).spawn(3)
        r_img, r_txt, self.order = (np.random.default_rng(s) for s in streams)
        dims = (train_cfg.hidden_dim, train_cfg.embed_dim)
        params = [p for enc in (Encoder.random(synth_cfg.image_input_dim, *dims, r_img),
                                Encoder.random(synth_cfg.text_input_dim, *dims, r_txt))
                  for p in (enc.w1, enc.b1, enc.w2, enc.b2)]
        self.shapes = [p.shape for p in params]
        self.flat = np.concatenate([*(p.ravel() for p in params), [train_cfg.init_log_scale]])
        self.grad, self.m, self.v = (np.zeros_like(self.flat) for _ in range(3))
        self._bind()
        self.count = 0  # Adam steps taken
        self.adam = (train_cfg.learning_rate, (train_cfg.adam_beta1, train_cfg.adam_beta2), train_cfg.adam_eps)
        if alpha is None:
            self.scheduler = scheduler_new(train_cfg.curriculum, self.steps_per_epoch)
            self.alpha = self.scheduler.alpha
        else:
            self.scheduler, self.alpha = None, _scalar(alpha, "alpha", low=0, high=1)
        self.records: list = []
        self.eval_batches = None

    def _bind(self) -> None:
        """Make both encoders view flat, and their gradients (grads) view grad."""
        ends = np.cumsum([math.prod(shape) for shape in self.shapes])
        weights, grads = ([part.reshape(shape) for part, shape in zip(np.split(buffer, ends), self.shapes)]
                          for buffer in (self.flat, self.grad))
        self.encoders = (Encoder(*weights[:4]), Encoder(*weights[4:]))
        self.grads = (grads[:4], grads[4:])

    def __getstate__(self):
        """A copy or a pickle holds flat and grad once: the encoders and grads
        are views of them that __setstate__ rebuilds."""
        state = self.__dict__.copy()
        del state["encoders"], state["grads"]
        return state

    def __setstate__(self, state):
        """A copy or an unpickled run: its encoders view its own buffers again."""
        self.__dict__.update(state)
        self._bind()

    def fork(self, alpha_target: float) -> "_Run":
        """A copy whose schedule heads for alpha_target (or, alpha pinned, pins it).
        Nothing reads the target before the first ramp step, so a fork made by
        then trains as a run started with that target."""
        new = copy.deepcopy(self)
        if new.scheduler is None:
            new.alpha = alpha_target
        else:
            new.scheduler.config = replace(new.scheduler.config, alpha_target=alpha_target)
        return new

    def encode(self, tower: int, x: np.ndarray, epoch: int, alpha: float):
        """(embeddings, cache) of tower 0 (image) or 1 (text) for a validated x."""
        emb, cache = _forward(self.encoders[tower], x)
        worst = float(cache.norms.max())  # NaN if any norm is NaN
        if not math.isfinite(worst):
            raise NonFiniteLossError(epoch, self.count, alpha, worst, "encoder output norm")
        return emb, cache

    def step(self, inputs: tuple, alpha: float, epoch: int, lean: bool = False) -> LossOutput:
        """One step on a validated (image, text) batch at blend alpha in [0, 1]:
        forward, loss, backward and Adam, with nothing in between."""
        (vi, cache_i), (vt, cache_t) = (self.encode(i, x, epoch, alpha) for i, x in enumerate(inputs))
        log_scale = float(self.flat[-1])
        if not math.isfinite(log_scale):
            raise NonFiniteLossError(epoch, self.count, alpha, log_scale, "log scale")
        out = _cma(vi, vt, math.exp(log_scale), alpha, lean)
        if not math.isfinite(out.loss):
            raise NonFiniteLossError(epoch, self.count, alpha, out.loss)
        for enc, grads, cache, upstream in zip(self.encoders, self.grads, (cache_i, cache_t),
                                               (out.grad_images, out.grad_texts)):
            _backward(enc, cache, upstream, grads)
        self.grad[-1] = out.grad_log_scale
        self.count += 1
        _adam(self.flat, self.grad, self.m, self.v, self.count, *self.adam)
        return out

    # Every step checks its loss, output norms and log scale and raises on a
    # non-finite one, so NumPy's overflow warnings on the way there are noise.
    @np.errstate(over="ignore", invalid="ignore")
    @_one_blas_thread()
    def advance(self, data: PairedDataset, until: int, final_report_only: bool = False) -> None:
        """Train the epochs from the next one up to (not including) epoch until.

        Each epoch's record carries the gap report of the eval split encoded at
        its end. final_report_only (a sweep, which reads the last one alone) reports
        the final epoch only (the others' gap is None) and runs alpha-0 steps lean (_cma).
        """
        step, batch = self.step, self.train_cfg.batch_size
        images, texts, n_train = data.images, data.texts, data.train_idx.size
        eval_labels = data.labels[data.eval_idx]
        for epoch in range(len(self.records), until):
            order = self.order.permutation(n_train)
            losses, rw_terms, intra_terms, ratios = [], [], [], []
            for b in range(self.steps_per_epoch):
                rows = data.train_idx[order[b * batch:(b + 1) * batch]]
                alpha_used = self.alpha  # recorded below as that of the epoch's last step
                out = step((images[rows], texts[rows]), alpha_used, epoch, final_report_only)
                diag = out.diagnostics
                losses.append(out.loss)
                rw_terms.append(diag["rw_term"])
                intra_terms.append(diag["intra_term"])
                if diag["grad_norm_intra"] > 0.0:
                    ratios.append(diag["grad_norm_rw"] / diag["grad_norm_intra"])
                if self.scheduler is not None:
                    self.alpha = scheduler_step(self.scheduler, diag["rw_term"])

            gap = None
            if not final_report_only or epoch == self.train_cfg.epochs - 1:
                vi, _ = self.encode(0, images[data.eval_idx], epoch, alpha_used)
                vt, _ = self.encode(1, texts[data.eval_idx], epoch, alpha_used)
                self.eval_batches = (EmbeddingBatch(vi, labels=eval_labels, modality="image"),
                                     EmbeddingBatch(vt, labels=eval_labels, modality="text"))
                gap = gap_report(*self.eval_batches)
            self.records.append(EpochRecord(
                epoch=epoch,
                alpha=alpha_used,
                loss=float(np.mean(losses)),
                rw_term=float(np.mean(rw_terms)),
                intra_term=float(np.mean(intra_terms)),
                grad_norm_ratio=float(np.mean(ratios)) if ratios else None,
                gap=gap,
            ))


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

    Every check comes before the first step: ValueError for a bad batch size,
    split or synthetic view, MemoryError for arrays too large to allocate.
    """
    run = _Run(train_cfg, synth_cfg, alpha)
    run.advance(synth_dataset(synth_cfg), train_cfg.epochs)
    return run.encoders, Temperature(run.flat[-1]), RunHistory(run.records, run.eval_batches)
