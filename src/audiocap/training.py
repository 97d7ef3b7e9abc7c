"""Training objectives, learning-rate schedule, and epoch loops."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .audio import LogMelSpectrogram
from .autodiff import NumericError, Tensor
from .model import CaptionerModel
from .optim import Adam
from .text import PAD


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    base_lr: float = 1e-4
    warmup_epochs: int = 5
    decay_every: int = 10
    decay_factor: float = 0.1
    label_smoothing: float = 0.1
    dropout: float = 0.2
    seed: int | None = 0
    freeze_encoder: bool = False
    checkpoint_every: int = 50

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        # NaN fails both comparisons; json.loads accepts NaN and Infinity
        if not 0.0 < self.base_lr < math.inf:
            raise ValueError("base_lr must be positive and finite")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.decay_every < 1:
            raise ValueError("decay_every must be >= 1")
        if not 0.0 < self.decay_factor < math.inf:
            raise ValueError("decay_factor must be positive and finite")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def pretrain_defaults(**overrides) -> TrainConfig:
    """Tagging-pretraining recipe: 20 epochs, batch 128."""
    base = dict(epochs=20, batch_size=128)
    base.update(overrides)
    return TrainConfig(**base)


def lr_at_epoch(epoch: int, cfg: TrainConfig) -> float:
    """Linear warmup to base_lr over warmup_epochs, then step decay by
    decay_factor every decay_every epochs (first decay boundary at
    warmup end + decay_every + 1, i.e. epoch 11 under the defaults)."""
    if epoch < 1:
        raise ValueError("epochs are 1-indexed")
    if cfg.warmup_epochs > 0 and epoch <= cfg.warmup_epochs:
        return cfg.base_lr * epoch / cfg.warmup_epochs
    return cfg.base_lr * cfg.decay_factor ** ((epoch - 1) // cfg.decay_every)


def caption_terms(logits: Tensor, targets: np.ndarray,
                  smoothing: float) -> tuple[Tensor, np.ndarray]:
    """Log-likelihoods (B, T) of logits (B, T, K) under integer targets
    smoothed to (1 - eps) + eps/K on the true class and eps/K elsewhere, 0
    where the target is PAD, and the non-pad mask. Targets (1, T) serve
    every row."""
    k = logits.shape[-1]
    q = np.full(targets.shape + (k,), smoothing / k)
    np.put_along_axis(q, targets[..., None], 1.0 - smoothing + smoothing / k, axis=-1)
    valid = (targets != PAD).astype(np.float64)
    logp = ad.log_softmax(logits, axis=-1)
    return ad.mul(ad.sum_(ad.mul(logp, q), axis=-1), valid), valid


def tagging_terms(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Log-likelihood of each binary label under its pre-sigmoid score,
    y log sigmoid(z) + (1 - y) log sigmoid(-z), via stable log-sigmoid."""
    return ad.add(ad.mul(ad.logsigmoid(logits), labels),
                  ad.mul(ad.logsigmoid(ad.neg(logits)), 1.0 - labels))


def label_smoothed_ce(logits: Tensor, targets: np.ndarray,
                      smoothing: float = 0.0) -> Tensor:
    """Mean negative `caption_terms` of logits (B, T, K) and integer targets
    (B, T) over the positions whose target is not PAD."""
    targets = np.asarray(targets)
    b, t, k = logits.shape
    if targets.shape != (b, t):
        raise ValueError(f"targets shape {targets.shape} does not match logits {(b, t)}")
    if targets.min() < 0 or targets.max() >= k:
        raise ValueError("target id out of range for the vocabulary")
    terms, valid = caption_terms(logits, targets, smoothing)
    n_valid = valid.sum()
    if n_valid == 0:
        raise ValueError("no non-pad target positions")
    return ad.mul(ad.sum_(terms), -1.0 / n_valid)


def bce_with_logits(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Binary cross-entropy from pre-sigmoid scores: the negative mean of
    `tagging_terms` over (sample, class) entries."""
    labels = np.asarray(labels, dtype=np.float64)
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("tag labels must be binary")
    if labels.shape != logits.shape:
        raise ValueError(f"labels shape {labels.shape} != logits shape {logits.shape}")
    return ad.neg(ad.mean(tagging_terms(logits, labels)))


# ---------------------------------------------------------------------------
# batching and epoch loops
# ---------------------------------------------------------------------------

@dataclass
class CaptionExample:
    patches: np.ndarray  # (N, patch_dim)
    tokens: list[int]    # <sos> ... <eos>
    logmel: LogMelSpectrogram | None = None  # what SpecAugment re-masks


@dataclass
class TaggingExample:
    patches: np.ndarray
    labels: np.ndarray   # (K_tags,) binary
    logmel: LogMelSpectrogram | None = None


def caption_batch_loss(model: CaptionerModel, batch: Sequence[CaptionExample],
                       smoothing: float, train: bool,
                       rng: np.random.Generator | None) -> Tensor:
    """Teacher forcing: inputs are targets shifted right behind <sos>."""
    max_len = max(len(ex.tokens) for ex in batch)
    inputs = np.full((len(batch), max_len - 1), PAD, dtype=np.int64)
    targets = np.full((len(batch), max_len - 1), PAD, dtype=np.int64)
    for i, ex in enumerate(batch):
        ids = np.asarray(ex.tokens, dtype=np.int64)
        inputs[i, : len(ids) - 1] = ids[:-1]
        targets[i, : len(ids) - 1] = ids[1:]
    patches = np.stack([ex.patches for ex in batch])
    logits = model.caption_logits(patches, inputs, train=train, rng=rng)
    return label_smoothed_ce(logits, targets, smoothing)


@dataclass
class EpochStats:
    epoch: int
    lr: float
    mean_loss: float


BatchLoss = Callable[[list, np.random.Generator], Tensor]


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def train_epoch(examples: Sequence, batch_loss: BatchLoss, cfg: TrainConfig,
                optimizer: Adam, epoch: int) -> EpochStats:
    """One pass over the dataset: one Adam step per batch at lr_at_epoch on
    `batch_loss(batch, rng)`. A non-finite batch loss or gradient stops
    training with a NumericError before it reaches the parameters."""
    if not examples:
        raise ValueError("empty training dataset")
    lr = lr_at_epoch(epoch, cfg)
    order = np.random.default_rng([cfg.seed, epoch, 0]).permutation(len(examples))
    losses = []
    for bi, idx in enumerate(_batches(len(examples), cfg.batch_size, order)):
        rng = np.random.default_rng([cfg.seed, epoch, 1 + bi])
        optimizer.zero_grad()
        loss = batch_loss([examples[i] for i in idx], rng)
        value = loss.item()
        if not math.isfinite(value):
            raise NumericError(f"non-finite loss {value} at epoch {epoch}, batch {bi + 1}")
        ad.backward(loss)
        if not all(ad.all_finite(p.grad) for p in optimizer.params
                   if p.grad is not None):
            raise NumericError(f"non-finite gradient at epoch {epoch}, batch {bi + 1}")
        optimizer.step(lr)
        losses.append(value)
    return EpochStats(epoch=epoch, lr=lr, mean_loss=float(np.mean(losses)))


@dataclass
class TrainResult:
    history: list[EpochStats] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.history[-1].mean_loss


ExampleProvider = Callable[[int], Sequence[CaptionExample]]


def trainable_caption_params(model: CaptionerModel,
                             freeze_encoder: bool) -> list[Tensor]:
    if not freeze_encoder:
        return [p for name, p in model.named_parameters()
                if not name.startswith("tag_head")]
    return [p for name, p in model.named_parameters()
            if not (name.startswith("enc.") or name.startswith("tag_head"))]


def _run_epochs(provider: Callable[[int], Sequence], batch_loss: BatchLoss,
                cfg: TrainConfig, optimizer: Adam, start_epoch: int,
                on_epoch: Callable[[EpochStats], None] | None,
                stop_below: float | None = None) -> TrainResult:
    result = TrainResult()
    for epoch in range(start_epoch, cfg.epochs + 1):
        stats = train_epoch(provider(epoch), batch_loss, cfg, optimizer, epoch)
        result.history.append(stats)
        if on_epoch is not None:
            on_epoch(stats)
        if stop_below is not None and stats.mean_loss < stop_below:
            break
    return result


def train_captioner(model: CaptionerModel, provider: ExampleProvider,
                    cfg: TrainConfig, start_epoch: int = 1,
                    optimizer: Adam | None = None,
                    on_epoch: Callable[[EpochStats], None] | None = None,
                    stop_below: float | None = None) -> TrainResult:
    """Run caption training epochs start_epoch..cfg.epochs.

    `provider(epoch)` supplies (possibly augmented) examples for each epoch;
    `stop_below` halts early once the mean epoch loss crosses the threshold.
    """
    optimizer = optimizer or Adam(trainable_caption_params(model, cfg.freeze_encoder))

    def batch_loss(batch, rng):
        return caption_batch_loss(model, batch, cfg.label_smoothing, train=True, rng=rng)

    return _run_epochs(provider, batch_loss, cfg, optimizer, start_epoch,
                       on_epoch, stop_below)


def pretrain_tagging(model: CaptionerModel, provider: Callable[[int], Sequence[TaggingExample]],
                     cfg: TrainConfig, on_epoch: Callable[[EpochStats], None] | None = None
                     ) -> TrainResult:
    """Audio-tagging pretraining: only encoder + tagging head are updated."""
    params = [p for name, p in model.named_parameters()
              if name.startswith("enc.") or name.startswith("tag_head")]

    def batch_loss(batch, rng):
        patches = np.stack([ex.patches for ex in batch])
        labels = np.stack([ex.labels for ex in batch])
        encoded = model.encode(model.embed_patches(patches), train=True, rng=rng)
        return bce_with_logits(model.tagging_logits(encoded), labels)

    return _run_epochs(provider, batch_loss, cfg, Adam(params), 1, on_epoch)
