"""Whole-model gradient verification against central finite differences.

One forward and backward pass gives every analytic gradient. The numeric
side lays every parameter scalar end to end in `named_parameters` order and
probes them CHUNK at a time, whatever tensor they belong to, both sides in
one no-grad forward pass. Every tensor a chunk of k scalars touches is
stacked on a new leading axis of 2k copies, `(2k, *shape)` for a matrix (a
matmul weight, the class token, positions, word embeddings) and
`(2k, 1, size)` for a vector (a bias, a norm gain/shift). Copy j carries +h
at the chunk's scalar j, if it is the tensor's, and copy k + j carries -h
there. The pass starts from the one clip: its batch axis stays 1 until the
first op that reads a stacked tensor, and from there broadcasting carries
the 2k rows, so the layers before the probed tensors run once. The 2k
losses are read off the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError
from .model import CaptionerModel, DecoderConfig, EncoderConfig
from .text import EOS, SOS
from .training import bce_with_logits, caption_terms, label_smoothed_ce, tagging_terms

DEFAULT_TOLERANCE = 1e-4
CHUNK = 128  # scalars probed per forward pass
# the probe clip and its objective; VOCAB_SIZE serves a config that sets none
NUM_PATCHES = 3
CAPTION_WORDS = 4
NUM_TAGS = 3
SMOOTHING = 0.1
VOCAB_SIZE = 9


@dataclass
class GradCheckReport:
    max_error: float
    per_param: dict[str, float]

    @property
    def passed(self) -> bool:
        return self.max_error < DEFAULT_TOLERANCE


def tiny_configs(d: int = 32, heads: int = 2, enc_layers: int = 2,
                 dec_layers: int = 1) -> tuple[EncoderConfig, DecoderConfig]:
    enc = EncoderConfig(d=d, heads=heads, layers=enc_layers, ffn_dim=2 * d,
                        dropout=0.0, patch_dim=32, max_patches=NUM_PATCHES)
    dec = DecoderConfig(vocab_size=VOCAB_SIZE, d=d, heads=heads,
                        layers=dec_layers, ffn_dim=2 * d, dropout=0.0)
    return enc, dec


class Objective:
    """The combined objective (smoothed caption CE + tagging BCE) of one clip,
    in double precision with dropout off, so every parameter participates."""

    def __init__(self, model: CaptionerModel, patches: np.ndarray,
                 tokens: np.ndarray, labels: np.ndarray):
        self.model = model
        self.patches = patches          # (1, N, patch_dim)
        self.inputs = tokens[None, :-1]
        self.targets = tokens[None, 1:]
        self.labels = labels            # (1, K_tags)

    def _logits(self) -> tuple[ad.Tensor, ad.Tensor]:
        m = self.model
        encoded = m.encode(m.embed_patches(self.patches))
        logits = m.decode(self.inputs, m.encoder_memory(encoded))
        return logits, m.tagging_logits(encoded)

    def loss(self) -> ad.Tensor:
        logits, tag_logits = self._logits()
        ce = label_smoothed_ce(logits, self.targets, smoothing=SMOOTHING)
        return ad.add(ce, bce_with_logits(tag_logits, self.labels))

    def row_losses(self, rows: int) -> np.ndarray:
        """Losses (rows,) of one no-grad forward of the clip. A parameter
        stacked on a leading axis of length `rows` gives each row its own
        copy; the rows branch off at the first op that reads one, and a pass
        with none stacked gives one loss for every row. Each row sums its
        `caption_terms` and averages its `tagging_terms` as `loss()` does,
        so at equal parameters the values equal `loss()` bit for bit."""
        with ad.no_grad():
            logits, tag_logits = self._logits()
            ce, valid = caption_terms(logits, self.targets, SMOOTHING)
            bce = tagging_terms(tag_logits, self.labels)
        losses = ce.data.sum(axis=-1) * (-1.0 / valid.sum()) - bce.data.mean(axis=-1)
        return np.broadcast_to(losses, (rows,))


def make_objective(seed, enc: EncoderConfig, dec: DecoderConfig) -> Objective:
    """A model at a generic parameter point and one random clip, caption
    and tag labels, all drawn from `seed`."""
    model = CaptionerModel(enc, dec, num_tags=NUM_TAGS, seed=seed)
    # re-draw parameters at a generic O(0.2) point: the 0.02-std training
    # init leaves most gradients below the finite-difference noise floor
    grng = np.random.default_rng([seed, 2])
    for name, p in model.named_parameters():
        if name.endswith("gamma"):
            p.data = 1.0 + 0.1 * grng.standard_normal(p.shape)
        else:
            p.data = 0.2 * grng.standard_normal(p.shape)
    rng = np.random.default_rng([seed, 1])
    patches = rng.normal(0.0, 1.0, (1, NUM_PATCHES, enc.patch_dim))
    words = rng.integers(4, dec.vocab_size, size=CAPTION_WORDS)
    tokens = np.array([SOS, *words, EOS])
    labels = rng.integers(0, 2, size=(1, NUM_TAGS)).astype(np.float64)
    return Objective(model, patches, tokens, labels)


def _central_differences(objective: Objective, h: float) -> list[np.ndarray]:
    """(loss(theta + h e_i) - loss(theta - h e_i)) / 2h for every scalar i of
    the model, one array per tensor. The tensors' scalars are laid end to
    end in `named_parameters` order, and each chunk of k <= CHUNK of them
    takes one forward pass of 2k rows, rows 0..k-1 at +h and rows k..2k-1
    at -h, with every tensor the chunk touches stacked."""
    params = objective.model.parameters()
    origs = [p.data for p in params]
    ends = np.cumsum([orig.size for orig in origs])
    central = np.empty(int(ends[-1]))
    for first in range(0, central.size, CHUNK):
        last = min(first + CHUNK, central.size)
        k = last - first
        try:
            for p, orig, end in zip(params, origs, ends):
                start = end - orig.size
                if end <= first or start >= last:
                    continue
                idx = np.arange(max(first, start), min(last, end))
                rows, idx = idx - first, idx - start
                shape = (2 * k, *orig.shape) if orig.ndim == 2 else (2 * k, 1, orig.size)
                stacked = np.repeat(orig.reshape(1, -1), 2 * k, axis=0)
                stacked[rows, idx] += h
                stacked[rows + k, idx] -= h
                p.data = stacked.reshape(shape)
            losses = objective.row_losses(2 * k)
        finally:
            for p, orig in zip(params, origs):
                p.data = orig
        if not np.all(np.isfinite(losses)):
            raise NumericError("non-finite loss during finite differences")
        central[first:last] = (losses[:k] - losses[k:]) / (2.0 * h)
    return np.split(central, ends[:-1])


def check_objective(objective: Objective, h: float = 1e-4) -> GradCheckReport:
    """Max relative error `|a - c| / max(1e-12, |a| + |c|)` per parameter
    tensor between analytic gradients a and central differences c."""
    if h <= 0:
        raise NumericError(f"finite-difference step must be positive, got {h}")
    model = objective.model
    model.zero_grad()
    ad.backward(objective.loss())
    # a tensor the loss does not reach has no grad: its gradient is 0
    analytic = {name: np.zeros(p.data.size) if p.grad is None else p.grad.reshape(-1)
                for name, p in model.named_parameters()}
    if not all(np.all(np.isfinite(a)) for a in analytic.values()):
        raise NumericError("non-finite analytic gradient")
    per_param = {}
    for (name, a), c in zip(analytic.items(), _central_differences(objective, h)):
        err = np.abs(a - c) / np.maximum(1e-12, np.abs(a) + np.abs(c))
        per_param[name] = float(err.max())
    return GradCheckReport(max_error=max(per_param.values()), per_param=per_param)


def model_gradient_check(seed, enc: EncoderConfig, dec: DecoderConfig,
                         h: float = 1e-4) -> GradCheckReport:
    """Finite-difference check of d(loss)/d(theta) for every parameter of
    `make_objective`'s model."""
    return check_objective(make_objective(seed, enc, dec), h)
