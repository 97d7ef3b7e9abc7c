"""Whole-model gradient verification against central finite differences.

One forward and backward pass gives every analytic gradient. The numeric
side probes up to CHUNK scalars of one parameter tensor per no-grad forward
pass, both sides at once: the tensor is stacked on a new leading axis of
2k copies, `(2k, *shape)` for a matrix (a matmul weight, the class token,
positions, word embeddings) and `(2k, 1, size)` for a vector (a bias, a
norm gain/shift). Copy j carries +h at scalar j and copy k + j carries -h
there. The stage inputs are repeated 2k times, so batch row j sees copy j,
and the 2k losses are read off the rows.

A pass starts at the first stage that reads the probed tensor: patch
embedding, encoder layer i, the encoder's final norm, or the heads (bridge,
decoder and tag head, from the encoded rows). One unperturbed pass of one
row keeps every stage's input first; the stages before the start would
compute that same input in every row.
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
        self.stage_inputs: list[np.ndarray] = []  # see keep_stage_inputs

    def _logits(self, rows: int, start: int) -> tuple[ad.Tensor, ad.Tensor]:
        m = self.model
        if start == 0:
            encoded = m.encode(m.embed_patches(np.repeat(self.patches, rows, axis=0)))
        else:
            encoded = ad.Tensor(np.repeat(self.stage_inputs[start], rows, axis=0))
            for layer in m.enc_layers[start - 1:]:
                encoded = layer(encoded, False, None)
            if start <= len(m.enc_layers) + 1:  # not yet the heads
                encoded = m.enc_final_ln(encoded)
        logits = m.decode(np.repeat(self.inputs, rows, axis=0),
                          m.encoder_memory(encoded))
        return logits, m.tagging_logits(encoded)

    def loss(self) -> ad.Tensor:
        logits, tag_logits = self._logits(1, 0)
        ce = label_smoothed_ce(logits, self.targets, smoothing=SMOOTHING)
        return ad.add(ce, bce_with_logits(tag_logits, self.labels))

    def stage_of(self, p: ad.Tensor) -> int:
        """The first stage that reads parameter `p`: 0 patch embedding (the
        class token and positions included), 1 + i encoder layer i, then the
        encoder's final norm, then the heads (bridge, decoder, tag head)."""
        m = self.model
        if p is m.cls_token or p is m.pos_embed:
            return 0
        modules = [m.patch_embed, *m.enc_layers, m.enc_final_ln]
        for stage, module in enumerate(modules):
            if any(t is p for _, t in module.named_params("")):
                return stage
        return len(modules)

    def keep_stage_inputs(self) -> None:
        """One unperturbed no-grad pass of one row keeps the input of every
        stage (see `stage_of`) for `row_losses` to start from."""
        m = self.model
        with ad.no_grad():
            x = m.embed_patches(self.patches)
            inputs = [self.patches]
            for layer in m.enc_layers:
                inputs.append(x.data)
                x = layer(x, False, None)
            inputs.append(x.data)
            inputs.append(m.enc_final_ln(x).data)
        self.stage_inputs = inputs

    def row_losses(self, rows: int, start: int) -> np.ndarray:
        """Losses (rows,) of `rows` copies of the clip in one no-grad forward
        from stage `start`, whose kept input (`keep_stage_inputs`) is
        repeated `rows` times; stage 0 runs the whole model. A parameter of
        that stage or a later one stacked on a leading axis of length `rows`
        gives each row its own copy. Each row sums its `caption_terms` and
        averages its `tagging_terms` as `loss()` does, so at equal parameters
        the values equal `loss()` bit for bit."""
        with ad.no_grad():
            logits, tag_logits = self._logits(rows, start)
            ce, valid = caption_terms(logits, self.targets, SMOOTHING)
            bce = tagging_terms(tag_logits, self.labels)
        return ce.data.sum(axis=-1) * (-1.0 / valid.sum()) - bce.data.mean(axis=-1)


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


def _central_differences(objective: Objective, p: ad.Tensor,
                         h: float) -> np.ndarray:
    """(loss(theta + h e_i) - loss(theta - h e_i)) / 2h for every scalar i of
    `p`: one forward pass of 2k rows per chunk of k <= CHUNK scalars, rows
    0..k-1 at +h and rows k..2k-1 at -h, from the first stage that reads
    `p`. Needs `objective.keep_stage_inputs()` first."""
    orig = p.data
    flat = orig.reshape(-1)
    start = objective.stage_of(p)
    central = np.empty(flat.size)
    try:
        for first in range(0, flat.size, CHUNK):
            idx = np.arange(first, min(first + CHUNK, flat.size))
            k = idx.size
            shape = (2 * k, *orig.shape) if orig.ndim == 2 else (2 * k, 1, orig.size)
            stacked = np.repeat(flat[None], 2 * k, axis=0)
            stacked[np.arange(k), idx] = flat[idx] + h
            stacked[np.arange(k, 2 * k), idx] = flat[idx] - h
            p.data = stacked.reshape(shape)
            losses = objective.row_losses(2 * k, start)
            if not np.all(np.isfinite(losses)):
                raise NumericError("non-finite loss during finite differences")
            central[idx] = (losses[:k] - losses[k:]) / (2.0 * h)
    finally:
        p.data = orig
    return central


def check_objective(objective: Objective, h: float = 1e-4) -> GradCheckReport:
    """Max relative error `|a - c| / max(1e-12, |a| + |c|)` per parameter
    tensor between analytic gradients a and central differences c."""
    if h <= 0:
        raise NumericError(f"finite-difference step must be positive, got {h}")
    model = objective.model
    model.zero_grad()
    ad.backward(objective.loss())
    objective.keep_stage_inputs()
    per_param = {}
    for name, p in model.named_parameters():
        # a tensor the loss does not reach has no grad: its gradient is 0
        analytic = np.zeros(p.data.size) if p.grad is None else p.grad.reshape(-1)
        if not np.all(np.isfinite(analytic)):
            raise NumericError("non-finite analytic gradient")
        central = _central_differences(objective, p, h)
        err = np.abs(analytic - central) / np.maximum(
            1e-12, np.abs(analytic) + np.abs(central))
        per_param[name] = float(err.max())
    return GradCheckReport(max_error=max(per_param.values()), per_param=per_param)


def model_gradient_check(seed, enc: EncoderConfig, dec: DecoderConfig,
                         h: float = 1e-4) -> GradCheckReport:
    """Finite-difference check of d(loss)/d(theta) for every parameter of
    `make_objective`'s model."""
    return check_objective(make_objective(seed, enc, dec), h)
