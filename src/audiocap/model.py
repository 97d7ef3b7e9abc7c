"""Patch-embedding transformer encoder-decoder with tagging and caption heads.

Encoder: flattened spectrogram patches are linearly projected, a learnable
class token is prepended, trainable positional embeddings are added, and the
sequence runs through pre-norm self-attention blocks. Decoder: token
embeddings run through pre-norm blocks of masked self-attention, cross
attention over the full encoder output (class token included, so generation
sees clip-level and patch-level features), and a feed-forward sublayer,
ending in a vocabulary projection. Every projection is one `ad.linear` node,
a 2-D GEMM over all positions whatever the batch layout. Training decodes
whole prefixes at once; inference decodes one position at a time for the
live sequences of many clips together, through the same decoder layer call,
reusing cached keys and values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_STD = 0.02


@dataclass
class EncoderConfig:
    d: int = 128
    heads: int = 4
    layers: int = 2
    ffn_dim: int = 512
    dropout: float = 0.2
    patch_dim: int = 256  # frames_per_patch * mel_bins
    max_patches: int = 160

    def __post_init__(self):
        if self.d % self.heads:
            raise ValueError(f"encoder dim {self.d} not divisible by {self.heads} heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


@dataclass
class DecoderConfig:
    vocab_size: int
    d: int = 128
    heads: int = 4
    layers: int = 2
    ffn_dim: int = 512
    dropout: float = 0.2

    def __post_init__(self):
        if self.d % self.heads:
            raise ValueError(f"decoder dim {self.d} not divisible by {self.heads} heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


def _param(rng: np.random.Generator | None, shape: tuple[int, ...],
           fill: float | None = None) -> Tensor:
    """A trainable parameter: N(0, INIT_STD) draws from `rng`, or `fill`
    everywhere. With rng None it is a placeholder, a read-only zero view of
    `shape` with no gradient buffer, for `load_model_state` to bind a stored
    array in its place."""
    if rng is None:
        return Tensor(np.broadcast_to(0.0, shape))
    data = rng.normal(0.0, INIT_STD, shape) if fill is None else np.full(shape, fill)
    return Tensor(data, requires_grad=True)


class Module:
    """A model part. Every `Tensor` attribute is a parameter and every
    `Module` attribute a sub-part; other attributes (None, sizes, rates) are
    neither."""

    def named_params(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        """(`prefix.attr` dotted name, parameter) pairs, sub-parts walked in
        place, in the order the constructor set the attributes."""
        for attr, value in vars(self).items():
            if isinstance(value, Tensor):
                yield f"{prefix}.{attr}", value
            elif isinstance(value, Module):
                yield from value.named_params(f"{prefix}.{attr}")


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator | None,
                 bias: bool = True):
        self.w = _param(rng, (d_in, d_out))
        self.b = _param(rng, (d_out,), 0.0) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ad.linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, d: int, rng: np.random.Generator | None):
        # rng draws nothing here; None asks for placeholders (see _param)
        self.gamma = _param(rng, (d,), 1.0)
        self.beta = _param(rng, (d,), 0.0)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.gamma, self.beta)


class MultiHeadAttention(Module):
    """Scaled dot-product attention with h heads and output mixing."""

    def __init__(self, d: int, heads: int, rng: np.random.Generator | None):
        self.d, self.heads, self.d_k = d, heads, d // heads
        # pure projection matrices: a key bias would be cancelled by the
        # softmax shift invariance, so none of q/k/v/o carries one
        self.wq = Linear(d, d, rng, bias=False)
        self.wk = Linear(d, d, rng, bias=False)
        self.wv = Linear(d, d, rng, bias=False)
        self.wo = Linear(d, d, rng, bias=False)

    def _split(self, x: Tensor) -> Tensor:
        """(B, T, d) -> (B, h, T, d_k)."""
        b, t, _ = x.shape
        return ad.transpose(ad.reshape(x, (b, t, self.heads, self.d_k)), (0, 2, 1, 3))

    def keys_values(self, xkv: Tensor) -> tuple[Tensor, Tensor]:
        """Head-split key and value projections (B, h, Tk, d_k) of `xkv`."""
        return self._split(self.wk(xkv)), self._split(self.wv(xkv))

    def __call__(self, xq: Tensor, kv: tuple[Tensor, Tensor],
                 mask: np.ndarray | None = None,
                 slots: tuple[np.ndarray, np.ndarray] | None = None) -> Tensor:
        """Queries projected from `xq` (B, Tq, d) attend over the head-split
        keys and values `kv` (see `keys_values`; B, h, Tk, d_k, a batch axis
        of 1 broadcasts over xq's) -> (B, Tq, d). With `slots` = (group,
        place), no-grad and Tq = 1, row r of xq is query `place[r]` of group
        `group[r]` of kv (G, h, Tk, d_k): each group's queries, padded with
        zero rows to the largest group, attend together over that group."""
        b, tq, _ = xq.shape
        k, v = kv
        if mask is not None and mask.shape != (tq, k.shape[2]):
            raise ValueError(f"mask shape {mask.shape} does not match ({tq}, {k.shape[2]})")
        q = self._split(self.wq(xq))
        scale = 1.0 / np.sqrt(self.d_k)
        if slots is None:
            mixed = ad.attention(q, k, v, scale, mask)
        else:
            group, place = slots
            padded = np.zeros((k.shape[0], self.heads, int(place.max()) + 1, self.d_k))
            padded[group, :, place] = q.data[:, :, 0]
            out = ad.attention(Tensor(padded), k, v, scale).data
            mixed = Tensor(out[group, :, place][:, :, None])
        mixed = ad.transpose(mixed, (0, 2, 1, 3))
        return self.wo(ad.reshape(mixed, (b, tq, self.d)))


class FeedForward(Module):
    def __init__(self, d: int, ffn_dim: int, rng: np.random.Generator | None):
        self.fc1 = Linear(d, ffn_dim, rng)
        self.fc2 = Linear(ffn_dim, d, rng)

    def __call__(self, x: Tensor, dropout: float, train: bool,
                 rng: np.random.Generator | None) -> Tensor:
        h = ad.gelu(self.fc1(x))
        if train and dropout > 0.0:
            h = ad.dropout(h, dropout, rng)
        return self.fc2(h)


def _residual(x: Tensor, sublayer_out: Tensor, dropout: float, train: bool,
              rng: np.random.Generator | None) -> Tensor:
    if train and dropout > 0.0:
        sublayer_out = ad.dropout(sublayer_out, dropout, rng)
    return ad.add(x, sublayer_out)


class EncoderLayer(Module):
    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator | None):
        self.ln1 = LayerNorm(cfg.d, rng)
        self.attn = MultiHeadAttention(cfg.d, cfg.heads, rng)
        self.ln2 = LayerNorm(cfg.d, rng)
        self.ffn = FeedForward(cfg.d, cfg.ffn_dim, rng)
        self.dropout = cfg.dropout

    def __call__(self, x: Tensor, train: bool, rng) -> Tensor:
        normed = self.ln1(x)
        x = _residual(x, self.attn(normed, self.attn.keys_values(normed)),
                      self.dropout, train, rng)
        x = _residual(x, self.ffn(self.ln2(x), self.dropout, train, rng),
                      self.dropout, train, rng)
        return x


class DecoderLayer(Module):
    def __init__(self, cfg: DecoderConfig, rng: np.random.Generator | None):
        self.ln1 = LayerNorm(cfg.d, rng)
        self.self_attn = MultiHeadAttention(cfg.d, cfg.heads, rng)
        self.ln2 = LayerNorm(cfg.d, rng)
        self.cross_attn = MultiHeadAttention(cfg.d, cfg.heads, rng)
        self.ln3 = LayerNorm(cfg.d, rng)
        self.ffn = FeedForward(cfg.d, cfg.ffn_dim, rng)
        self.dropout = cfg.dropout

    def __call__(self, x: Tensor, cross_kv: tuple[Tensor, Tensor],
                 mask: np.ndarray | None, train: bool, rng,
                 past_kv: tuple[Tensor, Tensor] | None = None,
                 slots: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Positions x (B, T, d) attend over the self-attention keys and
        values `past_kv` (B, h, t, d_k) of earlier positions, if any, and
        over each other under `mask`; then over the encoder memory's
        cross-attention keys and values `cross_kv` (placed by `slots`, see
        `MultiHeadAttention`). Returns the output and the self-attention
        keys and values of every position so far."""
        normed = self.ln1(x)
        k, v = self.self_attn.keys_values(normed)
        if past_kv is not None:
            k = ad.concat([past_kv[0], k], axis=2)
            v = ad.concat([past_kv[1], v], axis=2)
        x = _residual(x, self.self_attn(normed, (k, v), mask), self.dropout, train, rng)
        x = _residual(x, self.cross_attn(self.ln2(x), cross_kv, slots=slots),
                      self.dropout, train, rng)
        x = _residual(x, self.ffn(self.ln3(x), self.dropout, train, rng),
                      self.dropout, train, rng)
        return x, (k, v)


class DecoderCache:
    """What incremental decoding of C clips reuses, per decoder layer: the
    cross-attention keys and values (C, h, S, d_k) of the clips' memories,
    computed once, and the self-attention keys and values (R, h, t, d_k) of
    every position decoded so far, one row per live sequence. Rows are
    ordered clip by clip; `row_clip[r]` is row r's clip, an index into the
    cross-attention arrays. Decoding starts with one row per clip."""

    def __init__(self, cross_kv: list[tuple[Tensor, Tensor]], clips: int):
        self.cross_kv = cross_kv
        self.self_kv: list[tuple[Tensor, Tensor] | None] = [None] * len(cross_kv)
        self.clips = clips
        self.row_clip = np.arange(clips)

    def slots(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """(clip, place) of each of a step's `rows` rows: its clip and its
        index among that clip's rows."""
        if rows != self.row_clip.size:
            raise ValueError(f"{rows} rows for a cache of {self.row_clip.size}")
        counts = np.bincount(self.row_clip)
        first = np.cumsum(counts) - counts
        return self.row_clip, np.arange(rows) - first[self.row_clip]

    def reorder(self, rows) -> None:
        """Continue from the sequences at `rows`, in that order, which keeps
        the rows clip by clip; a row repeats when several continuations share
        a parent. A clip none of whose rows is named leaves the batch: its
        cross-attention keys and values are dropped."""
        rows = np.asarray(rows, dtype=np.int64)
        self.self_kv = [(Tensor(k.data[rows]), Tensor(v.data[rows]))
                        for k, v in self.self_kv]
        clip = self.row_clip[rows]
        kept = np.unique(clip)
        if kept.size < self.clips:
            self.cross_kv = [(Tensor(k.data[kept]), Tensor(v.data[kept]))
                             for k, v in self.cross_kv]
            self.clips = kept.size
            clip = np.searchsorted(kept, clip)
        self.row_clip = clip


def causal_mask(t: int) -> np.ndarray:
    """(t, t) additive mask: 0 on/below the diagonal, -inf above."""
    mask = np.zeros((t, t))
    mask[np.triu_indices(t, k=1)] = -np.inf
    return mask


class CaptionerModel:
    """Patch embedding, encoder, tagging head and, unless `dec` is None, the
    decoder. Tagging pretraining builds the encoder-only model: its
    parameters are the `enc.*` and `tag_head.*` of the full one. With seed
    None every parameter is a placeholder (see `_param`): nothing is drawn,
    and `load_model_state` binds stored arrays in their place, for
    inference."""

    def __init__(self, enc: EncoderConfig, dec: DecoderConfig | None, num_tags: int,
                 seed: int | None = 0, word_embeddings: np.ndarray | None = None):
        if dec is not None and dec.vocab_size < 4:
            raise ValueError("decoder vocab_size must cover the 4 reserved ids")
        if num_tags < 1:
            raise ValueError("num_tags must be >= 1")
        self.enc_cfg = enc
        self.dec_cfg = dec
        self.num_tags = num_tags
        rng = None if seed is None else np.random.default_rng(seed)

        self.patch_embed = Linear(enc.patch_dim, enc.d, rng, bias=False)
        self.cls_token = _param(rng, (1, enc.d))
        self.pos_embed = _param(rng, (enc.max_patches + 1, enc.d))
        self.enc_layers = [EncoderLayer(enc, rng) for _ in range(enc.layers)]
        self.enc_final_ln = LayerNorm(enc.d, rng)

        if dec is not None:
            self.bridge = Linear(enc.d, dec.d, rng) if enc.d != dec.d else None
            if word_embeddings is None:
                self.word_embed = _param(rng, (dec.vocab_size, dec.d))
            elif word_embeddings.shape != (dec.vocab_size, dec.d):
                raise ValueError(
                    f"word embeddings shape {word_embeddings.shape} does not match "
                    f"({dec.vocab_size}, {dec.d})")
            else:
                self.word_embed = Tensor(np.array(word_embeddings), requires_grad=True)
            self.dec_layers = [DecoderLayer(dec, rng) for _ in range(dec.layers)]
            self.dec_final_ln = LayerNorm(dec.d, rng)
            self.out_proj = Linear(dec.d, dec.vocab_size, rng)

        self.tag_head = Linear(enc.d, num_tags, rng)

    # ----- parameter plumbing -------------------------------------------
    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield from self.patch_embed.named_params("enc.patch_embed")
        yield "enc.cls", self.cls_token
        yield "enc.pos", self.pos_embed
        for i, layer in enumerate(self.enc_layers):
            yield from layer.named_params(f"enc.layer{i}")
        yield from self.enc_final_ln.named_params("enc.final_ln")
        if self.dec_cfg is not None:
            if self.bridge is not None:
                yield from self.bridge.named_params("bridge")
            yield "dec.word_embed", self.word_embed
            for i, layer in enumerate(self.dec_layers):
                yield from layer.named_params(f"dec.layer{i}")
            yield from self.dec_final_ln.named_params("dec.final_ln")
            yield from self.out_proj.named_params("dec.out_proj")
        yield from self.tag_head.named_params("tag_head")

    def parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters()]

    def param_count(self) -> int:
        return sum(p.data.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ----- forward passes -----------------------------------------------
    def embed_patches(self, patches: np.ndarray) -> Tensor:
        """(B, N, patch_dim) -> (B, N+1, d): project, prepend class token,
        add trainable positions. A class token stacked to (B, 1, d) and
        positions stacked to (B, P, d) give batch row k its own copy k."""
        patches = np.asarray(patches, dtype=np.float64)
        b, n, pd = patches.shape
        if pd != self.enc_cfg.patch_dim:
            raise ValueError(f"patch dim {pd} does not match config {self.enc_cfg.patch_dim}")
        if n > self.enc_cfg.max_patches:
            raise ValueError(f"{n} patches exceed max_patches {self.enc_cfg.max_patches}")
        proj = self.patch_embed(Tensor(patches))  # (B, N, d)
        cls_rows = ad.add(Tensor(np.zeros((b, 1, self.enc_cfg.d))),
                          ad.reshape(self.cls_token, (-1, 1, self.enc_cfg.d)))
        x = ad.concat([cls_rows, proj], axis=1)
        return ad.add(x, self.pos_embed[..., : n + 1, :])

    def encode(self, embedded: Tensor, train: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        x = embedded
        for layer in self.enc_layers:
            x = layer(x, train, rng)
        return self.enc_final_ln(x)

    def encoder_memory(self, encoded: Tensor) -> Tensor:
        """Encoder rows as seen by the decoder (class token included)."""
        return self.bridge(encoded) if self.bridge is not None else encoded

    def decode(self, token_ids: np.ndarray, memory: Tensor, train: bool = False,
               rng: np.random.Generator | None = None) -> Tensor:
        """Token prefixes (B, T) + memory (B, S, d_dec) -> logits (B, T, K_v)."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim != 2 or token_ids.shape[1] == 0:
            raise ValueError("decoder prefix must be a non-empty (B, T) id array")
        t = token_ids.shape[1]
        x = ad.embedding(self.word_embed, token_ids)
        mask = causal_mask(t)
        for layer in self.dec_layers:
            x, _ = layer(x, layer.cross_attn.keys_values(memory), mask, train, rng)
        return self.out_proj(self.dec_final_ln(x))

    def start_decoding(self, memory: Tensor) -> DecoderCache:
        """Cache for `decode_step` over the memories (C, S, d_dec) of C
        clips."""
        with ad.no_grad():
            return DecoderCache([layer.cross_attn.keys_values(memory)
                                 for layer in self.dec_layers], memory.shape[0])

    def decode_step(self, last_ids, cache: DecoderCache) -> Tensor:
        """No-grad inference step: the newest token of each of the cache's R
        live sequences -> logits (R, K_v) for the next position. Each row
        equals, to within float rounding, the last row of `decode` on its
        whole prefix over its clip's memory. Appends the position to
        `cache`."""
        with ad.no_grad():
            x = ad.embedding(self.word_embed, np.asarray(last_ids)[:, None])
            slots = cache.slots(len(last_ids))
            for i, layer in enumerate(self.dec_layers):
                x, cache.self_kv[i] = layer(x, cache.cross_kv[i], None, False, None,
                                            past_kv=cache.self_kv[i], slots=slots)
            return self.out_proj(self.dec_final_ln(x[:, 0]))

    def caption_logits(self, patches: np.ndarray, token_ids: np.ndarray,
                       train: bool = False,
                       rng: np.random.Generator | None = None) -> Tensor:
        encoded = self.encode(self.embed_patches(patches), train, rng)
        return self.decode(token_ids, self.encoder_memory(encoded), train, rng)

    def tagging_logits(self, encoded: Tensor) -> Tensor:
        """Pre-sigmoid tag scores (B, K_tags) from the class-token row. A tag
        head stacked to (B, d, K_tags) and (B, 1, K_tags) gives batch row k
        its own head k."""
        return ad.reshape(self.tag_head(encoded[:, :1, :]), (encoded.shape[0], -1))

    def tagging_probabilities(self, encoded: Tensor) -> Tensor:
        return ad.sigmoid(self.tagging_logits(encoded))
