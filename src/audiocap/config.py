"""Run configuration: one JSON file covering every knob, strictly parsed."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .audio import FrontendConfig, SpecAugmentPolicy
from .decoding import DEFAULT_MAX_LEN
from .model import DecoderConfig, EncoderConfig
from .training import TrainConfig, pretrain_defaults


class ValidationError(ValueError):
    """Bad configuration, manifest, or checkpoint contents."""


@dataclass
class Word2VecConfig:
    enabled: bool = True
    dim: int = 0  # 0 = use the decoder embedding dim
    window: int = 2
    negatives: int = 5
    epochs: int = 15
    lr: float = 0.05

    def __post_init__(self):
        for key in ("window", "negatives", "epochs"):
            if getattr(self, key) < 1:
                raise ValidationError(f"word2vec.{key} must be >= 1")
        if not 0.0 < self.lr < math.inf:  # NaN fails both comparisons
            raise ValidationError("word2vec.lr must be positive and finite")


@dataclass
class DecodeConfig:
    beam_size: int = 5
    max_len: int = DEFAULT_MAX_LEN
    length_norm: bool = False

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValidationError("decode.beam_size must be >= 1")
        if self.max_len < 1:
            raise ValidationError("decode.max_len must be >= 1")


def _desk_decoder() -> DecoderConfig:
    return DecoderConfig(vocab_size=0)  # vocab size is derived from the corpus


@dataclass
class RunConfig:
    seed: int = 0
    min_count: int = 1
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    decoder: DecoderConfig = field(default_factory=_desk_decoder)
    # a section seed left unset (None) means the run's `seed`
    train: TrainConfig = field(default_factory=lambda: TrainConfig(seed=None))
    pretrain: TrainConfig = field(default_factory=lambda: pretrain_defaults(seed=None))
    augment: SpecAugmentPolicy = field(default_factory=SpecAugmentPolicy)
    word2vec: Word2VecConfig = field(default_factory=Word2VecConfig)
    decode: DecodeConfig = field(default_factory=DecodeConfig)

    def __post_init__(self):
        if self.min_count < 1:
            raise ValidationError("min_count must be >= 1")
        expected = self.frontend.frames_per_patch * self.frontend.mel_bins
        if self.encoder.patch_dim != expected:
            raise ValidationError(
                f"encoder.patch_dim {self.encoder.patch_dim} must equal "
                f"frames_per_patch * mel_bins = {expected}")
        if self.word2vec.enabled and self.word2vec.dim not in (0, self.decoder.d):
            raise ValidationError(
                f"word2vec.dim {self.word2vec.dim} must be 0 or the decoder dim "
                f"{self.decoder.d}")


def _fits(default, value) -> bool:
    """Whether `value` has the type of a key whose default is `default`: a
    bool for a bool, a number for a float, an integer for an int, and an
    integer or null for an unset section seed."""
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, int) or (default is None and value is None)


def _build(base, data: dict, path: str):
    """A copy of the dataclass `base` with the keys of `data` replaced. A
    section (a nested dataclass) is built the same way on the value `base`
    holds for it, so keys a section omits keep that section's own default
    (the pretraining recipe for `pretrain`, vocab_size 0 for `decoder`)."""
    if not isinstance(data, dict):
        raise ValidationError(f"config section {path or 'root'} must be an object")
    names = {f.name for f in dataclasses.fields(base)}
    unknown = sorted(set(data) - names)
    if unknown:
        where = f"{path}." if path else ""
        raise ValidationError(f"unknown config key(s): {', '.join(where + u for u in unknown)}")
    kwargs = {}
    for key, value in data.items():
        current = getattr(base, key)
        key_path = f"{path}.{key}" if path else key
        if dataclasses.is_dataclass(current):
            kwargs[key] = _build(current, value, key_path)
        elif not _fits(current, value):
            raise ValidationError(f"config key {key_path} has the wrong type: {value!r}")
        else:
            kwargs[key] = value
    try:
        return dataclasses.replace(base, **kwargs)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"invalid config section {path or 'root'}: {exc}") from exc


def run_config_from_dict(data: dict) -> RunConfig:
    return _build(RunConfig(), data, "")


def load_run_config(path: str | Path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return run_config_from_dict(data)


def run_config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)
