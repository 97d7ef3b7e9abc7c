"""Dataset manifests (line-delimited JSON) and feature assembly."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import write_atomic
from .audio import (FrontendConfig, LogMelSpectrogram, SpecAugmentPolicy,
                    compute_log_mel, patchify, read_wav, spec_augment)
from .config import ValidationError
from .synth import Event, synthesize_event_clip
from .training import CaptionExample, TaggingExample

MANIFEST_KEYS = {"id", "wav", "events", "synth_seed", "captions", "tags"}
EVENT_KEYS = ("kind", "onset", "duration")


@dataclass
class ManifestRecord:
    clip_id: str
    wav: str | None = None
    events: list[Event] | None = None
    synth_seed: object = None
    captions: list[str] = field(default_factory=list)
    tags: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        out: dict = {"id": self.clip_id}
        if self.wav is not None:
            out["wav"] = self.wav
        if self.events is not None:
            out["events"] = [e.to_json() for e in self.events]
            out["synth_seed"] = self.synth_seed
        if self.captions:
            out["captions"] = self.captions
        if self.tags:
            out["tags"] = self.tags
        return out


def write_manifest(path: str | Path, records: list[ManifestRecord]) -> None:
    lines = [json.dumps(r.to_json(), sort_keys=True) for r in records]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _event(where: str, e) -> Event:
    if not isinstance(e, dict) or any(k not in e for k in EVENT_KEYS):
        raise ValidationError(f"{where}: an event must be an object with {list(EVENT_KEYS)}")
    if not (isinstance(e["kind"], str) and _number(e["onset"]) and _number(e["duration"])
            and all(e.get(k) is None or _number(e[k])
                    for k in ("freq", "freq_end", "amplitude"))):
        raise ValidationError(f"{where}: an event needs a string kind and finite numbers")
    return Event.from_json(e)


def _record(where: str, d) -> ManifestRecord:
    if not isinstance(d, dict):
        raise ValidationError(f"{where}: a record must be a JSON object")
    unknown = sorted(set(d) - MANIFEST_KEYS)
    if unknown:
        raise ValidationError(f"{where}: unknown manifest key(s): {unknown}")
    if not isinstance(d.get("id"), str):
        raise ValidationError(f"{where}: record needs a string id")
    if "wav" not in d and "events" not in d:
        raise ValidationError(f"{where}: record needs a wav path or events")
    if not isinstance(d.get("wav", ""), str) or not isinstance(d.get("events", []), list):
        raise ValidationError(f"{where}: wav must be a path string and events a list")
    seed = d.get("synth_seed")
    if seed is not None and not (isinstance(seed, int) and not isinstance(seed, bool)):
        raise ValidationError(f"{where}: synth_seed must be an integer")
    for key in ("captions", "tags"):
        if not _strings(d.get(key, [])):
            raise ValidationError(f"{where}: {key} must be a list of strings")
    events = d.get("events")
    return ManifestRecord(
        clip_id=d["id"], wav=d.get("wav"), synth_seed=seed,
        events=None if events is None else [_event(where, e) for e in events],
        captions=list(d.get("captions", [])), tags=list(d.get("tags", [])))


def load_manifest(path: str | Path) -> list[ManifestRecord]:
    records = []
    seen = set()
    for ln, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = _record(f"{path}:{ln}", json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{ln}: not valid JSON ({exc})") from exc
        if rec.clip_id in seen:
            raise ValidationError(f"{path}:{ln}: duplicate clip id {rec.clip_id!r}")
        seen.add(rec.clip_id)
        records.append(rec)
    if not records:
        raise ValidationError(f"{path}: empty manifest")
    return records


def record_logmel(rec: ManifestRecord, cfg: FrontendConfig,
                  base_dir: str | Path) -> LogMelSpectrogram:
    """Features for one record: from its wav file when present, otherwise
    re-synthesized from its event spec (deterministic via synth_seed)."""
    if rec.wav is not None:
        wav_path = Path(base_dir) / rec.wav
        waveform = read_wav(wav_path)
    else:
        waveform, _, _ = synthesize_event_clip(rec.events, rec.synth_seed)
    return compute_log_mel(waveform, cfg)


@dataclass
class CaptionClip:
    clip_id: str
    logmel: LogMelSpectrogram
    tokens: list[int]

    def example(self, patches: np.ndarray) -> CaptionExample:
        return CaptionExample(patches=patches, tokens=self.tokens)


@dataclass
class TaggingClip:
    clip_id: str
    logmel: LogMelSpectrogram
    labels: np.ndarray

    def example(self, patches: np.ndarray) -> TaggingExample:
        return TaggingExample(patches=patches, labels=self.labels)


def tag_name_list(records: list[ManifestRecord]) -> list[str]:
    names = sorted({t for rec in records for t in rec.tags})
    if not names:
        raise ValidationError("manifest has no tags")
    return names


def load_tagging_clips(records: list[ManifestRecord], cfg: FrontendConfig,
                       tag_names: list[str], base_dir: str | Path) -> list[TaggingClip]:
    index = {t: i for i, t in enumerate(tag_names)}
    clips = []
    for rec in records:
        if not rec.tags:
            raise ValidationError(f"clip {rec.clip_id!r} has no tags")
        labels = np.zeros(len(tag_names))
        for t in rec.tags:
            if t not in index:
                raise ValidationError(f"clip {rec.clip_id!r} has unknown tag {t!r}")
            labels[index[t]] = 1.0
        clips.append(TaggingClip(clip_id=rec.clip_id,
                                 logmel=record_logmel(rec, cfg, base_dir),
                                 labels=labels))
    return clips


def _identity_policy(policy: SpecAugmentPolicy) -> bool:
    return (policy.num_time_masks == 0 and policy.num_freq_masks == 0) or (
        policy.time_mask_width_max == 0 and policy.freq_mask_width_max == 0)


def training_examples(clips: list[CaptionClip] | list[TaggingClip], cfg: FrontendConfig,
                      policy: SpecAugmentPolicy, seed, epoch: int
                      ) -> list[CaptionExample] | list[TaggingExample]:
    """Patchify each clip, applying fresh SpecAugment masks per epoch."""
    examples = []
    for i, clip in enumerate(clips):
        spec = clip.logmel
        if not _identity_policy(policy):  # the identity would copy each log-mel
            spec = spec_augment(spec, policy, [seed, epoch, i])
        examples.append(clip.example(patchify(spec, cfg.frames_per_patch).patches))
    return examples
