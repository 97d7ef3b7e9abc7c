"""Procedurally generated audio events with attribute-driven captions.

Desk-scale stand-in for large captioning corpora: each clip is a handful of
tone / noise-burst / chirp events. The caption phrase for an event is a
deterministic function of its acoustic attributes (frequency band, loudness,
sweep rate), so captions genuinely describe the audio; phrases are joined by
temporal-order connectives. Tags are the event kinds present.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .audio import CLIP_SECONDS, CLIP_SAMPLES, SAMPLE_RATE, Waveform

FADE_SECONDS = 0.01

ORDER_CONNECTIVES = ("followed by", "then")

TONE_PHRASES = {
    "low": "a deep tone hums",
    "mid": "a tone sounds",
    "high": "a high tone rings",
}
NOISE_PHRASES = {
    "soft": "soft static noise hisses",
    "loud": "a harsh burst of noise crackles",
}
CHIRP_PHRASES = {
    "slow": "a slow chirp sweeps upward",
    "fast": "a quick chirp whistles higher",
}

KIND_TAGS = ("chirp", "noise", "tone")

TONE_FREQS = (220.0, 330.0, 440.0, 660.0, 880.0, 1320.0)
CHIRP_START_FREQS = (200.0, 300.0, 400.0, 500.0)
NOISE_AMPLITUDES = (0.15, 0.45)

# events last at least 1.5 s with gaps of at least 0.5 s, so a 10 s clip
# holds at most 5 (9.5 s); a sixth never fits
MAX_EVENTS = 5


@dataclass
class Event:
    kind: str
    onset: float
    duration: float
    freq: float | None = None      # tone frequency / chirp start frequency
    freq_end: float | None = None  # chirp end frequency
    amplitude: float | None = None

    def to_json(self) -> dict:
        out = {"kind": self.kind, "onset": self.onset, "duration": self.duration}
        for key in ("freq", "freq_end", "amplitude"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out

    @classmethod
    def from_json(cls, d: dict) -> "Event":
        return cls(kind=d["kind"], onset=float(d["onset"]),
                   duration=float(d["duration"]), freq=d.get("freq"),
                   freq_end=d.get("freq_end"), amplitude=d.get("amplitude"))


def event_phrase(e: Event) -> str:
    """Caption phrase determined by the event's acoustic attributes."""
    if e.kind == "tone":
        freq = e.freq or 440.0
        band = "low" if freq < 400 else ("mid" if freq < 800 else "high")
        return TONE_PHRASES[band]
    if e.kind == "noise":
        amp = e.amplitude if e.amplitude is not None else 0.3
        return NOISE_PHRASES["soft" if amp < 0.3 else "loud"]
    if e.kind == "chirp":
        f0 = e.freq or 300.0
        f1 = e.freq_end or 3.0 * f0
        rate = (f1 - f0) / e.duration  # Hz per second
        return CHIRP_PHRASES["slow" if rate < 450 else "fast"]
    raise ValueError(f"unknown event kind {e.kind!r}")


def _event_samples(e: Event, rng: np.random.Generator, scratch) -> np.ndarray:
    """The event's samples, computed in place in `scratch[0]` (a tone or a
    chirp uses `scratch[1]` too; see `render_scratch`), a view of which is
    returned. The ufuncs run in the order that the formula in each comment
    evaluates them, so the bytes equal the formula's."""
    n = int(round(e.duration * SAMPLE_RATE))
    seg = scratch[0][:n]
    if e.kind == "noise":
        rng.standard_normal(out=seg)  # amplitude * N(0, 1) draws
        seg *= e.amplitude if e.amplitude is not None else 0.3
    elif e.kind in ("tone", "chirp"):
        # t = arange(n) / SAMPLE_RATE, exactly: a running sum of ones counts
        ones = scratch[1][:n]
        ones.fill(1.0)
        np.cumsum(ones, out=seg)
        seg -= 1.0
        seg /= SAMPLE_RATE
        if e.kind == "tone":
            # amplitude * sin(2*pi*freq * t)
            seg *= 2 * np.pi * (e.freq or 440.0)
        else:
            f0 = e.freq or 300.0
            f1 = e.freq_end or 3.0 * f0
            # linear sweep: amplitude * sin(2*pi*(f0*t + (f1-f0)/(2*dur) * t*t))
            sweep = np.multiply((f1 - f0) / (2 * e.duration), seg, out=ones)
            sweep *= seg
            seg *= f0
            seg += sweep
            seg *= 2 * np.pi
        np.sin(seg, out=seg)
        seg *= e.amplitude or 0.5
    else:
        raise ValueError(f"unknown event kind {e.kind!r}")
    fade = min(int(FADE_SECONDS * SAMPLE_RATE), n // 2)
    if fade > 0:
        ramp = np.linspace(0.0, 1.0, fade)
        seg[:fade] *= ramp
        seg[-fade:] *= ramp[::-1]
    return seg


def render_scratch(n: int = CLIP_SAMPLES) -> tuple[np.ndarray, np.ndarray]:
    """Two buffers of n samples, n >= the longest event's, for `render_clip`
    to reuse across clips; two, as numpy gives one of 4 MiB or more huge pages."""
    return np.empty(n), np.empty(n)


def render_clip(events: Sequence[Event], seed, out: np.ndarray,
                scratch) -> tuple[str, set[str]]:
    """Render events into `out`, a float64 buffer of CLIP_SAMPLES that is
    overwritten, through `render_scratch`'s buffers; returns (caption, tags).

    Caption phrases follow event onset order, joined with alternating
    "followed by" / "then". Deterministic for a given seed.
    """
    if not events:
        raise ValueError("need at least one event")
    for e in events:
        if e.kind not in KIND_TAGS:
            raise ValueError(f"unknown event kind {e.kind!r}")
        if e.duration <= 0:
            raise ValueError("event duration must be positive")
        if e.onset < 0 or e.onset + e.duration > CLIP_SECONDS:
            raise ValueError(
                f"event at {e.onset}s for {e.duration}s exceeds the {CLIP_SECONDS}s clip")

    rng = np.random.default_rng(seed)
    ordered = sorted(events, key=lambda e: e.onset)

    parts = [event_phrase(ordered[0])]
    for i, e in enumerate(ordered[1:]):
        parts.append(ORDER_CONNECTIVES[i % len(ORDER_CONNECTIVES)])
        parts.append(event_phrase(e))
    caption = " ".join(parts)

    out.fill(0.0)
    for e in ordered:
        seg = _event_samples(e, rng, scratch)
        start = int(round(e.onset * SAMPLE_RATE))
        out[start:start + len(seg)] += seg
    np.clip(out, -1.0, 1.0, out=out)

    tags = {e.kind for e in ordered}
    return caption, tags


def synthesize_event_clip(events: Sequence[Event], seed) -> tuple[Waveform, str, set[str]]:
    """Render events into a fresh 10 s clip; returns (waveform, caption, tags)."""
    samples = np.empty(CLIP_SAMPLES)
    longest = max([int(round(e.duration * SAMPLE_RATE)) for e in events] + [0])
    caption, tags = render_clip(events, seed, samples, render_scratch(longest))
    return Waveform(samples=samples), caption, tags


@dataclass
class ClipRecord:
    clip_id: str
    events: list[Event]
    caption: str
    tags: list[str]
    waveform: Waveform = field(repr=False, default=None)


def random_events(rng: np.random.Generator, max_events: int = 2) -> list[Event]:
    """Draw 1..max_events non-overlapping events on a coarse time grid."""
    if max_events > MAX_EVENTS:
        raise ValueError(f"max_events must be <= {MAX_EVENTS}, got {max_events}: "
                         f"a {CLIP_SECONDS:g} s clip holds at most {MAX_EVENTS} events")
    n_events = int(rng.integers(1, max_events + 1))
    kinds = [KIND_TAGS[int(rng.integers(len(KIND_TAGS)))] for _ in range(n_events)]
    events = []
    cursor = float(rng.choice([0.0, 0.5, 1.0]))
    for kind in kinds:
        duration = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        if cursor + duration > CLIP_SECONDS:
            break
        e = Event(kind=kind, onset=cursor, duration=duration)
        if kind == "tone":
            e.freq = float(rng.choice(TONE_FREQS))
        elif kind == "chirp":
            e.freq = float(rng.choice(CHIRP_START_FREQS))
            e.freq_end = 3.0 * e.freq
        else:
            e.amplitude = float(rng.choice(NOISE_AMPLITUDES))
        events.append(e)
        cursor += duration + float(rng.choice([0.5, 1.0, 1.5]))
    return events


def corpus_clip(i: int, seed, max_events: int, out: np.ndarray, scratch) -> ClipRecord:
    """Clip `i` of the corpus for `seed`, rendered into `out` through
    `scratch` (see `render_clip`); the record's waveform is `out` itself."""
    clip_seed = [seed, i] if np.isscalar(seed) else list(seed) + [i]
    rng = np.random.default_rng(clip_seed)
    events = random_events(rng, max_events=max_events)
    caption, tags = render_clip(events, clip_seed, out, scratch)
    return ClipRecord(clip_id=f"clip{i:04d}", events=events, caption=caption,
                      tags=sorted(tags), waveform=Waveform(samples=out))


def make_corpus(count: int, seed, max_events: int = 2) -> list[ClipRecord]:
    """Deterministic corpus of `count` synthesized clips, each with its own
    waveform array. `audiocap synth-data` renders the same clips one at a
    time into one reused buffer instead."""
    if count < 1:
        raise ValueError("count must be >= 1")
    scratch = render_scratch()
    return [corpus_clip(i, seed, max_events, np.empty(CLIP_SAMPLES), scratch)
            for i in range(count)]
