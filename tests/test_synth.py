import numpy as np
import pytest

from audiocap.audio import CLIP_SAMPLES, SAMPLE_RATE
from audiocap.synth import (CHIRP_PHRASES, NOISE_PHRASES, TONE_PHRASES, Event,
                            event_phrase, make_corpus, random_events, render_clip,
                            render_scratch, synthesize_event_clip)


def test_single_tone_clip():
    wave, caption, tags = synthesize_event_clip(
        [Event(kind="tone", onset=0.0, duration=2.0, freq=440.0)], seed=0)
    assert len(wave.samples) == CLIP_SAMPLES
    assert caption == "a tone sounds"
    assert tags == {"tone"}
    # signal confined to the first two seconds
    assert np.abs(wave.samples[: 2 * 32000]).max() > 0.1
    assert np.abs(wave.samples[2 * 32000 + 100:]).max() == 0.0


def test_phrases_track_acoustic_attributes():
    assert event_phrase(Event("tone", 0, 1, freq=220.0)) == TONE_PHRASES["low"]
    assert event_phrase(Event("tone", 0, 1, freq=1320.0)) == TONE_PHRASES["high"]
    assert event_phrase(Event("noise", 0, 1, amplitude=0.15)) == NOISE_PHRASES["soft"]
    assert event_phrase(Event("noise", 0, 1, amplitude=0.45)) == NOISE_PHRASES["loud"]
    # rate = (f1 - f0) / duration in Hz/s, threshold 450
    assert event_phrase(Event("chirp", 0, 2, freq=200.0, freq_end=600.0)) == \
        CHIRP_PHRASES["slow"]
    assert event_phrase(Event("chirp", 0, 2, freq=500.0, freq_end=1500.0)) == \
        CHIRP_PHRASES["fast"]


def test_two_events_get_ordering_phrase():
    events = [Event(kind="tone", onset=0.0, duration=2.0, freq=440.0),
              Event(kind="noise", onset=5.0, duration=2.0)]
    _, caption, tags = synthesize_event_clip(events, seed=1)
    assert "followed by" in caption
    assert tags == {"tone", "noise"}


def test_three_events_alternate_connectives():
    events = [Event(kind="tone", onset=0.0, duration=1.0, freq=440.0),
              Event(kind="noise", onset=3.0, duration=1.0),
              Event(kind="chirp", onset=6.0, duration=1.0, freq=300.0)]
    _, caption, _ = synthesize_event_clip(events, seed=2)
    assert "followed by" in caption and "then" in caption


def test_caption_preserves_onset_order():
    # events supplied out of order; phrases must follow onsets
    events = [Event(kind="noise", onset=5.0, duration=2.0, amplitude=0.45),
              Event(kind="tone", onset=0.0, duration=2.0, freq=440.0)]
    _, caption, _ = synthesize_event_clip(events, seed=3)
    assert caption.index("a tone sounds") < caption.index(NOISE_PHRASES["loud"])


def test_same_seed_bit_identical():
    events = [Event(kind="noise", onset=1.0, duration=2.0),
              Event(kind="chirp", onset=4.0, duration=2.0, freq=300.0)]
    a, cap_a, _ = synthesize_event_clip(events, seed=42)
    b, cap_b, _ = synthesize_event_clip(events, seed=42)
    assert a.samples.tobytes() == b.samples.tobytes()
    assert cap_a == cap_b


def reference_clip(events, seed):
    """The clip from each event's formula, in fresh arrays: the reference
    for `render_clip`'s in-place rendering into reused buffers."""
    rng = np.random.default_rng(seed)
    out = np.zeros(CLIP_SAMPLES)
    for e in sorted(events, key=lambda e: e.onset):
        n = int(round(e.duration * SAMPLE_RATE))
        t = np.arange(n, dtype=np.float64) / SAMPLE_RATE
        if e.kind == "noise":
            seg = rng.standard_normal(n) * e.amplitude
        elif e.kind == "tone":
            seg = np.sin(2 * np.pi * e.freq * t) * e.amplitude
        else:
            rate = (e.freq_end - e.freq) / (2 * e.duration)
            seg = np.sin(2 * np.pi * (e.freq * t + rate * t * t)) * e.amplitude
        fade = min(int(0.01 * SAMPLE_RATE), n // 2)
        if fade > 0:
            ramp = np.linspace(0.0, 1.0, fade)
            seg[:fade] *= ramp
            seg[-fade:] *= ramp[::-1]
        start = int(round(e.onset * SAMPLE_RATE))
        out[start:start + n] += seg
    return np.clip(out, -1.0, 1.0)


def test_render_into_reused_buffers_equals_fresh_arrays_bit_for_bit():
    clips = [
        [Event("chirp", 0.0, 3.0, freq=300.0, freq_end=900.0, amplitude=0.5),
         Event("noise", 2.0, 2.5, amplitude=0.45),  # overlaps the chirp
         Event("tone", 9.0, 1.0, freq=660.0, amplitude=0.5)],
        [Event("tone", 0.5, 3 / SAMPLE_RATE, freq=220.0, amplitude=0.5),  # fade of 1
         Event("noise", 1.0, 1.5, amplitude=0.15)],
    ]
    out, scratch = np.empty(CLIP_SAMPLES), render_scratch()
    for seed, events in enumerate(clips * 2):  # the buffers hold the last clip
        render_clip(events, seed, out, scratch)
        assert out.tobytes() == reference_clip(events, seed).tobytes()


def test_event_past_clip_end_rejected():
    with pytest.raises(ValueError):
        synthesize_event_clip(
            [Event(kind="tone", onset=9.0, duration=2.0, freq=440.0)], seed=0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        synthesize_event_clip([Event(kind="drum", onset=0.0, duration=1.0)], seed=0)


def test_make_corpus_deterministic():
    a = make_corpus(6, seed=7)
    b = make_corpus(6, seed=7)
    assert [r.caption for r in a] == [r.caption for r in b]
    assert all(x.waveform.samples.tobytes() == y.waveform.samples.tobytes()
               for x, y in zip(a, b))
    assert len({r.clip_id for r in a}) == 6


def test_make_corpus_records_own_their_waveforms():
    arrays = [r.waveform.samples for r in make_corpus(5, seed=3)]
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_make_corpus_rejects_zero_count():
    with pytest.raises(ValueError):
        make_corpus(0, seed=0)


def test_random_events_fit_the_clip():
    for seed in range(10):
        events = random_events(np.random.default_rng(seed), max_events=3)
        for e in events:
            assert e.onset + e.duration <= 10.0


def test_random_events_at_most_five():
    # 5 events of 1.5 s with 0.5 s gaps fill 9.5 s, so a sixth never fits
    counts = {len(random_events(np.random.default_rng(seed), max_events=5))
              for seed in range(300)}
    assert counts <= {1, 2, 3, 4, 5} and 4 in counts
    with pytest.raises(ValueError, match="at most 5 events"):
        random_events(np.random.default_rng(0), max_events=6)


def test_event_json_round_trip():
    e = Event(kind="chirp", onset=1.5, duration=2.0, freq=300.0, freq_end=900.0)
    assert Event.from_json(e.to_json()) == e
    n = Event(kind="noise", onset=0.0, duration=1.0, amplitude=0.15)
    assert Event.from_json(n.to_json()) == n
