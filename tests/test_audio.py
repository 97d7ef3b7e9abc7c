import tracemalloc
import wave

import numpy as np
import pytest

from audiocap.audio import (CLIP_SAMPLES, SAMPLE_RATE, FrontendConfig,
                            LogMelSpectrogram, SpecAugmentPolicy, Waveform,
                            compute_log_mel, hz_to_mel, mel_filterbank,
                            mel_to_hz, patchify, pcm16, prepare_waveform,
                            read_wav, spec_augment, write_wav)
from logmel_reference import reference_log_mel


@pytest.fixture
def cfg():
    return FrontendConfig()


def tone(freq, seconds=10.0, rate=SAMPLE_RATE, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return amp * np.sin(2 * np.pi * freq * t)


# ---------------------------------------------------------------------------
# waveform preparation and WAV I/O
# ---------------------------------------------------------------------------

def test_prepare_pads_short_clip():
    w = prepare_waveform(np.ones(1000), SAMPLE_RATE)
    assert len(w.samples) == CLIP_SAMPLES
    assert np.all(w.samples[1000:] == 0)


def test_prepare_truncates_long_clip():
    w = prepare_waveform(np.ones(CLIP_SAMPLES + 5000), SAMPLE_RATE)
    assert len(w.samples) == CLIP_SAMPLES


def test_prepare_resamples_other_rates():
    w = prepare_waveform(tone(100, seconds=1.0, rate=16000), 16000)
    assert w.sample_rate == SAMPLE_RATE
    assert len(w.samples) == CLIP_SAMPLES


def test_prepare_resamples_only_the_kept_samples():
    # at 1 Hz, 20 samples resample to 640,000; the first CLIP_SAMPLES are kept
    samples = np.random.default_rng(4).normal(size=20)
    full = np.interp(np.arange(640_000) / SAMPLE_RATE, np.arange(20) / 1.0, samples)
    w = prepare_waveform(samples, 1)
    np.testing.assert_array_equal(w.samples, full[:CLIP_SAMPLES])


def test_wav_round_trip(tmp_path):
    original = tone(440)
    path = tmp_path / "clip.wav"
    write_wav(path, pcm16(original.copy(), np.empty(CLIP_SAMPLES, dtype="<i2")))
    loaded = read_wav(path)
    assert len(loaded.samples) == CLIP_SAMPLES
    np.testing.assert_allclose(loaded.samples, original, atol=1.0 / 32000)


def write_pcm_wav(path, rate, frames, cut=None):
    """A 16-bit mono WAV of `frames` noise samples at `rate`, written by
    `wave` a second at a time; with `cut`, the file is cut off after `cut`
    bytes, so its data chunk ends early."""
    rng = np.random.default_rng(rate + frames)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        for start in range(0, frames, rate):
            n = min(rate, frames - start)
            wf.writeframes(rng.integers(-20000, 20000, size=n, dtype="<i2").tobytes())
    if cut is not None:
        path.write_bytes(path.read_bytes()[:cut])


def read_whole_wav(path) -> Waveform:
    """Every frame of the file to float64, then prepare_waveform: how
    read_wav read a file before it read only the frames the clip keeps."""
    with wave.open(str(path), "rb") as wf:
        rate = wf.getframerate()
        raw = wf.readframes(wf.getnframes())
    pcm = np.frombuffer(raw[: len(raw) // 2 * 2], dtype="<i2").astype(np.float64) / 32768.0
    return prepare_waveform(pcm, rate)


@pytest.mark.parametrize("rate", [16000, 32000, 44100, 48000])
@pytest.mark.parametrize("seconds, cut_seconds", [
    (3.7, None), (10.0, None), (14.3, None),  # shorter than, exactly, longer than 10 s
    (14.3, 12.3), (14.3, 5.1),                # data chunk cut off mid-sample
])
def test_read_wav_matches_a_whole_file_read(tmp_path, rate, seconds, cut_seconds):
    path = tmp_path / "clip.wav"
    cut = None if cut_seconds is None else 44 + 2 * int(cut_seconds * rate) + 1
    write_pcm_wav(path, rate, int(seconds * rate), cut)
    got = read_wav(path)
    assert got.samples.tobytes() == read_whole_wav(path).samples.tobytes()
    assert got.sample_rate == SAMPLE_RATE


def test_read_wav_memory_does_not_grow_with_file_length(tmp_path):
    peaks = []
    for seconds in (10, 600):
        path = tmp_path / f"{seconds}s.wav"
        write_pcm_wav(path, SAMPLE_RATE, seconds * SAMPLE_RATE)
        tracemalloc.start()
        try:
            read_wav(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 1_000_000, peaks


def test_write_wav_writes_what_wave_writes(tmp_path):
    # the header and samples that `wave` writes for the same rounded PCM
    samples = np.random.default_rng(2).uniform(-1.2, 1.2, size=CLIP_SAMPLES)
    expected = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(tmp_path / "wave.wav"), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(expected.tobytes())
    pcm = pcm16(samples, np.empty(CLIP_SAMPLES, dtype="<i2"))
    write_wav(tmp_path / "ours.wav", pcm)
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "wave.wav").read_bytes()


def test_read_wav_rejects_stereo(tmp_path):
    import wave
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(b"\x00\x00" * 200)
    with pytest.raises(ValueError):
        read_wav(path)


@pytest.mark.parametrize("raw", [b"", b"not a wav file at all", b"RIFF\x10\x00"])
def test_read_wav_names_unreadable_file(tmp_path, raw):
    path = tmp_path / "bad.wav"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="bad.wav"):
        read_wav(path)


# ---------------------------------------------------------------------------
# log-mel extraction
# ---------------------------------------------------------------------------

def test_silence_maps_to_log_floor(cfg):
    spec = compute_log_mel(Waveform(samples=np.zeros(CLIP_SAMPLES)), cfg)
    np.testing.assert_allclose(spec.frames, np.log(cfg.log_floor))


def test_frame_count_for_ten_seconds(cfg):
    # center-padded framing: floor(320000 / 512) + 1
    spec = compute_log_mel(Waveform(samples=tone(440)), cfg)
    assert spec.num_frames == 626
    assert spec.mel_bins == 64


def test_empty_waveform_rejected(cfg):
    with pytest.raises(ValueError):
        compute_log_mel(Waveform(samples=np.zeros(0)), cfg)


def test_pure_tone_hits_nearest_mel_bin(cfg):
    spec = compute_log_mel(Waveform(samples=tone(1000.0)), cfg)
    centers_mel = np.linspace(0.0, hz_to_mel(SAMPLE_RATE / 2), cfg.mel_bins + 2)[1:-1]
    nearest = int(np.argmin(np.abs(mel_to_hz(centers_mel) - 1000.0)))
    hits = (spec.frames.argmax(axis=1) == nearest).mean()
    assert hits >= 0.95


def test_log_mel_finite_for_random_waveforms(cfg):
    for seed in range(3):
        samples = np.random.default_rng(seed).uniform(-1, 1, CLIP_SAMPLES)
        spec = compute_log_mel(Waveform(samples=samples), cfg)
        assert np.all(np.isfinite(spec.frames))


def test_scaling_never_decreases_log_mel(cfg):
    samples = np.random.default_rng(1).uniform(-0.2, 0.2, CLIP_SAMPLES)
    base = compute_log_mel(Waveform(samples=samples), cfg)
    louder = compute_log_mel(Waveform(samples=3.0 * samples), cfg)
    assert np.all(louder.frames >= base.frames - 1e-12)


def test_mel_filterbank_shape_and_support(cfg):
    fb = mel_filterbank(513, 64, SAMPLE_RATE, 1024)
    assert fb.shape == (64, 513)
    assert np.all(fb >= 0)
    assert np.all(fb.sum(axis=1) > 0)  # every filter covers some fft bin


@pytest.mark.parametrize("name,samples", [
    ("tone", tone(1000.0)),
    ("noise", np.random.default_rng(5).uniform(-1, 1, CLIP_SAMPLES)),
    # 1000 frames' worth of hops plus 77 samples: not a multiple of hop
    ("ragged", np.random.default_rng(6).normal(0, 0.3, 512 * 1000 + 77)),
])
def test_strided_framing_is_byte_equal_to_index_gather(cfg, name, samples):
    w = Waveform(samples=samples)
    spec = compute_log_mel(w, cfg)
    expected = reference_log_mel(w, cfg)
    assert spec.frames.shape == expected.shape
    assert spec.frames.tobytes() == expected.tobytes()


def test_mel_filterbank_is_cached_and_read_only():
    fb = mel_filterbank(513, 64, SAMPLE_RATE, 1024)
    assert mel_filterbank(513, 64, SAMPLE_RATE, 1024) is fb
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0
    np.testing.assert_array_equal(
        fb, mel_filterbank.__wrapped__(513, 64, SAMPLE_RATE, 1024))


# ---------------------------------------------------------------------------
# patchify
# ---------------------------------------------------------------------------

def _spec(frames):
    return LogMelSpectrogram(frames=frames, frame_hop=512, mel_bins=frames.shape[1])


def test_patchify_500_frames_gives_125_patches():
    frames = np.random.default_rng(0).normal(size=(500, 64))
    p = patchify(_spec(frames), 4)
    assert p.num_patches == 125
    assert p.patches.shape == (125, 256)


def test_patchify_whole_spectrogram_single_patch():
    frames = np.random.default_rng(1).normal(size=(20, 8))
    p = patchify(_spec(frames), 20)
    assert p.num_patches == 1
    np.testing.assert_array_equal(p.patches[0], frames.reshape(-1))


def test_patchify_round_trip_exact():
    frames = np.random.default_rng(2).normal(size=(27, 8))
    p = patchify(_spec(frames), 4)  # 6 patches, 24 usable frames
    np.testing.assert_array_equal(p.patches.reshape(24, 8), frames[:24])


def test_patchify_time_major_layout():
    frames = np.arange(12.0).reshape(3, 4)
    p = patchify(_spec(frames), 3)
    np.testing.assert_array_equal(p.patches[0], np.arange(12.0))


def test_patchify_rejects_oversized_patch():
    frames = np.zeros((3, 4))
    with pytest.raises(ValueError):
        patchify(_spec(frames), 5)


# ---------------------------------------------------------------------------
# SpecAugment
# ---------------------------------------------------------------------------

def test_spec_augment_identity_policies():
    frames = np.random.default_rng(3).normal(size=(30, 8))
    for policy in (SpecAugmentPolicy(),
                   SpecAugmentPolicy(time_mask_width_max=0, num_time_masks=3),
                   SpecAugmentPolicy(freq_mask_width_max=4, num_freq_masks=0)):
        out = spec_augment(_spec(frames), policy, seed=5)
        np.testing.assert_array_equal(out.frames, frames)


def test_spec_augment_single_time_mask_cell_count():
    frames = np.full((40, 8), 7.0)  # nowhere equals the mask value
    policy = SpecAugmentPolicy(time_mask_width_max=6, num_time_masks=1)
    out = spec_augment(_spec(frames), policy, seed=9)
    changed_rows = np.flatnonzero((out.frames == 0.0).any(axis=1))
    width = len(changed_rows)
    assert (out.frames == 0.0).sum() == width * 8
    assert width <= 6
    if width:
        assert np.array_equal(changed_rows,
                              np.arange(changed_rows[0], changed_rows[0] + width))


def test_spec_augment_deterministic_per_seed():
    frames = np.random.default_rng(4).normal(size=(30, 8))
    policy = SpecAugmentPolicy(time_mask_width_max=5, freq_mask_width_max=3,
                               num_time_masks=2, num_freq_masks=2)
    a = spec_augment(_spec(frames), policy, seed=17).frames
    b = spec_augment(_spec(frames), policy, seed=17).frames
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, frames)


def test_spec_augment_policy_validation():
    with pytest.raises(ValueError):
        SpecAugmentPolicy(time_mask_width_max=-1)
    with pytest.raises(ValueError):
        SpecAugmentPolicy(num_freq_masks=-2)
