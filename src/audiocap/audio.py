"""Waveform preparation, log-mel extraction, patching and SpecAugment."""

from __future__ import annotations

import functools
import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_atomic

SAMPLE_RATE = 32000
CLIP_SECONDS = 10.0
CLIP_SAMPLES = int(SAMPLE_RATE * CLIP_SECONDS)
FFT_BLOCK = 64  # frames per rfft call in compute_log_mel


@dataclass
class Waveform:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate: int = SAMPLE_RATE


@dataclass
class FrontendConfig:
    window: int = 1024
    hop: int = 512
    mel_bins: int = 64
    log_floor: float = 1e-10
    frames_per_patch: int = 4

    def __post_init__(self):
        for name in ("window", "hop", "mel_bins", "frames_per_patch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.log_floor > 0:
            raise ValueError(f"log_floor must be > 0, got {self.log_floor}")

    def check_clip_patches(self, max_patches: int) -> None:
        """Reject a front end that makes more than `max_patches` patches of a
        10 s clip (one frame per hop over the centered windows), counted
        without computing a log-mel, whose size grows as 1/hop."""
        starts = CLIP_SAMPLES + 2 * (self.window // 2) - self.window + 1
        patches = -(-starts // self.hop) // self.frames_per_patch
        if patches > max_patches:
            raise ValueError(f"the frontend makes {patches} patches of a 10 s clip, "
                             f"more than encoder.max_patches {max_patches}")


@dataclass
class LogMelSpectrogram:
    frames: np.ndarray  # (T, F)
    frame_hop: int
    mel_bins: int

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


@dataclass
class PatchSequence:
    """Non-overlapping time-ordered patches, each flattened time-major."""

    patches: np.ndarray  # (N, t * F)
    frames_per_patch: int

    @property
    def num_patches(self) -> int:
        return self.patches.shape[0]


@dataclass
class SpecAugmentPolicy:
    time_mask_width_max: int = 0
    freq_mask_width_max: int = 0
    num_time_masks: int = 0
    num_freq_masks: int = 0
    mask_value: float = 0.0

    def __post_init__(self):
        if self.time_mask_width_max < 0 or self.freq_mask_width_max < 0:
            raise ValueError("mask widths must be non-negative")
        if self.num_time_masks < 0 or self.num_freq_masks < 0:
            raise ValueError("mask counts must be non-negative")


def prepare_waveform(samples: np.ndarray, sample_rate: int) -> Waveform:
    """Resample to 32 kHz (linear interpolation) and fix length to 10 s."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise ValueError("expected a mono waveform")
    if sample_rate != SAMPLE_RATE:
        if sample_rate <= 0:
            raise ValueError(f"bad sample rate {sample_rate}")
        # only the first CLIP_SAMPLES output samples are kept
        n_out = min(CLIP_SAMPLES, int(round(len(samples) * SAMPLE_RATE / sample_rate)))
        if n_out > 0:
            src_t = np.arange(len(samples)) / sample_rate
            dst_t = np.arange(n_out) / SAMPLE_RATE
            samples = np.interp(dst_t, src_t, samples)
        else:
            samples = np.zeros(0)
    if len(samples) >= CLIP_SAMPLES:
        samples = samples[:CLIP_SAMPLES]
    else:
        samples = np.concatenate([samples, np.zeros(CLIP_SAMPLES - len(samples))])
    return Waveform(samples=samples, sample_rate=SAMPLE_RATE)


def read_wav(path: str | Path) -> Waveform:
    """Read 16-bit PCM mono RIFF, resampled/padded to the canonical clip.

    Only the frames the clip needs are read. Its CLIP_SAMPLES outputs
    interpolate between source frames below CLIP_SAMPLES * rate / SAMPLE_RATE,
    and a file longer than that resamples to a whole clip, so reading one
    frame past it gives the samples a whole-file read gives.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getnchannels() != 1:
                raise ValueError(f"{path}: only mono WAV is supported")
            if wf.getsampwidth() != 2:
                raise ValueError(f"{path}: only 16-bit PCM WAV is supported")
            rate = wf.getframerate()
            kept = -(-CLIP_SAMPLES * rate // SAMPLE_RATE) + 1
            raw = wf.readframes(min(wf.getnframes(), kept))
    except (EOFError, RuntimeError, wave.Error) as exc:  # RuntimeError: a chunk overruns
        raise ValueError(f"{path}: not a readable WAV file "
                         f"({str(exc) or 'truncated or inconsistent chunks'})") from None
    # a data chunk cut off mid-sample keeps its whole samples
    pcm = np.frombuffer(raw[: len(raw) // 2 * 2], dtype="<i2").astype(np.float64)
    pcm /= 32768.0
    return prepare_waveform(pcm, rate)


def pcm16(samples: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Round samples in [-1, 1] to 16-bit PCM in `out` (int16, one per
    sample) and return it. `samples` is the scratch: it is left scaled by
    32767, rounded and clipped."""
    np.multiply(samples, 32767.0, out=samples)
    np.round(samples, out=samples)
    np.clip(samples, -32768, 32767, out=samples)
    np.copyto(out, samples, casting="unsafe")
    return out


def write_wav(path: str | Path, pcm: np.ndarray) -> None:
    """Mono WAV at SAMPLE_RATE of `pcm`, a contiguous little-endian int16
    array (see `pcm16`), written atomically (see `write_atomic`) from the
    array's own bytes."""
    # the 44-byte canonical header that `wave` writes for PCM
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + pcm.nbytes, b"WAVE",
                         b"fmt ", 16, 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16,
                         b"data", pcm.nbytes)
    write_atomic(path, header, pcm)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(num_fft_bins: int, mel_bins: int, sample_rate: int,
                   window: int) -> np.ndarray:
    """Triangular, area-normalized filters spanning 0 Hz to Nyquist.

    Returns (mel_bins, num_fft_bins); centers linear on the mel scale.
    Computed once per argument tuple; the shared array is read-only.
    """
    fft_freqs = np.arange(num_fft_bins) * sample_rate / window
    mel_points = np.linspace(0.0, hz_to_mel(sample_rate / 2.0), mel_bins + 2)
    hz_points = mel_to_hz(mel_points)
    fb = np.zeros((mel_bins, num_fft_bins))
    for m in range(mel_bins):
        lo, center, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (fft_freqs - lo) / (center - lo)
        down = (hi - fft_freqs) / (hi - center)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
        fb[m] *= 2.0 / (hi - lo)  # constant filter area
    fb.flags.writeable = False
    return fb


def compute_log_mel(w: Waveform, cfg: FrontendConfig) -> LogMelSpectrogram:
    """Hann-window magnitude STFT -> mel filterbank -> log with floor.

    Frames are centered (waveform zero-padded by window/2 on both sides),
    so a 10 s clip at hop 512 yields floor(320000/512) + 1 = 626 frames.
    """
    if w.samples.size == 0:
        raise ValueError("empty waveform")
    if w.sample_rate != SAMPLE_RATE:
        raise ValueError(f"expected {SAMPLE_RATE} Hz waveform")
    window, hop = cfg.window, cfg.hop
    half = window // 2
    padded = np.concatenate([np.zeros(half), w.samples, np.zeros(half)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, window)[::hop]
    hann = np.hanning(window)
    # FFT_BLOCK frames at a time keeps temporaries near 1 MB; whole-clip
    # ones (13 MB for 10 s) can be returned to the OS after each clip and
    # page-faulted in again for the next
    magnitude = np.empty((windows.shape[0], window // 2 + 1))
    for start in range(0, windows.shape[0], FFT_BLOCK):
        block = slice(start, start + FFT_BLOCK)
        np.abs(np.fft.rfft(windows[block] * hann, axis=1), out=magnitude[block])
    fb = mel_filterbank(magnitude.shape[1], cfg.mel_bins, w.sample_rate, window)
    mel_energy = magnitude @ fb.T
    logmel = np.log(np.maximum(cfg.log_floor, mel_energy))
    return LogMelSpectrogram(frames=logmel, frame_hop=hop, mel_bins=cfg.mel_bins)


def patchify(spec: LogMelSpectrogram, frames_per_patch: int) -> PatchSequence:
    """Split into N = floor(T/t) patches of t frames, flattened row-major
    (time-major, then mel); trailing frames beyond N*t are dropped."""
    t = frames_per_patch
    total = spec.num_frames
    if t > total:
        raise ValueError(f"frames_per_patch {t} exceeds frame count {total}")
    n = total // t
    usable = spec.frames[: n * t]
    patches = usable.reshape(n, t * spec.mel_bins)
    return PatchSequence(patches=patches, frames_per_patch=t)


def spec_augment(spec: LogMelSpectrogram, policy: SpecAugmentPolicy,
                 seed) -> LogMelSpectrogram:
    """Mask random contiguous time/frequency bands with policy.mask_value.

    Each mask width is drawn uniformly from {0, ..., width_max} and placed
    entirely inside the spectrogram, so a width-w time mask changes exactly
    w * F cells. Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    out = spec.frames.copy()
    t_total, f_total = out.shape
    for _ in range(policy.num_time_masks):
        wmax = min(policy.time_mask_width_max, t_total)
        width = int(rng.integers(0, wmax + 1))
        start = int(rng.integers(0, t_total - width + 1))
        out[start:start + width, :] = policy.mask_value
    for _ in range(policy.num_freq_masks):
        wmax = min(policy.freq_mask_width_max, f_total)
        width = int(rng.integers(0, wmax + 1))
        start = int(rng.integers(0, f_total - width + 1))
        out[:, start:start + width] = policy.mask_value
    return LogMelSpectrogram(frames=out, frame_hop=spec.frame_hop,
                             mel_bins=spec.mel_bins)
