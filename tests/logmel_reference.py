"""Index-gather log-mel for the tests.

Builds the (T, window) matrix of frame sample indices and gathers the
padded waveform with it, then applies the window, FFT, a freshly computed
filterbank and the log floor. This is the plain framing that the strided
framing of `audiocap.audio.compute_log_mel` is checked against, byte for
byte.
"""

from __future__ import annotations

import numpy as np

from audiocap.audio import FrontendConfig, Waveform, mel_filterbank


def reference_log_mel(w: Waveform, cfg: FrontendConfig) -> np.ndarray:
    window, hop = cfg.window, cfg.hop
    half = window // 2
    padded = np.concatenate([np.zeros(half), w.samples, np.zeros(half)])
    n_frames = 1 + (len(padded) - window) // hop
    starts = np.arange(n_frames) * hop
    idx = starts[:, None] + np.arange(window)[None, :]
    frames = padded[idx] * np.hanning(window)
    magnitude = np.abs(np.fft.rfft(frames, axis=1))
    # __wrapped__ bypasses the cache, so the filterbank is built afresh
    fb = mel_filterbank.__wrapped__(magnitude.shape[1], cfg.mel_bins,
                                    w.sample_rate, window)
    return np.log(np.maximum(cfg.log_floor, magnitude @ fb.T))
