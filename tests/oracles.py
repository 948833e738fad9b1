"""Independent brute-force oracles for the EQ and feature pipeline.

Everything here deliberately avoids the fast paths under test: the EQ is a
sample-by-sample difference-equation loop, the DFT is the O(n^2) definition,
the DCT is the direct cosine sum, and the per-frame stats are plain Python
loops over the definitions.
"""

import math

import numpy as np


def biquad_cascade(samples, sections):
    """Serial direct-form I biquads, zero initial state. Each section is
    (b0, b1, b2, a1, a2) with a0 = 1."""
    out = [float(v) for v in samples]
    for b0, b1, b2, a1, a2 in sections:
        x1 = x2 = y1 = y2 = 0.0
        for i, x in enumerate(out):
            y = b0 * x + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
            x2, x1, y2, y1 = x1, x, y1, y
            out[i] = y
    return np.array(out)


def hann(n):
    return np.array([0.5 - 0.5 * math.cos(2 * math.pi * k / n) for k in range(n)])


def frames_of(samples, frame_size, hop_size):
    count = 1 + (len(samples) - frame_size) // hop_size
    return [samples[i * hop_size:i * hop_size + frame_size] for i in range(count)]


_dft_basis_cache = {}


def dft_magnitudes(frame):
    """O(n^2) DFT, first n/2 + 1 bins."""
    n = len(frame)
    if n not in _dft_basis_cache:
        k = np.arange(n // 2 + 1)
        _dft_basis_cache[n] = np.exp(-2j * math.pi * np.outer(k, np.arange(n)) / n)
    return np.abs(_dft_basis_cache[n] @ frame)


def stft_magnitudes(samples, frame_size, hop_size):
    window = hann(frame_size)
    return np.array([dft_magnitudes(f * window) for f in frames_of(samples, frame_size, hop_size)])


def centroid(mags, freqs):
    total = sum(mags)
    if total == 0:
        return 0.0
    return sum(m * f for m, f in zip(mags, freqs)) / total


def bandwidth(mags, freqs, cent):
    total = sum(mags)
    if total == 0:
        return 0.0
    return math.sqrt(sum(m * (f - cent) ** 2 for m, f in zip(mags, freqs)) / total)


def rolloff(mags, freqs, fraction):
    energies = [m ** 2 for m in mags]
    total = sum(energies)
    if total == 0:
        return 0.0
    running = 0.0
    for e, f in zip(energies, freqs):
        running += e
        if running >= fraction * total:
            return f
    return freqs[-1]


def dct2_ortho(values):
    """Direct DCT-II with orthonormal scaling."""
    n = len(values)
    out = np.empty(n)
    for k in range(n):
        s = sum(values[j] * math.cos(math.pi * k * (2 * j + 1) / (2 * n)) for j in range(n))
        scale = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out[k] = scale * s
    return out


def mel_filterbank(n_mels, frame_size, sample_rate):
    def to_mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def to_hz(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    bin_freqs = [k * sample_rate / frame_size for k in range(frame_size // 2 + 1)]
    points = [to_hz(to_mel(sample_rate / 2) * i / (n_mels + 1)) for i in range(n_mels + 2)]
    bank = np.zeros((n_mels, len(bin_freqs)))
    for m in range(n_mels):
        lo, center, hi = points[m], points[m + 1], points[m + 2]
        for k, f in enumerate(bin_freqs):
            if lo < f < hi:
                bank[m, k] = min((f - lo) / (center - lo), (hi - f) / (hi - center))
    return bank


def feature_vector(samples, sample_rate, frame_size, hop_size,
                   n_mels=40, rolloff_fraction=0.85, log_floor=1e-10):
    """Full 17-dim feature vector computed the slow way."""
    mags = stft_magnitudes(samples, frame_size, hop_size)
    freqs = [k * sample_rate / frame_size for k in range(frame_size // 2 + 1)]
    cents, bands, rolls, mfccs, rmss = [], [], [], [], []
    bank = mel_filterbank(n_mels, frame_size, sample_rate)
    for frame_mags, frame in zip(mags, frames_of(samples, frame_size, hop_size)):
        c = centroid(frame_mags, freqs)
        cents.append(c)
        bands.append(bandwidth(frame_mags, freqs, c))
        rolls.append(rolloff(frame_mags, freqs, rolloff_fraction))
        logmel = np.log(bank @ (frame_mags ** 2) + log_floor)
        mfccs.append(dct2_ortho(logmel)[:13])
        rmss.append(math.sqrt(sum(s * s for s in frame) / frame_size))
    return np.concatenate([
        [np.mean(cents), np.mean(bands), np.mean(rolls)],
        np.mean(mfccs, axis=0),
        [np.mean(rmss)],
    ])
