"""Parametric EQ: biquad design (low-shelf, bell, high-shelf) as
second-order-sections (SOS) rows, the cascade as one SOS matrix, its
application with `sosfilt` and its magnitude response with `sosfreqz`.

Coefficients follow the standard audio-EQ cookbook parameterization with
A = 10^(gain_db/40), w0 = 2*pi*f0/fs, alpha = sin(w0)/(2*q).
"""

from dataclasses import dataclass

import numpy as np
from scipy.signal import sosfilt, sosfreqz

from .audio import AudioBuffer

BAND_NAMES = ["EQ_80", "EQ_240", "EQ_2500", "EQ_4000", "EQ_10000"]

LOW_SHELF = "low_shelf"
BELL = "bell"
HIGH_SHELF = "high_shelf"

GAIN_LIMIT_DB = 24.0  # safety envelope; datasets use [-12, +12]


@dataclass(frozen=True)
class EqBandSpec:
    center_hz: float
    filter_kind: str  # low_shelf | bell | high_shelf
    q: float

    def __post_init__(self):
        if self.center_hz <= 0:
            raise ValueError("center_hz must be positive")
        if self.q <= 0:
            raise ValueError("q must be positive")
        if self.filter_kind not in (LOW_SHELF, BELL, HIGH_SHELF):
            raise ValueError(f"unknown filter kind {self.filter_kind!r}")


def standard_bands():
    """The five piano EQ bands: 80 low-shelf, 240/2500/4000 bell, 10k high-shelf."""
    return [
        EqBandSpec(80.0, LOW_SHELF, 0.707),
        EqBandSpec(240.0, BELL, 1.0),
        EqBandSpec(2500.0, BELL, 1.0),
        EqBandSpec(4000.0, BELL, 1.0),
        EqBandSpec(10000.0, HIGH_SHELF, 0.707),
    ]


def validate_setting(gains_db) -> np.ndarray:
    """Check a 5-vector of band gains in dB against the safety envelope."""
    gains = np.asarray(gains_db, dtype=np.float64)
    if gains.shape != (5,):
        raise ValueError("an EQ setting is exactly 5 gains (dB)")
    if np.any(np.abs(gains) > GAIN_LIMIT_DB):
        raise ValueError(f"gains must lie within +/-{GAIN_LIMIT_DB} dB")
    return gains


def design_biquad(spec: EqBandSpec, gain_db: float, sample_rate: int) -> np.ndarray:
    """One section as the SOS row [b0, b1, b2, 1, a1, a2], a0 normalized to 1."""
    if spec.center_hz >= sample_rate / 2:
        raise ValueError(f"center {spec.center_hz} Hz is at or above Nyquist")
    if abs(gain_db) > GAIN_LIMIT_DB:
        raise ValueError(f"|gain_db| must be <= {GAIN_LIMIT_DB}")

    big_a = 10.0 ** (gain_db / 40.0)
    w0 = 2.0 * np.pi * spec.center_hz / sample_rate
    cw = np.cos(w0)
    alpha = np.sin(w0) / (2.0 * spec.q)

    if spec.filter_kind == BELL:
        b0 = 1.0 + alpha * big_a
        b1 = -2.0 * cw
        b2 = 1.0 - alpha * big_a
        a0 = 1.0 + alpha / big_a
        a1 = -2.0 * cw
        a2 = 1.0 - alpha / big_a
    elif spec.filter_kind == LOW_SHELF:
        sq = 2.0 * np.sqrt(big_a) * alpha
        b0 = big_a * ((big_a + 1) - (big_a - 1) * cw + sq)
        b1 = 2 * big_a * ((big_a - 1) - (big_a + 1) * cw)
        b2 = big_a * ((big_a + 1) - (big_a - 1) * cw - sq)
        a0 = (big_a + 1) + (big_a - 1) * cw + sq
        a1 = -2 * ((big_a - 1) + (big_a + 1) * cw)
        a2 = (big_a + 1) + (big_a - 1) * cw - sq
    else:  # high shelf
        sq = 2.0 * np.sqrt(big_a) * alpha
        b0 = big_a * ((big_a + 1) + (big_a - 1) * cw + sq)
        b1 = -2 * big_a * ((big_a - 1) + (big_a + 1) * cw)
        b2 = big_a * ((big_a + 1) + (big_a - 1) * cw - sq)
        a0 = (big_a + 1) - (big_a - 1) * cw + sq
        a1 = 2 * ((big_a - 1) - (big_a + 1) * cw)
        a2 = (big_a + 1) - (big_a - 1) * cw - sq

    return np.array([b0 / a0, b1 / a0, b2 / a0, 1.0, a1 / a0, a2 / a0])


def eq_sos(gains_db, bands, sample_rate: int) -> np.ndarray:
    """The cascade as a (bands, 6) SOS matrix, one row per band in band order."""
    gains = validate_setting(gains_db)
    if len(bands) != len(gains):
        raise ValueError("band count and gain count differ")
    return np.array([design_biquad(spec, float(gain), sample_rate)
                     for spec, gain in zip(bands, gains)])


def apply_eq(buffer: AudioBuffer, gains_db, bands=None) -> AudioBuffer:
    """Serial cascade of the five band filters in band order, run as one
    SOS filter in a single pass with zero initial state."""
    bands = standard_bands() if bands is None else bands
    sos = eq_sos(gains_db, bands, buffer.sample_rate)
    return AudioBuffer(sosfilt(sos, buffer.samples), buffer.sample_rate)


def eq_response(gains_db, bands, freqs_hz, sample_rate: int) -> np.ndarray:
    """Combined cascade magnitude response 20*log10|H(e^jw)| in dB."""
    sos = eq_sos(gains_db, bands, sample_rate)
    freqs = np.asarray(freqs_hz, dtype=np.float64)
    if np.any(freqs >= sample_rate / 2) or np.any(freqs < 0):
        raise ValueError("frequencies must lie in [0, Nyquist)")
    _, h = sosfreqz(sos, worN=freqs.ravel(), fs=sample_rate)
    return 20.0 * np.log10(np.abs(h)).reshape(freqs.shape)


def log_frequency_grid(start_hz=20.0, stop_hz=20000.0, points=200) -> np.ndarray:
    return np.geomspace(start_hz, stop_hz, points)
