"""Parametric EQ: biquad design (low-shelf, bell, high-shelf) as
second-order-sections (SOS) rows, the cascade as one SOS matrix, its
application with scipy's compiled SOS kernel and its magnitude response.

Coefficients follow the standard audio-EQ cookbook parameterization with
A = 10^(gain_db/40), w0 = 2*pi*f0/fs, alpha = sin(w0)/(2*q).

The module does not import `scipy.signal`. It runs `_sosfilt`, the Cython
kernel that `scipy.signal.sosfilt` runs after it validates and copies its
arguments, loaded from its own file `scipy/signal/_sosfilt*.so`, so that no
scipy `__init__` beyond the top-level package runs; it is the one private
scipy file eqrep runs. The response is computed in numpy with the
arithmetic of `freqz_sos`. Both give the bytes of `sosfilt` and `sosfreqz`,
checked on scipy 1.17.1.
"""

import importlib.machinery
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .audio import AudioBuffer

LOW_SHELF = "low_shelf"
BELL = "bell"
HIGH_SHELF = "high_shelf"

GAIN_LIMIT_DB = 24.0  # safety envelope; datasets use [-12, +12]


def load_sosfilt(directory=Path(scipy.__file__).parent / "signal"):
    """`scipy.signal._sosfilt(sos, x, zi)`, from its compiled file in
    `directory`. It filters the C-ordered (rows, n) array `x` in place, row
    by row, from the C-ordered (rows, sections, 2) state `zi`."""
    name = "scipy.signal._sosfilt"
    loaders = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(str(directory), loaders).find_spec(name)
    if spec is None:
        raise ImportError(f"no file for {name} (a compiled _sosfilt) in {directory}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._sosfilt


_sosfilt = load_sosfilt()


@dataclass(frozen=True)
class EqBandSpec:
    center_hz: float
    filter_kind: str  # low_shelf | bell | high_shelf
    q: float

    def __post_init__(self):
        if not self.center_hz > 0:  # false for NaN too
            raise ValueError("center_hz must be positive")
        if not self.q > 0:
            raise ValueError("q must be positive")
        if self.filter_kind not in (LOW_SHELF, BELL, HIGH_SHELF):
            raise ValueError(f"unknown filter kind {self.filter_kind!r}")


# The five piano EQ bands: the one source of the band count and names.
BANDS = (
    EqBandSpec(80.0, LOW_SHELF, 0.707),
    EqBandSpec(240.0, BELL, 1.0),
    EqBandSpec(2500.0, BELL, 1.0),
    EqBandSpec(4000.0, BELL, 1.0),
    EqBandSpec(10000.0, HIGH_SHELF, 0.707),
)
BAND_COUNT = len(BANDS)
BAND_NAMES = [f"EQ_{band.center_hz:g}" for band in BANDS]


def band_labels(width: int) -> list:
    """BAND_NAMES, as the labels of `width` target columns; a table of any
    other width is refused, since its columns have no band to be named by."""
    if width != BAND_COUNT:
        raise ValueError(f"{width} target columns cannot be labelled by the "
                         f"{BAND_COUNT} band names")
    return BAND_NAMES


def validate_setting(gains_db) -> np.ndarray:
    """Check one gain in dB per band against the safety envelope; NaN lies outside it."""
    gains = np.asarray(gains_db, dtype=np.float64)
    if gains.shape != (BAND_COUNT,):
        raise ValueError(f"an EQ setting is exactly {BAND_COUNT} gains (dB)")
    if not np.all(np.abs(gains) <= GAIN_LIMIT_DB):  # false for NaN too
        raise ValueError(f"gains must be finite and lie within +/-{GAIN_LIMIT_DB} dB")
    return gains


def design_biquad(spec: EqBandSpec, gain_db: float, sample_rate: int) -> np.ndarray:
    """One section as the SOS row [b0, b1, b2, 1, a1, a2], a0 normalized to 1."""
    if spec.center_hz >= sample_rate / 2:
        raise ValueError(f"center {spec.center_hz} Hz is at or above Nyquist")
    if not abs(gain_db) <= GAIN_LIMIT_DB:  # false for NaN too
        raise ValueError(f"gain_db must be finite and |gain_db| <= {GAIN_LIMIT_DB}")

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
    else:  # RBJ shelves: the high shelf is the low one with cos(w0), b1 and a1 negated
        s = 1.0 if spec.filter_kind == LOW_SHELF else -1.0
        c = s * cw
        sq = 2.0 * np.sqrt(big_a) * alpha
        b0 = big_a * ((big_a + 1) - (big_a - 1) * c + sq)
        b1 = 2 * s * big_a * ((big_a - 1) - (big_a + 1) * c)
        b2 = big_a * ((big_a + 1) - (big_a - 1) * c - sq)
        a0 = (big_a + 1) + (big_a - 1) * c + sq
        a1 = -2 * s * ((big_a - 1) + (big_a + 1) * c)
        a2 = (big_a + 1) + (big_a - 1) * c - sq

    return np.array([b0 / a0, b1 / a0, b2 / a0, 1.0, a1 / a0, a2 / a0])


def eq_sos(gains_db, sample_rate: int) -> np.ndarray:
    """The cascade as a (5, 6) SOS matrix, one row per band of BANDS."""
    gains = validate_setting(gains_db)
    return np.array([design_biquad(spec, float(gain), sample_rate)
                     for spec, gain in zip(BANDS, gains)])


def apply_eq(buffer: AudioBuffer, gains_db) -> AudioBuffer:
    """Serial cascade of the five band filters in band order, run as one
    SOS filter in a single pass with zero initial state, on a copy."""
    sos = eq_sos(gains_db, buffer.sample_rate)
    x = np.array(buffer.samples.reshape(1, -1), dtype=np.float64, order="C")
    _sosfilt(sos, x, np.zeros((1, len(sos), 2)))
    return AudioBuffer(x[0], buffer.sample_rate)


def eq_response(gains_db, freqs_hz, sample_rate: int) -> np.ndarray:
    """Combined cascade magnitude response 20*log10|H(e^jw)| in dB: the
    product of the sections' responses, each a ratio of Horner sums in
    z^-1 = exp(-jw)."""
    sos = eq_sos(gains_db, sample_rate)
    freqs = np.asarray(freqs_hz, dtype=np.float64)
    outside = ~((freqs >= 0) & (freqs < sample_rate / 2))  # true for NaN too
    if outside.any():
        raise ValueError(f"frequency {float(freqs.flat[np.argmax(outside)])!r} Hz lies "
                         f"outside [0, Nyquist) = [0, {sample_rate / 2!r}) Hz")
    # The arithmetic of `freqz_sos`, step for step, so the bytes agree: each
    # section's ratio is formed before it joins the product, since
    # (h * num) / den rounds differently from h * (num / den).
    zm1 = np.exp(-1j * (2 * np.pi * freqs.ravel() / sample_rate))
    h = 1.0
    for b0, b1, b2, a0, a1, a2 in sos:
        h *= (b0 + (b1 + (b2 + 0j) * zm1) * zm1) / (a0 + (a1 + (a2 + 0j) * zm1) * zm1)
    return 20.0 * np.log10(np.abs(h)).reshape(freqs.shape)


def log_frequency_grid(start_hz=20.0, stop_hz=20000.0, points=200) -> np.ndarray:
    return np.geomspace(start_hz, stop_hz, points)
