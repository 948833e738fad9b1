"""Timbral feature extraction: the 17-dimensional vector of file-level means
of spectral centroid, bandwidth, rolloff, MFCCs 0-12, and RMS energy.

Flattened feature order is fixed and models depend on it:
[centroid, bandwidth, rolloff, mfcc0..mfcc12, rms].

`extract_features` makes one pass over the STFT frames in blocks of
`BLOCK_FRAMES`, so its temporaries stay at one block's size, whatever the
signal length, and are reused from block to block. Whether they are reused
from call to call is up to the allocator: glibc's dynamic trim threshold
returns the heap top to the kernel when a call's last block is freed along
with a large input (an EQ output), and the next call faults it in again.
`pool` workers fix the threshold for this reason. The pass makes no BLAS
call, so its bytes do not depend on the BLAS thread count. Its stage
functions take a (frames, bins) block of magnitude spectra and return one
value per frame.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct

from .audio import AudioBuffer

N_MFCC = 13
N_MELS = 40
ROLLOFF_FRACTION = 0.85
LOG_FLOOR = 1e-10
# Frames per block of the feature pass: at frame 2048 a block's float64
# frames take 0.5 MB, and its spectra about as much.
BLOCK_FRAMES = 32

FEATURE_NAMES = (
    ["centroid_hz", "bandwidth_hz", "rolloff_hz"]
    + [f"mfcc_{i}" for i in range(N_MFCC)]
    + ["rms"]
)
FEATURE_DIM = len(FEATURE_NAMES)  # 17


@dataclass(frozen=True)
class StftConfig:
    frame_size: int = 2048
    hop_size: int = 512

    def __post_init__(self):
        if self.frame_size < 2 or self.frame_size & (self.frame_size - 1):
            raise ValueError("frame_size must be a power of two")
        if not 0 < self.hop_size <= self.frame_size:
            raise ValueError("hop_size must be in (0, frame_size]")


@dataclass(frozen=True)
class FeatureVector:
    centroid_hz: float
    bandwidth_hz: float
    rolloff_hz: float
    mfcc_mean: np.ndarray  # coefficients 0..12
    rms: float

    def to_array(self) -> np.ndarray:
        return np.concatenate(
            [[self.centroid_hz, self.bandwidth_hz, self.rolloff_hz],
             np.asarray(self.mfcc_mean, dtype=np.float64), [self.rms]]
        )


def hann_window(frame_size: int) -> np.ndarray:
    # periodic Hann, the usual STFT analysis window
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(frame_size) / frame_size)


def frame_signal(samples: np.ndarray, config: StftConfig) -> np.ndarray:
    """Frame-major read-only view of the full frames at hop stride; no
    padding and no copy."""
    if len(samples) < config.frame_size:
        raise ValueError("buffer shorter than one frame")
    return sliding_window_view(samples, config.frame_size)[::config.hop_size]


def _magnitudes(frames: np.ndarray, window: np.ndarray) -> np.ndarray:
    return np.abs(np.fft.rfft(frames * window, axis=1))


def fft_bin_freqs(frame_size: int, sample_rate: int) -> np.ndarray:
    return np.fft.rfftfreq(frame_size, d=1.0 / sample_rate)


def spectral_centroid(magnitudes: np.ndarray, bin_freqs: np.ndarray) -> np.ndarray:
    """Magnitude-weighted mean frequency per frame; 0 for an all-zero frame."""
    total = magnitudes.sum(axis=1)
    weighted = np.einsum("ij,j->i", magnitudes, bin_freqs)
    return np.divide(weighted, total, out=np.zeros(len(magnitudes)), where=total > 0)


def spectral_bandwidth(magnitudes: np.ndarray, bin_freqs: np.ndarray,
                       centroid: np.ndarray) -> np.ndarray:
    """Magnitude-weighted std of frequency around the centroid (order 2)."""
    total = magnitudes.sum(axis=1)
    dev2 = (bin_freqs[None, :] - centroid[:, None]) ** 2
    var = np.divide(np.einsum("ij,ij->i", magnitudes, dev2), total,
                    out=np.zeros(len(magnitudes)), where=total > 0)
    return np.sqrt(var)


def spectral_rolloff(magnitudes: np.ndarray, bin_freqs: np.ndarray) -> np.ndarray:
    """Lowest frequency where cumulative energy reaches ROLLOFF_FRACTION * total."""
    cum = np.cumsum(magnitudes ** 2, axis=1)
    total = cum[:, -1]
    # first bin whose cumulative energy meets the threshold
    idx = np.argmax(cum >= ROLLOFF_FRACTION * total[:, None], axis=1)
    return np.where(total > 0, bin_freqs[idx], 0.0)


def hz_to_mel(freq_hz):
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, frame_size: int, sample_rate: int) -> np.ndarray:
    """Triangular filters, centers uniform on the HTK mel scale over [0, Nyquist],
    each peak-normalized to 1. Shape (n_mels, frame_size/2 + 1)."""
    bin_freqs = fft_bin_freqs(frame_size, sample_rate)
    mel_points = np.linspace(0.0, hz_to_mel(sample_rate / 2), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    weights = np.zeros((n_mels, len(bin_freqs)))
    for m in range(n_mels):
        lo, center, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        weights[m] = np.maximum(0.0, np.minimum(up, down))
        if weights[m].max() == 0.0:
            raise ValueError(f"mel filter {m} spans less than one FFT bin")
    return weights


def mel_bands(filterbank: np.ndarray):
    """The filterbank in banded form, (cols, weights, starts): filter m's
    nonzero weights and their bin indices are `weights[starts[m]:starts[m+1]]`
    and `cols[...]` (the last runs to the end). Each bin lies in at most two
    filters, so the gather is at most twice as wide as the spectrum."""
    if np.count_nonzero(filterbank, axis=0).max() > 2:
        raise ValueError("an FFT bin lies in more than two mel filters")
    rows, cols = np.nonzero(filterbank)
    starts = np.searchsorted(rows, np.arange(len(filterbank)))
    return cols, filterbank[rows, cols], starts


def mel_log_energies(magnitudes: np.ndarray, bands) -> np.ndarray:
    """Log mel energies, log(filter-weighted power sum + floor), frame-major,
    from the banded filterbank of `mel_bands`: one gather of the filters'
    bins and one segmented sum per filter."""
    cols, weights, starts = bands
    gathered = np.take(magnitudes, cols, axis=-1)
    np.square(gathered, out=gathered)
    gathered *= weights
    energies = np.add.reduceat(gathered, starts, axis=-1)
    energies += LOG_FLOOR
    return np.log(energies, out=energies)


@functools.lru_cache(maxsize=16)
def analysis_constants(sample_rate: int, frame_size: int):
    """(Hann window, bin frequencies, `mel_bands` of the N_MELS-filter mel
    filterbank) of one STFT geometry. Built once per (sample_rate,
    frame_size) and shared read-only."""
    window = hann_window(frame_size)
    bin_freqs = fft_bin_freqs(frame_size, sample_rate)
    bands = mel_bands(mel_filterbank(N_MELS, frame_size, sample_rate))
    for array in (window, bin_freqs, *bands):
        array.setflags(write=False)
    return window, bin_freqs, bands


def extract_features(buffer: AudioBuffer, config: StftConfig = StftConfig()) -> FeatureVector:
    """Assemble the 17-dim feature vector of file-level means.

    Each block of frames is windowed and transformed once; the per-frame
    stats of the block are added to running sums. The DCT is linear, so it is
    applied once, to the mean log mel energies."""
    window, bin_freqs, bands = analysis_constants(buffer.sample_rate, config.frame_size)
    frames = frame_signal(buffer.samples, config)
    centroid_sum = bandwidth_sum = rolloff_sum = rms_sum = 0.0
    logmel_sum = np.zeros(N_MELS)
    for start in range(0, len(frames), BLOCK_FRAMES):
        block = frames[start:start + BLOCK_FRAMES]
        mags = _magnitudes(block, window)
        centroid = spectral_centroid(mags, bin_freqs)
        centroid_sum += centroid.sum()
        bandwidth_sum += spectral_bandwidth(mags, bin_freqs, centroid).sum()
        rolloff_sum += spectral_rolloff(mags, bin_freqs).sum()
        logmel_sum += mel_log_energies(mags, bands).sum(axis=0)
        rms_sum += np.sqrt(np.einsum("ij,ij->i", block, block) / config.frame_size).sum()
        # Free the spectra before the next block allocates its own: the heap
        # then peaks at one block and is reused from block to block, not
        # grown, trimmed and faulted in again on every block.
        del mags
    count = len(frames)
    return FeatureVector(
        centroid_hz=float(centroid_sum / count),
        bandwidth_hz=float(bandwidth_sum / count),
        rolloff_hz=float(rolloff_sum / count),
        mfcc_mean=dct(logmel_sum / count, type=2, norm="ortho")[:N_MFCC],
        rms=float(rms_sum / count),
    )
