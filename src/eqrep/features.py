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
call, so its bytes do not depend on the BLAS thread count: the MFCCs' DCT
is the constant matrix `MFCC_DCT`, applied with `einsum` like the other
weights.

Each block's magnitudes are read once, for their sums against the rows 1,
f and f² of `frequency_moments`, and then squared in place; that one power
spectrum feeds both `spectral_rolloff` and `mel_log_energies`. Bandwidth is
sqrt(E[f²] - E[f]²): on real notes, centroid and bandwidth are within
5.5e-12 Hz of the sums of squared deviations from the centroid, and the
other features are bitwise the same.
"""

import functools
from dataclasses import asdict, dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import DEFAULT_SAMPLE_RATE, MAX_SAMPLE_RATE, AudioBuffer

N_MFCC = 13
N_MELS = 40
ROLLOFF_FRACTION = 0.85
# Bins per segment of the rolloff's two-step search.
ROLLOFF_SEGMENT = 32
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

# Rows 0..N_MFCC-1 of the orthonormal DCT-II of length N: sqrt(2/N) cos(pi k (2j + 1) / 2N).
MFCC_DCT = np.sqrt(2.0 / N_MELS) * np.cos(
    np.pi * np.arange(N_MFCC)[:, None] * (2 * np.arange(N_MELS) + 1) / (2 * N_MELS))
MFCC_DCT[0] /= np.sqrt(2.0)
MFCC_DCT.setflags(write=False)


@dataclass(frozen=True)
class StftConfig:
    frame_size: int = 2048
    hop_size: int = 512

    def __post_init__(self):
        if self.frame_size < 2 or self.frame_size & (self.frame_size - 1):
            raise ValueError("frame_size must be a power of two")
        if not 0 < self.hop_size <= self.frame_size:
            raise ValueError("hop_size must be in (0, frame_size]")

    def check_length(self, n: int, source: str = "") -> None:
        """Refuse a signal of `n` samples, too short for one frame, with a
        message after `source`, such as "note C4: "."""
        if n < self.frame_size:
            raise ValueError(f"{source}buffer of {n} samples is shorter than one "
                             f"frame ({self.frame_size})")


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
    config.check_length(len(samples))
    return sliding_window_view(samples, config.frame_size)[::config.hop_size]


def _magnitudes(frames: np.ndarray, window: np.ndarray) -> np.ndarray:
    return np.abs(np.fft.rfft(frames * window, axis=1))


def fft_bin_freqs(frame_size: int, sample_rate: int) -> np.ndarray:
    return np.fft.rfftfreq(frame_size, d=1.0 / sample_rate)


def frequency_moments(bin_freqs: np.ndarray) -> np.ndarray:
    """The (3, bins) matrix of rows 1, f and f² over the bin frequencies."""
    return np.stack([np.ones_like(bin_freqs), bin_freqs, bin_freqs * bin_freqs])


def centroid_and_bandwidth(magnitudes: np.ndarray, moments: np.ndarray):
    """Magnitude-weighted mean frequency and standard deviation of frequency
    (order 2) per frame, from one read of the block: its sums against the
    rows of `frequency_moments`. Both are 0 for an all-zero frame."""
    sums = np.einsum("ij,kj->ik", magnitudes, moments)
    total = sums[:, :1]
    means = np.divide(sums[:, 1:], total, out=np.zeros((len(sums), 2)), where=total > 0)
    centroid = means[:, 0]
    variance = means[:, 1] - centroid * centroid
    return centroid, np.sqrt(np.maximum(variance, 0.0))


def spectral_rolloff(power: np.ndarray, bin_freqs: np.ndarray) -> np.ndarray:
    """Lowest frequency where the cumulative power reaches ROLLOFF_FRACTION of
    the frame's total; 0 Hz for an all-zero frame. The crossing's segment of
    ROLLOFF_SEGMENT bins is found on the cumulative segment sums, then its bin
    within that one segment. If rounding puts the crossing past the segment's
    end, the segment's last bin is taken."""
    bins = power.shape[1]
    cum = np.cumsum(np.add.reduceat(power, np.arange(0, bins, ROLLOFF_SEGMENT), axis=1), axis=1)
    threshold = ROLLOFF_FRACTION * cum[:, -1:]
    segment = np.count_nonzero(cum < threshold, axis=1)
    # A short last segment repeats the last bin, so a crossing past its end reads that bin.
    cols = np.minimum((segment * ROLLOFF_SEGMENT)[:, None] + np.arange(ROLLOFF_SEGMENT), bins - 1)
    running = np.take_along_axis(power, cols, axis=1)
    rows = np.arange(len(power))
    running[:, 0] += np.where(segment > 0, cum[rows, segment - 1], 0.0)
    np.cumsum(running, axis=1, out=running)
    below = np.count_nonzero(running < threshold, axis=1)
    return bin_freqs[cols[rows, np.minimum(below, ROLLOFF_SEGMENT - 1)]]


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


def mel_log_energies(power: np.ndarray, bands) -> np.ndarray:
    """Log mel energies, log(filter-weighted power sum + floor), frame-major,
    from power spectra and the banded filterbank of `mel_bands`: one gather of
    the filters' bins and one segmented sum per filter."""
    cols, weights, starts = bands
    gathered = np.take(power, cols, axis=-1)
    gathered *= weights
    energies = np.add.reduceat(gathered, starts, axis=-1)
    energies += LOG_FLOOR
    return np.log(energies, out=energies)


@functools.lru_cache(maxsize=16)
def analysis_constants(sample_rate: int, frame_size: int):
    """(Hann window, bin frequencies, their `frequency_moments`, `mel_bands`
    of the N_MELS-filter mel filterbank) of one STFT geometry. Built once per
    (sample_rate, frame_size) and shared read-only."""
    window = hann_window(frame_size)
    bin_freqs = fft_bin_freqs(frame_size, sample_rate)
    moments = frequency_moments(bin_freqs)
    bands = mel_bands(mel_filterbank(N_MELS, frame_size, sample_rate))
    for array in (window, bin_freqs, moments, *bands):
        array.setflags(write=False)
    return window, bin_freqs, moments, bands


def extract_features(buffer: AudioBuffer, config: StftConfig = StftConfig()) -> FeatureVector:
    """Assemble the 17-dim feature vector of file-level means.

    Each block of frames is windowed and transformed once; the per-frame
    stats of the block are added to running sums. The DCT is linear, so it is
    applied once, to the mean log mel energies."""
    window, bin_freqs, moments, bands = analysis_constants(buffer.sample_rate, config.frame_size)
    frames = frame_signal(buffer.samples, config)
    centroid_sum = bandwidth_sum = rolloff_sum = rms_sum = 0.0
    logmel_sum = np.zeros(N_MELS)
    for start in range(0, len(frames), BLOCK_FRAMES):
        block = frames[start:start + BLOCK_FRAMES]
        mags = _magnitudes(block, window)
        centroid, bandwidth = centroid_and_bandwidth(mags, moments)
        centroid_sum += centroid.sum()
        bandwidth_sum += bandwidth.sum()
        power = np.square(mags, out=mags)
        rolloff_sum += spectral_rolloff(power, bin_freqs).sum()
        logmel_sum += mel_log_energies(power, bands).sum(axis=0)
        rms_sum += np.sqrt(np.einsum("ij,ij->i", block, block) / config.frame_size).sum()
        # Free the spectra before the next block allocates its own: the heap
        # then peaks at one block and is reused from block to block, not
        # grown, trimmed and faulted in again on every block.
        del mags, power
    count = len(frames)
    return FeatureVector(
        centroid_hz=float(centroid_sum / count),
        bandwidth_hz=float(bandwidth_sum / count),
        rolloff_hz=float(rolloff_sum / count),
        mfcc_mean=np.einsum("kj,j->k", MFCC_DCT, logmel_sum / count),
        rms=float(rms_sum / count),
    )



@dataclass(frozen=True)
class FeatureContract:
    """What a feature row means: the sample rate of its audio and the STFT
    that read it, under which the features are `names`, `width` of them.
    Manifests and model artifacts record it; a model reads only its own."""
    sample_rate: int = DEFAULT_SAMPLE_RATE
    stft: StftConfig = StftConfig()
    names: ClassVar[tuple] = tuple(FEATURE_NAMES)
    width: ClassVar[int] = FEATURE_DIM

    def __str__(self):
        return f"{self.sample_rate} Hz, {self.stft}"

    @classmethod
    def from_doc(cls, doc, stft=None) -> "FeatureContract":
        """The contract in a `jsondoc.JsonValue`, STFT in `stft` or as `to_dict` has it."""
        stft = stft or doc
        rate, frame = doc["sample_rate"].int(1, MAX_SAMPLE_RATE), stft["frame_size"].int()
        try:
            StftConfig(frame, 1)
        except ValueError as exc:
            raise ValueError(f"{doc.what} {stft['frame_size'].path}: {exc}, got {frame}") from None
        return cls(rate, StftConfig(frame, stft["hop_size"].int(1, frame)))

    def to_dict(self) -> dict:
        return {"sample_rate": self.sample_rate, **asdict(self.stft)}

    def require(self, got: "FeatureContract", source: str = "") -> None:
        """Refuse features of another contract with one line naming both."""
        if got != self:
            raise ValueError(f"{source}features of {got} != model's {self}")

    def extract(self, buffer: AudioBuffer, source: str = "") -> np.ndarray:
        """The feature row of `buffer`; one at another rate, or shorter than a
        frame, is refused with one line after `source`."""
        self.require(FeatureContract(buffer.sample_rate, self.stft), source)
        self.stft.check_length(len(buffer), source)
        return extract_features(buffer, self.stft).to_array()
