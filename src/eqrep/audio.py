"""Audio container, WAV I/O, and additive synthesis of the base note corpus.

WAV files are read and written by `scipy.io.wavfile`, loaded from its own
file `scipy/io/wavfile.py` by `scipyfiles.load`, so that `scipy.io` and the
`scipy.sparse` and `scipy.io.matlab` it imports are never loaded. It is the
same code as the public module, checked on scipy 1.17.1.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import scipyfiles

wavfile = scipyfiles.load("io.wavfile")

DEFAULT_SAMPLE_RATE = 44100
DECAY_RATE = 1.5  # 1/s, the amplitude envelope of every note

# Default pitch set: alternating C and G across octaves 0..7.
DEFAULT_PITCHES = [f"{letter}{octave}" for octave in range(8) for letter in ("C", "G")]

_NOTE_SEMITONES = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: samples in nominal [-1, 1] plus a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("AudioBuffer requires a 1-D sample array")
        if len(samples) == 0:
            raise ValueError("AudioBuffer requires at least one sample")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return len(self.samples)


@dataclass(frozen=True)
class NoteSpec:
    """Additive-synthesis note: harmonic partials decaying at DECAY_RATE."""

    pitch_name: str
    fundamental_hz: float
    duration_s: float = 2.0
    partial_count: int = 20

    def __post_init__(self):
        if self.fundamental_hz <= 0:
            raise ValueError("fundamental_hz must be positive")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration_s must be positive and finite, got {self.duration_s}")
        if self.partial_count < 1:
            raise ValueError("partial_count must be at least 1")


def pitch_to_midi(label: str) -> int:
    """Parse scientific pitch notation (C4 = MIDI 60). Supports # and b."""
    label = label.strip()
    if len(label) < 2:
        raise ValueError(f"unparseable pitch label: {label!r}")
    letter = label[0].upper()
    if letter not in _NOTE_SEMITONES:
        raise ValueError(f"unparseable pitch label: {label!r}")
    rest = label[1:]
    accidental = 0
    if rest and rest[0] in "#b":
        accidental = 1 if rest[0] == "#" else -1
        rest = rest[1:]
    try:
        octave = int(rest)
    except ValueError:
        raise ValueError(f"unparseable pitch label: {label!r}") from None
    return 12 * (octave + 1) + _NOTE_SEMITONES[letter] + accidental


def pitch_to_hz(label: str) -> float:
    """Equal-temperament frequency, A4 = 440 Hz."""
    midi = pitch_to_midi(label)
    return 440.0 * 2.0 ** ((midi - 69) / 12.0)


def read_wav(path) -> AudioBuffer:
    """Read a PCM16 or float32 RIFF/WAVE file as a mono AudioBuffer.

    Stereo is downmixed by channel average; int16 is scaled by 1/32768. A
    float file holding a NaN or an infinity is refused. A file the WAV parser
    cannot read raises ValueError naming the path; OSError passes through.
    The parser's warnings, on an unknown chunk or trailing bytes, are hidden.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wavfile.WavFileWarning)
            sample_rate, data = wavfile.read(path)
    except OSError:
        raise
    except ValueError as exc:  # the parser's own refusal, such as of a non-RIFF file
        raise ValueError(f"{path}: {exc}") from None
    except Exception:  # a corrupt header breaks the parser: struct.error, NameError, ...
        raise ValueError(f"{path}: truncated or corrupt WAV file") from None
    if data.size == 0:
        raise ValueError(f"{path}: zero-length data chunk")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        if not np.isfinite(data).all():
            first = np.argwhere(~np.isfinite(data))[0]  # (frame,) or (frame, channel)
            raise ValueError(f"{path}: sample {first[0]} is {data[tuple(first)]}; "
                             "samples must be finite")
        samples = data.astype(np.float64)
    else:
        raise ValueError(
            f"{path}: unsupported sample format {data.dtype}; "
            "expected 16-bit PCM or 32-bit IEEE float"
        )
    if samples.ndim == 2:
        if samples.shape[1] > 2:
            raise ValueError(f"{path}: expected 1 or 2 channels, got {samples.shape[1]}")
        samples = samples.mean(axis=1)
    return AudioBuffer(samples, int(sample_rate))


def write_wav(buffer: AudioBuffer, path) -> None:
    """Write a mono IEEE float-32 WAV; read_wav(write_wav(x)) is exact."""
    wavfile.write(path, buffer.sample_rate, buffer.samples.astype(np.float32))


def synthesize_note(spec: NoteSpec, sample_rate: int = DEFAULT_SAMPLE_RATE) -> AudioBuffer:
    """Render sum_k (1/k) exp(-DECAY_RATE*t) sin(2*pi*k*f0*t), peak-normalized to 0.9.

    Deterministic; raises if any partial would alias.
    """
    if spec.fundamental_hz * spec.partial_count >= sample_rate / 2:
        raise ValueError(
            f"{spec.pitch_name}: partial {spec.partial_count} at "
            f"{spec.fundamental_hz * spec.partial_count:.1f} Hz reaches Nyquist"
        )
    n = int(round(spec.duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    out = np.zeros(n)
    partial = np.empty(n)  # each partial in turn, then the envelope
    for k in range(1, spec.partial_count + 1):
        np.sin(np.multiply(2.0 * np.pi * k * spec.fundamental_hz, t, out=partial), out=partial)
        out += np.multiply(partial, 1.0 / k, out=partial)
    out *= np.exp(np.multiply(-DECAY_RATE, t, out=partial), out=partial)
    out *= 0.9 / np.max(np.abs(out))
    return AudioBuffer(out, sample_rate)


def max_alias_free_partials(fundamental_hz: float, sample_rate: int) -> int:
    """Largest partial count keeping every partial strictly below Nyquist."""
    nyquist = sample_rate / 2
    count = int(np.ceil(nyquist / fundamental_hz)) - 1
    if fundamental_hz * count >= nyquist:  # exact-multiple edge
        count -= 1
    return max(count, 1)


def check_distinct_labels(labels) -> None:
    """Refuse a corpus whose note labels repeat: a label names its note's WAV
    file and its dataset sample ids."""
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"corpus repeats note label(s) {', '.join(repeated)}")


def note_corpus(pitch_list=None, sample_rate: int = DEFAULT_SAMPLE_RATE,
                duration_s: float = 2.0, partial_count: int = 20):
    """Synthesize one buffer per pitch label; returns [(label, AudioBuffer)].

    The partial count is reduced per note so no partial reaches Nyquist.
    """
    if pitch_list is None:
        pitch_list = DEFAULT_PITCHES
    check_distinct_labels(pitch_list)
    corpus = []
    for label in pitch_list:
        f0 = pitch_to_hz(label)
        partials = min(partial_count, max_alias_free_partials(f0, sample_rate))
        spec = NoteSpec(label, f0, duration_s, partials)
        corpus.append((label, synthesize_note(spec, sample_rate)))
    return corpus
