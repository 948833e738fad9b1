"""Audio container, WAV I/O, and additive synthesis of the base note corpus.

`read_wav` and `write_wav` parse and write RIFF themselves, with `struct`
and numpy. They read what `scipy.io.wavfile.read` reads in 16-bit PCM or
32-bit float, in 1 or 2 channels, and write the bytes `scipy.io.wavfile.write`
writes for a mono float32 array; the tests hold both to the public module.

`synthesize_note` renders its note BLOCK_SAMPLES samples at a time straight
into the array it returns, so its peak memory is the note's samples plus two
blocks, whatever the note's length.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

DEFAULT_SAMPLE_RATE = 44100
# The largest rate write_wav can store: the header's byte rate, 4 x rate, is a uint32.
MAX_SAMPLE_RATE = 0xFFFFFFFF // 4
# The most sample bytes write_wav can store: the RIFF size, 50 + data bytes, is a uint32.
MAX_WAV_DATA_BYTES = 0xFFFFFFFF - 50
DECAY_RATE = 1.5  # 1/s, the amplitude envelope of every note
# Samples per block of synthesis: a block's time axis and its partial take
# 128 kB each, whatever the note's length.
BLOCK_SAMPLES = 1 << 14

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
        if not self.fundamental_hz > 0:  # false for NaN too
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
    """Equal-temperament frequency, A4 = 440 Hz. A label whose frequency
    overflows a float is refused by name."""
    midi = pitch_to_midi(label)
    try:
        hz = 440.0 * 2.0 ** ((midi - 69) / 12.0)
    except OverflowError:
        hz = math.inf
    if hz == math.inf:
        raise ValueError(f"pitch label {label!r}: frequency overflows a float")
    return hz


# The sample type of each format tag read_wav reads: 16-bit PCM and 32-bit
# IEEE float. An extensible `fmt ` (tag 0xFFFE) holds the tag in its GUID.
_SAMPLE_TYPES = {1: np.dtype("<i2"), 3: np.dtype("<f4")}
_GUID_TAIL = bytes.fromhex("000010008000 00aa00389b71")


def _wav_samples(raw: memoryview):
    """(sample rate, samples) of a little-endian RIFF or RF64 WAV file's
    bytes; the samples, of shape (frames,) or (frames, 2), view `raw`. The
    chunks are walked up to the end the RIFF size gives, and all but `fmt `
    and `data` are skipped."""
    def need(stop, what):
        if stop > len(raw):
            raise ValueError(f"file ends at byte {len(raw)}, inside {what}")

    need(12, "the RIFF header")
    riff, end, wave = struct.unpack_from("<4sI4s", raw)
    if riff not in (b"RIFF", b"RF64") or wave != b"WAVE":
        raise ValueError("not a little-endian RIFF or RF64 WAVE file")
    pos = 12
    if riff == b"RF64":  # the RIFF and data sizes are in a ds64 chunk
        need(36, "the ds64 chunk")
        ds64, ds64_size, end, data_size = struct.unpack_from("<4sIQQ", raw, 12)
        if ds64 != b"ds64" or ds64_size < 16:
            raise ValueError("RF64 file without a ds64 chunk")
        pos = 20 + ds64_size
    chunks = []
    while pos < end + 8:
        need(pos + 8, f"the chunk header at byte {pos}")
        chunk_id, size = struct.unpack_from("<4sI", raw, pos)
        size = data_size if chunk_id == b"data" and riff == b"RF64" else size
        need(pos + 8 + size, f"chunk {chunk_id.decode('latin-1')!r} at byte {pos}")
        if chunk_id in (b"fmt ", b"data"):
            chunks.append((chunk_id, raw[pos + 8:pos + 8 + size]))
        pos += 8 + size + size % 2  # a pad byte follows an odd size
    if [chunk_id for chunk_id, _ in chunks] != [b"fmt ", b"data"]:
        raise ValueError("expected one 'fmt ' chunk, then one 'data' chunk")
    (_, fmt), (_, data) = chunks
    if len(fmt) < 16:
        raise ValueError(f"'fmt ' chunk of {len(fmt)} bytes; expected at least 16")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == 0xFFFE and len(fmt) >= 40:
        cb_size, subformat_tag, guid_tail = struct.unpack_from("<H6xI12s", fmt, 16)
        tag = subformat_tag if cb_size >= 22 and guid_tail == _GUID_TAIL else tag
    dtype = _SAMPLE_TYPES.get(tag)
    if (dtype is None or bits != 8 * dtype.itemsize or channels not in (1, 2)
            or block_align != channels * dtype.itemsize):
        raise ValueError(f"unsupported sample format: {channels} channel(s) of {bits} bits "
                         f"(format tag {tag:#06x}) in {block_align}-byte frames; expected "
                         "1 or 2 channels of 16-bit PCM or 32-bit IEEE float")
    if tag == 1 and byte_rate != rate * block_align:  # scipy checks PCM alone
        raise ValueError(f"byte rate {byte_rate} != sample rate {rate} x {block_align}")
    if rate == 0:
        raise ValueError("sample rate 0")
    if not data or len(data) % block_align:
        raise ValueError(f"'data' chunk of {len(data)} bytes; expected a positive "
                         f"whole number of {block_align}-byte frames")
    samples = np.frombuffer(data, dtype)
    return rate, samples if channels == 1 else samples.reshape(-1, 2)


def read_wav(path) -> AudioBuffer:
    """Read a 16-bit PCM or 32-bit float WAV file, plain or extensible, RIFF
    or RF64, as a mono AudioBuffer: stereo is downmixed by channel average,
    int16 scaled by 1/32768. A file cut anywhere, of another format, or with
    a NaN or infinite float sample raises one ValueError that starts with
    the path; OSError passes through."""
    with open(path, "rb") as file:
        raw = file.read()
    try:
        sample_rate, data = _wav_samples(memoryview(raw))
        if data.dtype == np.float32 and not np.isfinite(data).all():
            first = np.argwhere(~np.isfinite(data))[0]  # (frame,) or (frame, channel)
            raise ValueError(f"sample {first[0]} is {data[tuple(first)]}; "
                             "samples must be finite")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    # The float64 mean converts as it sums, so no float64 copy of both channels is made.
    samples = data.mean(axis=1, dtype=np.float64) if data.ndim == 2 else data.astype(np.float64)
    if data.dtype == np.int16:
        samples /= 32768.0  # a power of two: the same bytes as scaling before the mean
    return AudioBuffer(samples, sample_rate)


def write_wav(buffer: AudioBuffer, path) -> None:
    """Write a mono IEEE float-32 WAV in the bytes `scipy.io.wavfile.write`
    writes for a float32 array: `fmt ` with cbSize 0, `fact` with the frame
    count, then `data`. read_wav(write_wav(x)) is exact. A rate above
    MAX_SAMPLE_RATE or more than MAX_WAV_DATA_BYTES of samples overflows the
    header's 32-bit fields and raises ValueError starting with the path."""
    rate, size = buffer.sample_rate, 4 * len(buffer)
    if rate > MAX_SAMPLE_RATE or size > MAX_WAV_DATA_BYTES:
        raise ValueError(f"{path}: {rate} Hz and {size} bytes of samples overflow a WAV "
                         f"header (at most {MAX_SAMPLE_RATE} Hz, {MAX_WAV_DATA_BYTES} bytes)")
    data = buffer.samples.astype("<f4")
    with open(path, "wb") as file:
        file.write(struct.pack("<4sI4s 4sIHHIIHHH 4sII 4sI", b"RIFF", 50 + data.nbytes,
                               b"WAVE", b"fmt ", 18, 3, 1, rate, 4 * rate, 4, 32, 0,
                               b"fact", 4, len(data), b"data", data.nbytes))
        file.write(data.data)


def synthesize_note(spec: NoteSpec, sample_rate: int = DEFAULT_SAMPLE_RATE) -> AudioBuffer:
    """Render sum_k (1/k) exp(-DECAY_RATE*t) sin(2*pi*k*f0*t), peak-normalized to 0.9.

    Each block of BLOCK_SAMPLES samples is summed partial by partial into the
    output, then scaled by its envelope; one final scale normalizes the whole
    note. Every sample sees the arithmetic of a whole-note render, so the
    bytes do not depend on the block size. Deterministic; raises if a partial
    would alias or a WAV could not hold the note.
    """
    if spec.fundamental_hz * spec.partial_count >= sample_rate / 2:
        raise ValueError(
            f"{spec.pitch_name}: partial {spec.partial_count} at "
            f"{spec.fundamental_hz * spec.partial_count:.1f} Hz reaches Nyquist"
        )
    samples = spec.duration_s * sample_rate
    if samples > MAX_WAV_DATA_BYTES // 4:
        raise ValueError(f"{spec.pitch_name}: duration {spec.duration_s} s is {samples:.4g} "
                         f"samples at {sample_rate} Hz; a WAV holds at most "
                         f"{MAX_WAV_DATA_BYTES // 4}")
    n = int(round(samples))
    if n == 0:
        raise ValueError(f"{spec.pitch_name}: duration {spec.duration_s} s rounds to 0 "
                         f"samples at {sample_rate} Hz")
    out = np.zeros(n)
    peak = max(_render_block(out[start:start + BLOCK_SAMPLES], start, spec, sample_rate)
               for start in range(0, n, BLOCK_SAMPLES))
    if peak == 0:  # one sample is sin(0): nothing to normalize
        raise ValueError(f"{spec.pitch_name}: duration {spec.duration_s} s rounds to {n} "
                         f"silent sample(s) at {sample_rate} Hz")
    out *= 0.9 / peak
    return AudioBuffer(out, sample_rate)


def _render_block(block, start, spec, sample_rate):
    """Add the note's partials, times its envelope, into `block`: zeros that
    hold the note's samples from `start` on. Returns the block's peak."""
    t = np.arange(start, start + len(block)) / sample_rate
    partial = np.empty(len(block))  # each partial in turn, the envelope, then |block|
    for k in range(1, spec.partial_count + 1):
        np.sin(np.multiply(2.0 * np.pi * k * spec.fundamental_hz, t, out=partial), out=partial)
        block += np.multiply(partial, 1.0 / k, out=partial)
    block *= np.exp(np.multiply(-DECAY_RATE, t, out=partial), out=partial)
    return np.max(np.abs(block, out=partial))


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
