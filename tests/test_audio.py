import io
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import oracles
from eqrep.audio import (BLOCK_SAMPLES, MAX_SAMPLE_RATE, MAX_WAV_DATA_BYTES, AudioBuffer,
                         NoteSpec, max_alias_free_partials, note_corpus, pitch_to_hz,
                         pitch_to_midi, read_wav, synthesize_note, write_wav, DEFAULT_PITCHES)
from eqrep.features import extract_features
from fresh import run_fresh

SR = 44100


class TestReadWav:
    def test_pcm16_scaling(self, tmp_path):
        path = tmp_path / "pcm.wav"
        wavfile.write(path, SR, np.array([0, 32767, -32768], dtype=np.int16))
        buf = read_wav(path)
        assert buf.sample_rate == SR
        np.testing.assert_allclose(buf.samples, [0.0, 32767 / 32768, -1.0])

    def test_float32_identity(self, tmp_path):
        path = tmp_path / "f32.wav"
        wavfile.write(path, SR, np.array([0.5], dtype=np.float32))
        buf = read_wav(path)
        assert buf.samples[0] == 0.5
        assert buf.sample_rate == SR

    def test_stereo_average_downmix(self, tmp_path):
        path = tmp_path / "stereo.wav"
        wavfile.write(path, SR, np.array([[1.0, 0.0]], dtype=np.float32))
        assert read_wav(path).samples[0] == 0.5

    def test_unsupported_bit_depth(self, tmp_path):
        path = tmp_path / "i32.wav"
        wavfile.write(path, SR, np.array([1, 2, 3], dtype=np.int32))
        with pytest.raises(ValueError, match="unsupported"):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_non_finite_float_sample_is_refused(self, tmp_path, value, channels):
        path = tmp_path / "bad.wav"
        data = np.full((SR, channels), 0.25, dtype=np.float32)
        data[1000, -1] = value
        data[2000, 0] = np.nan
        wavfile.write(path, SR, data[:, 0] if channels == 1 else data)
        with pytest.raises(ValueError) as exc:
            read_wav(path)
        assert str(exc.value) == f"{path}: sample 1000 is {value}; samples must be finite"


class TestWriteWav:
    def test_round_trip_exact(self, tmp_path):
        note = synthesize_note(NoteSpec("A4", 440.0, 0.1, 5), SR)
        path = tmp_path / "note.wav"
        write_wav(note, path)
        back = read_wav(path)
        # float32 out, float32 in: bit-identical after the float32 quantization
        np.testing.assert_array_equal(back.samples, note.samples.astype(np.float32))
        assert back.sample_rate == note.sample_rate

    def test_one_sample(self, tmp_path):
        path = tmp_path / "one.wav"
        write_wav(AudioBuffer(np.array([0.25]), 22050), path)
        back = read_wav(path)
        assert back.samples[0] == 0.25
        assert back.sample_rate == 22050

    def test_largest_rate_round_trips(self, tmp_path):
        path = tmp_path / "fast.wav"
        write_wav(AudioBuffer(np.array([0.25]), MAX_SAMPLE_RATE), path)
        assert read_wav(path).sample_rate == MAX_SAMPLE_RATE == wavfile.read(path)[0]

    @pytest.mark.parametrize("rate, frames", [
        (MAX_SAMPLE_RATE + 1, 1), (2_000_000_000, 1), (SR, MAX_WAV_DATA_BYTES // 4 + 1),
    ], ids=["rate-above-max", "rate-2e9", "data-above-max"])
    def test_header_overflow_is_refused(self, tmp_path, rate, frames):
        """Refused before a byte is written. The samples are one broadcast
        zero, so no 4 GiB array is made."""
        path = tmp_path / "big.wav"
        with pytest.raises(ValueError, match="overflow a WAV header") as exc:
            write_wav(AudioBuffer(np.broadcast_to(0.0, (frames,)), rate), path)
        assert str(exc.value).startswith(f"{path}: {rate} Hz and {4 * frames} bytes")
        assert not path.exists()

    def test_float_payload_survives_pipeline(self, tmp_path):
        # values outside [-1, 1] are legal in float WAVs (boosted EQ output)
        path = tmp_path / "hot.wav"
        write_wav(AudioBuffer(np.array([1.5, -2.0]), SR), path)
        np.testing.assert_array_equal(read_wav(path).samples, [1.5, -2.0])


# WAV files built byte by byte, for a table of what read_wav must read and
# for mutants of it. `_wav_file(data)` with no extras is the bytes
# `wavfile.write` writes.
GUID_TAIL = bytes.fromhex("000010008000 00aa00389b71")


def _chunk(chunk_id, body, size=None):
    size = len(body) if size is None else size
    return chunk_id + struct.pack("<I", size) + body + bytes(len(body) % 2)


def _fmt_body(data, rate, extensible):
    """The `fmt ` chunk body of int16 or float32 `data`, plain as
    `wavfile.write` writes it, or extensible (tag 0xFFFE, cbSize 22)."""
    tag = 3 if data.dtype == np.float32 else 1
    channels = 1 if data.ndim == 1 else data.shape[1]
    block = channels * data.itemsize
    base = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate,
                       rate * block, block, 8 * data.itemsize)
    if extensible:
        return base + struct.pack("<HHII", 22, 8 * data.itemsize, 3, tag) + GUID_TAIL
    return base + (b"\0\0" if tag == 3 else b"")


def _wav_layout(data, rate=SR, extensible=False, before=(), after=()):
    """The chunks of a WAV file of `data`, as a list of bytes: `fmt `, `fact`
    for float, the `before` chunks, `data`, then the `after` chunks."""
    chunks = [_chunk(b"fmt ", _fmt_body(data, rate, extensible))]
    if data.dtype == np.float32:
        chunks.append(_chunk(b"fact", struct.pack("<I", len(data))))
    return chunks + list(before) + [_chunk(b"data", data.tobytes())] + list(after)


def _wav_file(data, rate=SR, extensible=False, before=(), after=(), rf64=False):
    chunks = _wav_layout(data, rate, extensible, before, after)
    body = b"".join(chunks)
    if not rf64:
        return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    # RF64: the RIFF and data sizes live in the ds64 chunk, the 32-bit fields
    # hold 0xFFFFFFFF.
    body = body.replace(_chunk(b"data", data.tobytes()),
                        _chunk(b"data", data.tobytes(), 0xFFFFFFFF))
    ds64 = _chunk(b"ds64", struct.pack("<QQQI", 4 + 36 + len(body), data.nbytes,
                                       len(data), 0))
    return b"RF64" + b"\xff" * 4 + b"WAVE" + ds64 + body


def _samples(dtype, channels, frames=2001):
    x = np.sin(np.arange(frames * channels) * 0.37).reshape(frames, channels)
    data = (x * 32767).astype(np.int16) if dtype == "int16" else (1.5 * x).astype(np.float32)
    return data[:, 0] if channels == 1 else data


LIST = _chunk(b"LIST", b"INFOISFT\x05\x00\x00\x00eqrep\x00")
JUNK = _chunk(b"JUNK", bytes(28))
UNKNOWN = _chunk(b"abcd", b"\x01\x02\x03\x04")
ODD = _chunk(b"odd ", b"\x07\x07\x07")
WAV_TABLE = {
    f"{dtype}-{channels}ch-{layout}": _wav_file(
        _samples(dtype, channels), rate=22050 if channels == 2 else SR,
        extensible=layout in ("extensible", "rf64-extensible", "chunks-extensible"),
        before=(LIST, JUNK, UNKNOWN, ODD) if layout.startswith("chunks") else (),
        after=(ODD, LIST) if layout.startswith("chunks") else (),
        rf64=layout.startswith("rf64")) + (b"trailing" if layout == "trailing" else b"")
    for dtype in ("int16", "float32") for channels in (1, 2)
    for layout in ("plain", "extensible", "rf64", "rf64-extensible", "chunks",
                   "chunks-extensible", "trailing")
}


def test_plain_wav_table_files_are_scipys_bytes():
    for dtype in ("int16", "float32"):
        for channels in (1, 2):
            data = _samples(dtype, channels)
            written = io.BytesIO()
            wavfile.write(written, SR, data)
            assert _wav_file(data) == written.getvalue()


# The WAV code against the public `scipy.io.wavfile`, in a fresh interpreter
# and in both import orders: `write_wav` writes its bytes, and `read_wav`
# reads each file of WAV_TABLE as its documented conversion of
# `wavfile.read`.
WAV_BOTH_IMPORT_ORDERS = """
import sys, warnings
from pathlib import Path
import numpy as np
if sys.argv[1] == "scipy-first":
    import scipy.io.wavfile
from eqrep.audio import AudioBuffer, read_wav, write_wav
from scipy.io import wavfile

directory = Path(sys.argv[2])
same = []
for n in (1, 2, 3001):
    samples = np.sin(np.arange(n) * 0.61) * 1.5
    write_wav(AudioBuffer(samples, 22050), directory / "ours.wav")
    wavfile.write(directory / "theirs.wav", 22050, samples.astype(np.float32))
    same.append((directory / "ours.wav").read_bytes() == (directory / "theirs.wav").read_bytes())
for path in sorted(directory.glob("table-*.wav")):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)
        rate, public = wavfile.read(path)
    expected = (public.astype(np.float64) / 32768.0 if public.dtype == np.int16
                else public.astype(np.float64))
    if expected.ndim == 2:
        expected = expected.mean(axis=1)
    buffer = read_wav(path)
    same.append(buffer.sample_rate == rate and buffer.samples.tobytes() == expected.tobytes())
print(*same)
"""


@pytest.mark.parametrize("order", ["scipy-first", "eqrep-first"])
def test_wav_code_matches_scipy(tmp_path, order):
    for name, wav in WAV_TABLE.items():
        (tmp_path / f"table-{name}.wav").write_bytes(wav)
    assert run_fresh(WAV_BOTH_IMPORT_ORDERS, order, tmp_path).split() == \
        ["True"] * (3 + len(WAV_TABLE))


def _stricter_fields(chunks):
    """Byte ranges of the fields read_wav checks where `wavfile.read` does
    not, in the file of `chunks`: the `fmt ` size, block align and bits per
    sample, and the `data` size. A mutant that changes one of them may be
    read by scipy and refused by read_wav."""
    data = 12 + sum(len(c) for c in chunks[:-1])
    return [(16, 20), (32, 36), (data + 4, data + 8)]


MUTANT_BASES = [(dtype, channels, extensible) for dtype in ("int16", "float32")
                for channels in (1, 2) for extensible in (False, True)]
# The three optional steps of a mutant, drawn in this order.
MUTATIONS = {
    "overwrite": st.none() | st.tuples(st.integers(0, 76), st.binary(min_size=1, max_size=4)),
    "insert": st.none() | st.tuples(st.integers(0, 3),
                                    st.sampled_from([b"LIST", b"JUNK", b"fact", b"abcd"]),
                                    st.binary(max_size=5)),
    "cut": st.none() | st.integers(0, 120),
}


def _mutant(base, frames, overwrite, insert, cut):
    """A valid file of `frames` frames of `base`, overwritten in its header,
    given one more chunk, and cut, in that order, each step optional. Returns
    the bytes and four facts of them: whether it was cut or a field of
    _stricter_fields changed, whether its RIFF size field was overwritten,
    whether it was cut short, and whether only its last chunk's pad byte
    was cut."""
    dtype, channels, extensible = base
    data = _samples(dtype, channels, frames)
    chunks = _wav_layout(data, extensible=extensible)
    wav = bytearray(_wav_file(data, extensible=extensible))
    stricter = riff_size_changed = False
    if overwrite is not None:
        at, value = overwrite
        value = value[:max(0, len(wav) - at)]  # the part within the file
        stop = at + len(value)
        stricter = any(at < hi and lo < stop for lo, hi in _stricter_fields(chunks))
        riff_size_changed = at < 8 and 4 < stop
        wav[at:stop] = value
    if insert is not None:
        index, chunk_id, body = insert  # before fmt, before the last chunk, or at the end
        at = 12 + sum(len(c) for c in chunks[:[0, 1, len(chunks) - 1, len(chunks)][index]])
        wav[at:at] = _chunk(chunk_id, body)
        wav[4:8] = struct.pack("<I", (struct.unpack_from("<I", wav, 4)[0]
                                      + len(_chunk(chunk_id, body))) % 2 ** 32)
    cut_short = cut is not None and cut < len(wav)
    # A last chunk of odd size may lack its pad byte, as scipy allows too.
    pad_only = cut == len(wav) - 1 and insert is not None and insert[0] == 3 \
        and len(insert[2]) % 2
    if cut_short:
        del wav[cut:]
        stricter = True
    return bytes(wav), stricter, riff_size_changed, cut_short, pad_only


@settings(max_examples=400, deadline=None, database=None)
@seed(44100)
@given(base=st.sampled_from(MUTANT_BASES), frames=st.integers(1, 6), **MUTATIONS)
def test_read_wav_on_mutants_agrees_with_scipy(tmp_path_factory, base, frames, overwrite,
                                               insert, cut):
    """Mutants of valid files (_mutant). read_wav returns scipy's rate and
    samples under its conversion or raises ValueError starting with the
    path, and never reads a file scipy refuses. A mutant scipy reads without
    a warning, as int16 or float32 in 1 or 2 channels, is read, unless it
    was cut or a field of _stricter_fields changed; a cut mutant whose RIFF
    size is intact is refused, unless only the pad byte of its last chunk
    was cut."""
    wav, stricter, riff_size_changed, cut_short, pad_only = _mutant(base, frames, overwrite,
                                                                    insert, cut)
    path = tmp_path_factory.getbasetemp() / "mutant.wav"
    path.write_bytes(wav)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rate, public = wavfile.read(path)
        except Exception:
            public = None
    try:
        buffer = read_wav(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ") and "\n" not in str(exc)
        buffer = None
    if public is None:
        assert buffer is None
        return
    readable = (public.dtype in (np.int16, np.float32) and public.size > 0 and rate > 0
                and (public.ndim == 1 or public.shape[1] == 2))
    expected = None
    if readable:
        expected = (public.astype(np.float64) / 32768.0 if public.dtype == np.int16
                    else public.astype(np.float64))
        expected = expected.mean(axis=1) if expected.ndim == 2 else expected
    if cut_short and not riff_size_changed and not pad_only:
        assert buffer is None  # cut before the end its RIFF size gives
    if buffer is not None:
        assert expected is not None and buffer.sample_rate == rate
        assert buffer.samples.tobytes() == expected.tobytes()
    silent = not [w for w in caught if w.category is not ResourceWarning]
    if silent and readable and np.isfinite(expected).all() and not stricter:
        assert buffer is not None


def _patched(wav, at, fmt, value):
    return wav[:at] + struct.pack(fmt, value) + wav[at + struct.calcsize(fmt):]


PCM_MONO = _wav_file(_samples("int16", 1, 8))  # `fmt ` body at 20, `data` at 36
FLOAT_MONO = _wav_file(_samples("float32", 1, 8))  # `fmt ` body at 20, `data` at 50
# Files read_wav refuses, each with the start of its message after the path.
# wavfile.read refuses the last three and reads the others, with a warning
# where the file is cut before the end its RIFF size gives or its data size
# is odd.
REFUSED = {
    "cut-in-data": (FLOAT_MONO[:-5], "file ends at byte 85, inside chunk 'data' at byte 50"),
    "cut-mid-sample": (PCM_MONO[:-1], "file ends at byte 59, inside chunk 'data' at byte 36"),
    "cut-after-data": (_wav_file(_samples("float32", 1, 8),
                                 after=[_chunk(b"LIST", bytes(8))])[:-2],
                       "file ends at byte 104, inside chunk 'LIST' at byte 90"),
    "riff-size-past-the-end": (_patched(PCM_MONO, 4, "<I", len(PCM_MONO)),
                               "file ends at byte 60, inside the chunk header at byte 60"),
    "odd-data-size": (_patched(PCM_MONO, 40, "<I", 15),
                      "'data' chunk of 15 bytes; expected a positive whole number of 2-byte"),
    "12-bit-pcm": (_patched(PCM_MONO, 34, "<H", 12),
                   "unsupported sample format: 1 channel(s) of 12 bits"),
    "64-bit-float-tag-in-4-bytes": (_patched(FLOAT_MONO, 34, "<H", 64),
                                    "unsupported sample format: 1 channel(s) of 64 bits"),
    "float-stereo-block-align-9": (_patched(_wav_file(_samples("float32", 2, 8)), 32, "<H", 9),
                                   "unsupported sample format: 2 channel(s) of 32 bits (format "
                                   "tag 0x0003) in 9-byte frames"),
    "zero-rate": (_patched(FLOAT_MONO, 24, "<I", 0), "sample rate 0"),
    "second-data-chunk": (_wav_file(_samples("int16", 1, 8),
                                    after=[_chunk(b"data", bytes(4))]),
                          "expected one 'fmt ' chunk, then one 'data' chunk"),
    "data-before-fmt": (b"RIFF" + struct.pack("<I", 4 + len(PCM_MONO) - 12) + b"WAVE"
                        + PCM_MONO[36:] + PCM_MONO[12:36],
                        "expected one 'fmt ' chunk, then one 'data' chunk"),
    "big-endian-rifx": (b"RIFX" + PCM_MONO[4:], "not a little-endian RIFF or RF64 WAVE file"),
    "rf64-without-ds64": (b"RF64" + PCM_MONO[4:], "RF64 file without a ds64 chunk"),
}


@pytest.mark.parametrize("name", REFUSED)
def test_read_wav_refuses(tmp_path, name):
    wav, message = REFUSED[name]
    path = tmp_path / f"{name}.wav"
    path.write_bytes(wav)
    with pytest.raises(ValueError) as exc:
        read_wav(path)
    assert str(exc.value).startswith(f"{path}: {message}") and "\n" not in str(exc.value)


class TestAudioBuffer:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([]), SR)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([0.1]), 0)


class TestSynthesizeNote:
    def test_pure_sine_peak(self):
        buf = synthesize_note(NoteSpec("X", 1000.0, 0.5, 1), SR)
        assert abs(np.max(np.abs(buf.samples)) - 0.9) < 1e-6

    def test_deterministic(self):
        spec = NoteSpec("C4", 261.63, 0.3, 10)
        a = synthesize_note(spec, SR)
        b = synthesize_note(spec, SR)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_single_partial_centroid(self):
        # DFT oracle: the centroid of a pure 1 kHz sine sits within one bin
        buf = synthesize_note(NoteSpec("X", 1000.0, 0.5, 1), SR)
        cent = extract_features(buf).centroid_hz
        assert abs(cent - 1000.0) < SR / 2048

    @pytest.mark.parametrize("duration", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration_s"):
            NoteSpec("X", 1000.0, duration)

    @pytest.mark.parametrize("fundamental", [0.0, -1.0, float("nan")])
    def test_bad_fundamental_rejected(self, fundamental):
        with pytest.raises(ValueError, match="fundamental_hz"):
            NoteSpec("X", fundamental, 0.01, 3)

    def test_aliasing_rejected(self):
        with pytest.raises(ValueError, match="Nyquist"):
            synthesize_note(NoteSpec("X", 15000.0, 0.1, 2), SR)

    def test_peak_invariant(self):
        for partials in (1, 5, 20):
            buf = synthesize_note(NoteSpec("X", 220.0, 0.2, partials), SR)
            assert abs(np.max(np.abs(buf.samples)) - 0.9) < 1e-6

    @pytest.mark.parametrize("spec, sample_rate", [
        (NoteSpec("C2", pitch_to_hz("C2"), 0.5, 300), SR),
        (NoteSpec("G4", pitch_to_hz("G4"), 0.37, 20), 22050),
        (NoteSpec("G7", pitch_to_hz("G7"), 0.2, 3), SR),
        # block edges: one block, one block and a sample, three blocks and a short tail
        *((NoteSpec("C3", pitch_to_hz("C3"), samples / rate, 40), rate)
          for rate in (22050, SR)
          for samples in (BLOCK_SAMPLES, BLOCK_SAMPLES + 1, 3 * BLOCK_SAMPLES + 7)),
    ], ids=["C2-300", "G4-22k", "G7-3",
            *(f"{edge}-{rate}" for rate in ("22k", "44k")
              for edge in ("one-block", "block+1", "3-blocks+7"))])
    def test_matches_per_partial_oracle(self, spec, sample_rate):
        # the same arithmetic in the same order, so the bytes agree
        np.testing.assert_array_equal(synthesize_note(spec, sample_rate).samples,
                                      oracles.note_samples(spec, sample_rate))

    def test_memory_does_not_grow_with_the_note(self):
        # Beyond the samples it returns, a render holds one block's time axis
        # and partial; the whole-note render held three more note-sized arrays.
        extra = {}
        for duration in (4.0, 16.0):
            spec = NoteSpec("C2", pitch_to_hz("C2"), duration, 20)
            tracemalloc.start()
            try:
                samples = synthesize_note(spec, SR).samples
                extra[duration] = tracemalloc.get_traced_memory()[1] - samples.nbytes
            finally:
                tracemalloc.stop()
        assert extra[16.0] <= extra[4.0] + (64 << 10)
        assert extra[16.0] <= 4 * BLOCK_SAMPLES * 8


class TestPitchParsing:
    def test_a4_is_440(self):
        assert pitch_to_hz("A4") == 440.0

    def test_c4(self):
        # 440 * 2^((60-69)/12)
        assert abs(pitch_to_hz("C4") - 261.6255653005986) < 1e-9

    def test_midi_reference(self):
        assert pitch_to_midi("C4") == 60
        assert pitch_to_midi("A4") == 69
        assert pitch_to_midi("C#4") == 61
        assert pitch_to_midi("Bb3") == 58

    @pytest.mark.parametrize("label", ["", "H4", "C", "C#x", "4C"])
    def test_bad_labels(self, label):
        with pytest.raises(ValueError):
            pitch_to_hz(label)

    @pytest.mark.parametrize("label", ["C1020", "B#1019", "C10000", "C" + "9" * 400])
    def test_overflowing_frequency_is_refused_by_name(self, label):
        with pytest.raises(ValueError, match=f"^pitch label '{label}': frequency overflows"):
            pitch_to_hz(label)

    def test_largest_finite_frequency_is_kept(self):
        assert pitch_to_hz("B1019") == 440.0 * 2.0 ** ((pitch_to_midi("B1019") - 69) / 12.0)
        assert pitch_to_hz("Cb1020") == pitch_to_hz("B1019") < float("inf")


class TestNoteCorpus:
    def test_default_has_16_notes(self):
        corpus = note_corpus(duration_s=0.05)
        assert len(corpus) == 16
        assert [label for label, _ in corpus] == DEFAULT_PITCHES

    def test_partials_below_nyquist(self):
        for label in DEFAULT_PITCHES:
            f0 = pitch_to_hz(label)
            partials = min(20, max_alias_free_partials(f0, SR))
            assert f0 * partials < SR / 2

    def test_repeated_label_rejected(self):
        with pytest.raises(ValueError, match=r"^corpus repeats note label\(s\) C4$"):
            note_corpus(["C4", "G4", "C4"], duration_s=0.01)

    def test_bad_label_propagates(self):
        with pytest.raises(ValueError):
            note_corpus(["Z9"])
