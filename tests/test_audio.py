import numpy as np
import pytest
from scipy.io import wavfile

import oracles
from eqrep.audio import (AudioBuffer, NoteSpec, max_alias_free_partials,
                         note_corpus, pitch_to_hz, pitch_to_midi, read_wav,
                         synthesize_note, write_wav, DEFAULT_PITCHES)
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

    def test_float_payload_survives_pipeline(self, tmp_path):
        # values outside [-1, 1] are legal in float WAVs (boosted EQ output)
        path = tmp_path / "hot.wav"
        write_wav(AudioBuffer(np.array([1.5, -2.0]), SR), path)
        np.testing.assert_array_equal(read_wav(path).samples, [1.5, -2.0])


# The WAV code loaded by file against the public `scipy.io.wavfile`, in a
# fresh interpreter and in both import orders: `write_wav` writes its bytes,
# and `read_wav` reads what it wrote as its documented conversion of
# `wavfile.read`.
WAV_BOTH_IMPORT_ORDERS = """
import sys
from pathlib import Path
import numpy as np
if sys.argv[1] == "scipy-first":
    import scipy.io.wavfile
from eqrep.audio import AudioBuffer, read_wav, write_wav, wavfile as loaded
from scipy.io import wavfile

directory = Path(sys.argv[2])
rng = np.random.default_rng(9)
samples = rng.uniform(-1.5, 1.5, 3001)
write_wav(AudioBuffer(samples, 22050), directory / "ours.wav")
wavfile.write(directory / "theirs.wav", 22050, samples.astype(np.float32))
same = [(directory / "ours.wav").read_bytes() == (directory / "theirs.wav").read_bytes()]
files = {"int16": rng.integers(-32768, 32768, 2001).astype(np.int16),
         "float32": rng.uniform(-1.5, 1.5, 2001).astype(np.float32),
         "stereo": rng.integers(-32768, 32768, (2001, 2)).astype(np.int16)}
for name, data in files.items():
    path = directory / f"{name}.wav"
    wavfile.write(path, 44100, data)
    rate, public = wavfile.read(path)
    ours_rate, ours = loaded.read(path)
    same.append(rate == ours_rate and ours.dtype == public.dtype
                and ours.shape == public.shape and ours.tobytes() == public.tobytes())
    expected = public / 32768.0 if public.dtype == np.int16 else public.astype(np.float64)
    if expected.ndim == 2:
        expected = expected.mean(axis=1)
    buffer = read_wav(path)
    same.append(buffer.sample_rate == rate and buffer.samples.tobytes() == expected.tobytes())
print(*same)
"""


@pytest.mark.parametrize("order", ["scipy-first", "eqrep-first"])
def test_wav_code_matches_scipy(tmp_path, order):
    assert run_fresh(WAV_BOTH_IMPORT_ORDERS, order, tmp_path).split() == ["True"] * 7


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
    ], ids=["C2-300", "G4-22k", "G7-3"])
    def test_matches_per_partial_oracle(self, spec, sample_rate):
        # the same arithmetic in the same order, so the bytes agree
        np.testing.assert_array_equal(synthesize_note(spec, sample_rate).samples,
                                      oracles.note_samples(spec, sample_rate))


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
