import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from eqrep.audio import AudioBuffer, NoteSpec, synthesize_note
from eqrep.eq import apply_eq
from eqrep.features import (BLOCK_FRAMES, FEATURE_DIM, LOG_FLOOR, MFCC_DCT, ROLLOFF_FRACTION,
                            ROLLOFF_SEGMENT, StftConfig, _magnitudes, analysis_constants,
                            centroid_and_bandwidth, extract_features, fft_bin_freqs,
                            frame_signal, frequency_moments, hann_window, hz_to_mel,
                            mel_bands, mel_filterbank, mel_log_energies, mel_to_hz,
                            spectral_rolloff)
from fresh import run_fresh

SR = 44100


class TestStftConfig:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            StftConfig(1000, 500)

    def test_rejects_bad_hop(self):
        with pytest.raises(ValueError):
            StftConfig(2048, 4096)


def _spectra(buf, config):
    """The magnitude spectra extract_features computes, for every frame."""
    window = analysis_constants(buf.sample_rate, config.frame_size)[0]
    return _magnitudes(frame_signal(buf.samples, config), window)


class TestStft:
    def test_dc_buffer_window_gain(self):
        buf = AudioBuffer(np.ones(2048), SR)
        mags = _spectra(buf, StftConfig(2048, 512))
        assert mags.shape == (1, 1025)
        assert mags[0, 0] == pytest.approx(hann_window(2048).sum(), rel=1e-12)
        assert mags[0, 0] == pytest.approx(1024.0, rel=1e-9)
        assert np.max(mags[0, 2:]) < 1e-9 * mags[0, 0]

    def test_sine_at_bin_frequency(self):
        f = 32 * SR / 2048
        t = np.arange(2048) / SR
        buf = AudioBuffer(np.sin(2 * np.pi * f * t), SR)
        mags = _spectra(buf, StftConfig(2048, 512))[0]
        lobe = mags[31:34] ** 2
        assert lobe.sum() / (mags ** 2).sum() > 0.99

    def test_single_frame_count(self):
        assert frame_signal(np.ones(2048), StftConfig(2048, 512)).shape == (1, 2048)
        assert frame_signal(np.ones(2048 + 512), StftConfig(2048, 512)).shape == (2, 2048)

    def test_too_short_buffer(self):
        with pytest.raises(ValueError,
                           match=r"^buffer of 100 samples is shorter than one frame \(2048\)$"):
            frame_signal(np.ones(100), StftConfig(2048, 512))
        with pytest.raises(ValueError):
            extract_features(AudioBuffer(np.ones(100), SR))


def spectral_centroid(mags, freqs):
    return centroid_and_bandwidth(mags, frequency_moments(freqs))[0]


def spectral_bandwidth(mags, freqs):
    return centroid_and_bandwidth(mags, frequency_moments(freqs))[1]


class TestFrameStats:
    """The pass's pieces take a (frames, bins) block, as extract_features
    passes them, and return one value per frame: centroid and bandwidth from
    the magnitudes, rolloff from their squares."""

    def test_centroid_point_mass(self):
        mags = np.zeros((1, 11))
        mags[0, 5] = 2.0
        freqs = np.arange(11) * 200.0  # bin 5 -> 1000 Hz
        assert spectral_centroid(mags, freqs).tolist() == [1000.0]

    def test_centroid_symmetry(self):
        freqs = np.array([500.0, 1500.0])
        assert spectral_centroid(np.array([[1.0, 1.0]]), freqs).tolist() == [1000.0]

    def test_centroid_weighted(self):
        freqs = np.array([100.0, 300.0])
        cent = spectral_centroid(np.array([[1.0, 3.0], [3.0, 1.0]]), freqs)
        np.testing.assert_allclose(cent, [250.0, 150.0], rtol=1e-12)

    def test_centroid_zero_frame(self):
        mags = np.zeros((2, 4))
        mags[1, 1] = 1.0
        assert spectral_centroid(mags, np.arange(4.0)).tolist() == [0.0, 1.0]

    def test_bandwidth_point_mass(self):
        mags = np.zeros((1, 4))
        mags[0, 2] = 1.0
        bw = spectral_bandwidth(mags, np.arange(4.0) * 100)
        assert bw.tolist() == [0.0]

    def test_bandwidth_symmetric_pair(self):
        freqs = np.array([500.0, 1500.0])
        bw = spectral_bandwidth(np.array([[1.0, 1.0]]), freqs)
        assert bw.tolist() == [500.0]

    def test_bandwidth_weighted(self):
        freqs = np.array([100.0, 300.0])
        bw = spectral_bandwidth(np.array([[1.0, 3.0]]), freqs)
        np.testing.assert_allclose(bw, [np.sqrt(7500.0)], rtol=1e-12)

    def test_rolloff_single_bin(self):
        mags = np.zeros((1, 8))
        mags[0, 4] = 3.0
        freqs = np.arange(8) * 500.0
        assert spectral_rolloff(mags ** 2, freqs).tolist() == [2000.0]

    def test_rolloff_equal_bins(self):
        mags = np.ones((2, 10))
        mags[1] = 0.0
        freqs = np.arange(10.0)
        # cumulative energy reaches 85% at the 9th bin (index 8); a silent frame reads 0
        assert spectral_rolloff(mags ** 2, freqs).tolist() == [8.0, 0.0]


@pytest.mark.parametrize("sample_rate, frame_size", [(22050, 2048), (44100, 2048),
                                                     (44100, 8192), (192000, 512)])
def test_bandwidth_of_one_bin_is_rounding(sample_rate, frame_size):
    """A one-bin spectrum has no spread, but the moment form computes it as
    E[f²] − E[f]², a difference of rounded values. At any magnitude whose f²
    multiple stays a normal float, in any bin, it stays finite and ≥ 0, and
    below 2·sqrt(eps)·f: to first order, the roundings in that difference
    add up to at most 4·eps·f². Measured at most 2.43e-8·f over five
    geometries (8 to 192 kHz, frames 512 to 8192) and magnitudes from
    1e-150 to 7.9e150."""
    freqs = fft_bin_freqs(frame_size, sample_rate)
    moments = frequency_moments(freqs)
    bound = 2 * math.sqrt(np.finfo(float).eps) * freqs
    for magnitude in [1.0, 3.0, 0.1, 1.37e-150, 7.9e150, 1e-3, 2048.0]:
        mags = np.diag(np.full(len(freqs), magnitude))
        centroid, bandwidth = centroid_and_bandwidth(mags, moments)
        assert np.all(np.isfinite(bandwidth)) and np.all(bandwidth >= 0)
        assert np.all(bandwidth <= bound)
        np.testing.assert_allclose(centroid, freqs, rtol=1e-15, atol=0)


class TestRolloffSegments:
    """The rolloff finds the crossing's segment of ROLLOFF_SEGMENT bins first,
    then the bin within it. On exact sums it reads the bin of the running sum
    at every segment edge; the last two tests build the rounding cases."""

    @staticmethod
    def _oracle(power, freqs):
        return [oracles.rolloff(np.sqrt(row).tolist(), freqs.tolist(), ROLLOFF_FRACTION)
                for row in power]

    def test_crossing_in_the_one_bin_last_segment(self):
        freqs = fft_bin_freqs(2048, 22050)
        assert len(freqs) == 32 * ROLLOFF_SEGMENT + 1
        power = np.ones((2, len(freqs)))
        power[0, -1] = 1e4  # 85 % lies in the last bin, alone in its segment
        power[1, -1] = 180.0  # cumulative 1 204 at the end; 85 % is 1 023.4
        assert spectral_rolloff(power, freqs).tolist() == [freqs[-1], freqs[-2]]
        assert spectral_rolloff(power, freqs).tolist() == self._oracle(power, freqs)

    @pytest.mark.parametrize("rest, expected", [(5.0, 31), (6.0, 32)])
    def test_crossing_on_a_segment_boundary(self, rest, expected):
        """32 unit bins, then `rest` more power: the 85 % point of 37 is
        31.45, reached at the segment's last bin (31); with a unit bin 32
        and 5 more beyond, it is 32.3, reached at the next segment's first."""
        power = np.zeros((1, 4 * ROLLOFF_SEGMENT))
        power[0, :32] = 1.0
        if expected == 32:
            power[0, 32], rest = 1.0, rest - 1.0
        power[0, 50] = rest
        freqs = np.arange(power.shape[1]) * 10.0
        assert spectral_rolloff(power, freqs).tolist() == [10.0 * expected]
        assert self._oracle(power, freqs) == [10.0 * expected]

    def test_two_bins_are_less_than_one_segment(self):
        freqs = fft_bin_freqs(2, 22050)
        assert freqs.tolist() == [0.0, 11025.0]
        power = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        assert spectral_rolloff(power, freqs).tolist() == [0.0, 11025.0, 11025.0, 0.0]
        assert spectral_rolloff(power, freqs).tolist() == self._oracle(power, freqs)

    def test_all_zero_frame_reads_zero(self):
        freqs = fft_bin_freqs(2048, 44100)
        power = np.zeros((3, len(freqs)))
        power[1, 700] = 1.0
        assert spectral_rolloff(power, freqs).tolist() == [0.0, freqs[700], 0.0]

    def test_rounding_past_the_segment_end_takes_its_last_bin(self):
        """Segment 0 holds 32 powers whose segment sum rounds above their
        sequential running sum; the rest of the power sits in bin 32, sized so
        that the threshold falls between the two. The segment search then
        picks segment 0, whose running sum never reaches the threshold, and
        the rolloff is the segment's last bin."""
        rng = np.random.default_rng(0)
        power = np.zeros((1, 2 * ROLLOFF_SEGMENT))
        starts = np.arange(0, power.shape[1], ROLLOFF_SEGMENT)
        for _ in range(100):
            power[0, :32] = rng.uniform(0.5, 1.5, 32)
            segment_sum, running_sum = np.add.reduceat(power, starts, axis=1)[0, 0], \
                np.cumsum(power[0, :32])[-1]
            rest = segment_sum * (1 / ROLLOFF_FRACTION - 1)
            for step in range(-64, 64):
                power[0, 32] = rest + step * np.spacing(rest)
                total = np.add.reduceat(power, starts, axis=1)[0].cumsum()[-1]
                if running_sum < ROLLOFF_FRACTION * total <= segment_sum:
                    break
            else:
                continue
            break
        assert running_sum < ROLLOFF_FRACTION * total <= segment_sum
        freqs = np.arange(power.shape[1]) * 10.0
        assert spectral_rolloff(power, freqs).tolist() == [310.0]

    def test_short_last_segment_never_reads_past_the_last_bin(self):
        """Eight powers near the float maximum in a short last segment: their
        segment sum overflows, so the threshold is infinite, but their running
        sum does not. The search passes the segment's end and stops at the
        spectrum's last bin."""
        power = np.zeros((1, ROLLOFF_SEGMENT + 8))
        power[0, 32:] = [2.7148363350903626e+307, 3.612870906234837e+307,
                         2.8252553318158753e+307, 1.6257057974109924e+307,
                         3.410061911579685e+307, 1.1871093961019778e+306,
                         2.002736974026663e+307, 1.666753152854543e+307]
        freqs = np.arange(power.shape[1]) * 10.0
        with np.errstate(over="ignore"):
            assert np.isinf(np.add.reduceat(power[0], [0, 32])[1])
            assert np.isfinite(np.cumsum(power[0])[-1])
            assert spectral_rolloff(power, freqs).tolist() == [390.0]


# Blocks of 1-4 frames of 2-200 bins (up to 7 rolloff segments), magnitudes
# in [0, 1000]; the strategy's fill value makes many flat rows.
BLOCKS = st.integers(1, 4).flatmap(lambda frames: st.integers(2, 200).flatmap(
    lambda bins: hnp.arrays(np.float64, (frames, bins),
                            elements=st.floats(0.0, 1e3, allow_subnormal=False))))


@settings(max_examples=200, deadline=None, database=None)
@seed(2048)
@given(mags=BLOCKS)
def test_block_stats_match_the_oracle_loops(mags):
    """Centroid, bandwidth and rolloff of random blocks against the plain
    loops of `oracles`.

    - Centroid: relative error at most 5e-14, about the error bound of a sum
      of 200 non-negative terms (200·eps). Measured at most 8.8e-15 over
      12 000 such blocks.
    - Bandwidth: its square, E[f²] − E[f]², within 5e-14 of the mean square
      frequency E[f²], against which the moment form rounds. Measured at most
      6.7e-15 over the same blocks.
    - Rolloff: the oracle's bin. The pass sums in another order than the
      oracle's running sum, so where the 85 % point ties a cumulative sum to
      rounding (within bins·eps of the total; flat rows do this), it may read
      the bin next to it. Measured: every difference over the same blocks was
      one bin, at a tie within 2.3e-15 of the total."""
    freqs = np.arange(mags.shape[1]) * (22050 / 2048)
    centroid, bandwidth = centroid_and_bandwidth(mags, frequency_moments(freqs))
    rolloff = spectral_rolloff(mags ** 2, freqs)
    eps = np.finfo(float).eps
    for row, cent, bw, roll in zip(mags.tolist(), centroid, bandwidth, rolloff):
        total = sum(row)
        want_cent = oracles.centroid(row, freqs.tolist())
        want_bw = oracles.bandwidth(row, freqs.tolist(), want_cent)
        mean_square = sum(m * f * f for m, f in zip(row, freqs.tolist())) / total if total else 0
        assert abs(cent - want_cent) <= 5e-14 * want_cent
        assert abs(bw ** 2 - want_bw ** 2) <= 5e-14 * mean_square
        want_roll = oracles.rolloff(row, freqs.tolist(), ROLLOFF_FRACTION)
        if roll != want_roll:
            power = np.square(row)
            running = np.cumsum(power)
            lower = round(min(roll, want_roll) / freqs[1])
            assert abs(roll - want_roll) == freqs[1]
            assert abs(running[lower] - ROLLOFF_FRACTION * running[-1]) <= \
                len(row) * eps * running[-1]


BLAS_THREADS_ROWS = """
import sys
from eqrep.audio import NoteSpec, synthesize_note
from eqrep.eq import apply_eq
from eqrep.features import StftConfig, extract_features
note = synthesize_note(NoteSpec("C2", 65.40639132514966, 1.0, 150), 22050)
buffer = apply_eq(note, [6, -3, 0, 4, -6])
for frame_size in (2048, 8192):
    print(extract_features(buffer, StftConfig(frame_size, frame_size // 4)).to_array().tobytes().hex())
"""


def test_feature_bytes_do_not_depend_on_blas_threads():
    """The pass makes no BLAS call: in fresh interpreters with one and with two
    OpenBLAS threads, the rows at frame sizes 2048 and 8192 are bitwise equal."""
    rows = [run_fresh(BLAS_THREADS_ROWS, env={"OPENBLAS_NUM_THREADS": threads}).split()
            for threads in ("1", "2")]
    assert len(rows[0]) == 2 and rows[0] == rows[1]


class TestMelFilterbank:
    def test_htk_formula(self):
        assert hz_to_mel(700.0) == pytest.approx(2595 * np.log10(2), rel=1e-12)
        assert hz_to_mel(0.0) == 0.0
        assert mel_to_hz(hz_to_mel(1234.5)) == pytest.approx(1234.5, rel=1e-12)

    def test_triangle_shape(self):
        bank = mel_filterbank(40, 2048, SR)
        assert bank.shape == (40, 1025)
        assert np.all(bank >= 0) and np.all(bank <= 1)
        for row in bank:
            assert np.count_nonzero(row == row.max()) == 1

    def test_too_many_filters(self):
        with pytest.raises(ValueError):
            mel_filterbank(1000, 2048, SR)


class TestMelBands:
    @pytest.mark.parametrize("sample_rate", [22050, 44100])
    @pytest.mark.parametrize("frame_size", [512, 1024, 2048, 4096])
    def test_banded_equals_dense(self, sample_rate, frame_size):
        bank = mel_filterbank(40, frame_size, sample_rate)
        rng = np.random.default_rng(frame_size + sample_rate)
        mags = np.abs(rng.standard_normal((2 * BLOCK_FRAMES, bank.shape[1])))
        mags[3] = 0.0
        mags[BLOCK_FRAMES:BLOCK_FRAMES + 4] = 0.0
        dense = np.log(mags ** 2 @ bank.T + LOG_FLOOR)
        banded = mel_log_energies(mags ** 2, mel_bands(bank))
        np.testing.assert_allclose(banded, dense, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(banded[3], np.log(LOG_FLOOR))
        # one frame as a 1-D spectrum gives the same row
        np.testing.assert_array_equal(mel_log_energies(mags[5] ** 2, mel_bands(bank)), banded[5])

    @pytest.mark.parametrize("frame_size", [512, 2048])
    def test_at_most_two_filters_per_bin(self, frame_size):
        bank = mel_filterbank(40, frame_size, 22050)
        assert np.count_nonzero(bank, axis=0).max() <= 2
        cols, weights, starts = mel_bands(bank)
        assert len(cols) == len(weights) == np.count_nonzero(bank) <= 2 * bank.shape[1]
        assert starts[0] == 0 and np.all(np.diff(starts) > 0)

    def test_three_overlapping_filters_rejected(self):
        with pytest.raises(ValueError, match="more than two"):
            mel_bands(np.ones((3, 8)))


class TestMfcc:
    def test_near_silence_has_flat_cepstrum(self):
        rng = np.random.default_rng(0)
        buf = AudioBuffer(1e-12 * rng.standard_normal(8192), SR)
        coeffs = extract_features(buf, StftConfig(2048, 512)).mfcc_mean
        # the log floor dominates every mel band, so AC terms vanish
        assert np.max(np.abs(coeffs[1:])) < 1e-3 * abs(coeffs[0])

    def test_tilt_shows_in_first_coefficient(self):
        rng = np.random.default_rng(1)
        flat = AudioBuffer(0.1 * rng.standard_normal(8192), SR)
        # strong spectral tilt: integrate white noise (1/f emphasis)
        tilted = AudioBuffer(np.cumsum(flat.samples) * 0.01, SR)
        config = StftConfig(2048, 512)
        c_flat = extract_features(flat, config).mfcc_mean
        c_tilted = extract_features(tilted, config).mfcc_mean
        assert abs(c_flat[1]) < abs(c_tilted[1])

    def test_deterministic(self, noise_buffer):
        a = extract_features(noise_buffer, StftConfig(2048, 512)).mfcc_mean
        b = extract_features(noise_buffer, StftConfig(2048, 512)).mfcc_mean
        np.testing.assert_array_equal(a, b)


def test_dct_matrix_matches_the_direct_sum():
    """`MFCC_DCT` is read-only, and applied to 40-vectors of the size of
    mean log mel energies it gives the direct DCT-II sum's first 13
    coefficients."""
    assert MFCC_DCT.shape == (13, 40) and not MFCC_DCT.flags.writeable
    for v in 10 * np.random.default_rng(10).standard_normal((5, 40)):
        np.testing.assert_allclose(MFCC_DCT @ v, oracles.dct2_ortho(v)[:13], rtol=0, atol=1e-12)


class TestRms:
    def test_constant_buffer(self):
        buf = AudioBuffer(np.full(4096, 0.5), SR)
        assert extract_features(buf, StftConfig(2048, 512)).rms == pytest.approx(0.5)

    def test_full_scale_sine(self):
        t = np.arange(SR) / SR
        buf = AudioBuffer(np.sin(2 * np.pi * 1000 * t), SR)
        rms = extract_features(buf, StftConfig(2048, 512)).rms
        assert rms == pytest.approx(2 ** -0.5, abs=1e-3)

    def test_homogeneity(self, noise_buffer):
        config = StftConfig(2048, 512)
        doubled = AudioBuffer(2 * noise_buffer.samples, SR)
        rms = extract_features(noise_buffer, config).rms
        assert extract_features(doubled, config).rms == pytest.approx(2 * rms)


class TestExtractFeatures:
    def test_dimension(self, noise_buffer):
        fv = extract_features(noise_buffer)
        assert fv.to_array().shape == (FEATURE_DIM,)

    def test_high_shelf_boost_raises_centroid(self, c2_note):
        flat = extract_features(c2_note)
        boosted = extract_features(apply_eq(c2_note, [0, 0, 0, 0, 12]))
        assert boosted.centroid_hz > flat.centroid_hz

    def test_low_shelf_cut_lowers_rms(self):
        low_note = synthesize_note(NoteSpec("C1", 32.70319566257483, 1.0, 20), SR)
        flat = extract_features(low_note)
        cut = extract_features(apply_eq(low_note, [-12, 0, 0, 0, 0]))
        assert cut.rms < flat.rms

    def test_pure_function(self, noise_buffer):
        a = extract_features(noise_buffer).to_array()
        b = extract_features(noise_buffer).to_array()
        np.testing.assert_array_equal(a, b)

    def test_ranges(self, c2_note):
        fv = extract_features(c2_note)
        nyquist = SR / 2
        assert 0 <= fv.centroid_hz <= nyquist
        assert 0 <= fv.rolloff_hz <= nyquist
        assert fv.bandwidth_hz >= 0 and fv.rms >= 0

    @pytest.mark.parametrize("scale", [0.5, 2.0, 7.0])
    def test_amplitude_invariance(self, noise_buffer, scale):
        config = StftConfig(2048, 512)
        base = extract_features(noise_buffer, config)
        scaled = extract_features(
            AudioBuffer(scale * noise_buffer.samples, SR), config)
        assert scaled.centroid_hz == pytest.approx(base.centroid_hz, rel=1e-9)
        assert scaled.bandwidth_hz == pytest.approx(base.bandwidth_hz, rel=1e-9)
        assert scaled.rolloff_hz == base.rolloff_hz
        assert scaled.rms == pytest.approx(scale * base.rms, rel=1e-9)
        # mfcc 0 shifts by a constant; 1..12 are scale-invariant
        np.testing.assert_allclose(scaled.mfcc_mean[1:], base.mfcc_mean[1:], atol=1e-6)
        assert abs(scaled.mfcc_mean[0] - base.mfcc_mean[0]) > 0.01


class TestAnalysisConstants:
    def test_cached_read_only(self):
        window, freqs, moments, bands = analysis_constants(SR, 2048)
        again = analysis_constants(SR, 2048)
        assert again[0] is window and again[1] is freqs and again[2] is moments
        assert again[3] is bands
        np.testing.assert_array_equal(window, hann_window(2048))
        np.testing.assert_array_equal(freqs, fft_bin_freqs(2048, SR))
        np.testing.assert_array_equal(moments, [np.ones(1025), freqs, freqs ** 2])
        fresh = mel_bands(mel_filterbank(40, 2048, SR))
        assert len(bands) == len(fresh) == 3
        for cached, built in zip(bands, fresh):
            np.testing.assert_array_equal(cached, built)
        for array in (window, freqs, moments, *bands):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_rate_switch_is_bit_identical(self, noise_buffer):
        low = AudioBuffer(noise_buffer.samples, 22050)
        first = extract_features(low).to_array()
        high = extract_features(noise_buffer).to_array()
        again = extract_features(low).to_array()
        np.testing.assert_array_equal(again, first)
        assert not np.array_equal(high, first)


class TestOracleEquivalence:
    def test_against_brute_force(self):
        config = StftConfig(1024, 256)
        rng = np.random.default_rng(99)
        for _ in range(3):
            samples = 0.2 * rng.standard_normal(3000)
            fast = extract_features(AudioBuffer(samples, SR), config).to_array()
            slow = oracles.feature_vector(samples, SR, 1024, 256)
            np.testing.assert_allclose(fast, slow, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("zero_run", [False, True])
    def test_across_block_edges(self, zero_run):
        """80 frames: two full blocks of the feature pass and a partial one."""
        config = StftConfig(2048, 512)
        samples = 0.2 * np.random.default_rng(98).standard_normal(2048 + 79 * 512)
        if zero_run:
            samples[40 * 512:44 * 512 + 2048] = 0.0  # frames 40..44, inside block 2
        count = len(frame_signal(samples, config))
        assert count == 80 and 2 * BLOCK_FRAMES < count < 3 * BLOCK_FRAMES
        fast = extract_features(AudioBuffer(samples, SR), config).to_array()
        slow = oracles.feature_vector(samples, SR, 2048, 512)
        np.testing.assert_allclose(fast, slow, rtol=1e-6, atol=1e-9)
