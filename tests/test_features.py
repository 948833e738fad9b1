import numpy as np
import pytest

import oracles
from eqrep.audio import AudioBuffer, NoteSpec, synthesize_note
from eqrep.eq import apply_eq
from eqrep.features import (BLOCK_FRAMES, FEATURE_DIM, LOG_FLOOR, MFCC_DCT, StftConfig,
                            _magnitudes, analysis_constants, extract_features,
                            fft_bin_freqs, frame_signal, hann_window, hz_to_mel,
                            mel_bands, mel_filterbank, mel_log_energies, mel_to_hz,
                            spectral_bandwidth, spectral_centroid, spectral_rolloff)

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
    window, _, _ = analysis_constants(buf.sample_rate, config.frame_size)
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


class TestFrameStats:
    """The stage functions take a (frames, bins) block, as extract_features
    passes them, and return one value per frame."""

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
        bw = spectral_bandwidth(mags, np.arange(4.0) * 100, np.array([200.0]))
        assert bw.tolist() == [0.0]

    def test_bandwidth_symmetric_pair(self):
        freqs = np.array([500.0, 1500.0])
        bw = spectral_bandwidth(np.array([[1.0, 1.0]]), freqs, np.array([1000.0]))
        assert bw.tolist() == [500.0]

    def test_bandwidth_weighted(self):
        freqs = np.array([100.0, 300.0])
        bw = spectral_bandwidth(np.array([[1.0, 3.0]]), freqs, np.array([250.0]))
        np.testing.assert_allclose(bw, [np.sqrt(7500.0)], rtol=1e-12)

    def test_rolloff_single_bin(self):
        mags = np.zeros((1, 8))
        mags[0, 4] = 3.0
        freqs = np.arange(8) * 500.0
        assert spectral_rolloff(mags, freqs).tolist() == [2000.0]

    def test_rolloff_equal_bins(self):
        mags = np.ones((2, 10))
        mags[1] = 0.0
        freqs = np.arange(10.0)
        # cumulative energy reaches 85% at the 9th bin (index 8); a silent frame reads 0
        assert spectral_rolloff(mags, freqs).tolist() == [8.0, 0.0]


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
        banded = mel_log_energies(mags, mel_bands(bank))
        np.testing.assert_allclose(banded, dense, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(banded[3], np.log(LOG_FLOOR))
        # one frame as a 1-D spectrum gives the same row
        np.testing.assert_array_equal(mel_log_energies(mags[5], mel_bands(bank)), banded[5])

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
        window, freqs, bands = analysis_constants(SR, 2048)
        again = analysis_constants(SR, 2048)
        assert again[0] is window and again[1] is freqs and again[2] is bands
        np.testing.assert_array_equal(window, hann_window(2048))
        np.testing.assert_array_equal(freqs, fft_bin_freqs(2048, SR))
        fresh = mel_bands(mel_filterbank(40, 2048, SR))
        assert len(bands) == len(fresh) == 3
        for cached, built in zip(bands, fresh):
            np.testing.assert_array_equal(cached, built)
        for array in (window, freqs, *bands):
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
