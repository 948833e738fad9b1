import numpy as np
import pytest

import oracles
from eqrep.audio import AudioBuffer, NoteSpec, synthesize_note
from eqrep.eq import apply_eq
from eqrep.features import (BLOCK_FRAMES, FEATURE_DIM, StftConfig,
                            analysis_constants, extract_features, fft_bin_freqs,
                            frame_signal, hann_window, hz_to_mel, mel_filterbank,
                            mel_to_hz, mfcc_means, rms_mean, spectral_bandwidth,
                            spectral_centroid, spectral_rolloff, stft_magnitudes)

SR = 44100


class TestStftConfig:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            StftConfig(1000, 500)

    def test_rejects_bad_hop(self):
        with pytest.raises(ValueError):
            StftConfig(2048, 4096)


class TestStft:
    def test_dc_buffer_window_gain(self):
        buf = AudioBuffer(np.ones(2048), SR)
        mags = stft_magnitudes(buf, StftConfig(2048, 512))
        assert mags.shape == (1, 1025)
        assert mags[0, 0] == pytest.approx(hann_window(2048).sum(), rel=1e-12)
        assert mags[0, 0] == pytest.approx(1024.0, rel=1e-9)
        assert np.max(mags[0, 2:]) < 1e-9 * mags[0, 0]

    def test_sine_at_bin_frequency(self):
        f = 32 * SR / 2048
        t = np.arange(2048) / SR
        buf = AudioBuffer(np.sin(2 * np.pi * f * t), SR)
        mags = stft_magnitudes(buf, StftConfig(2048, 512))[0]
        lobe = mags[31:34] ** 2
        assert lobe.sum() / (mags ** 2).sum() > 0.99

    def test_single_frame_count(self):
        buf = AudioBuffer(np.ones(2048), SR)
        assert stft_magnitudes(buf, StftConfig(2048, 512)).shape[0] == 1
        buf = AudioBuffer(np.ones(2048 + 512), SR)
        assert stft_magnitudes(buf, StftConfig(2048, 512)).shape[0] == 2

    def test_too_short_buffer(self):
        with pytest.raises(ValueError):
            stft_magnitudes(AudioBuffer(np.ones(100), SR), StftConfig(2048, 512))


class TestFrameStats:
    def test_centroid_point_mass(self):
        mags = np.zeros(11)
        mags[5] = 2.0
        freqs = np.arange(11) * 200.0  # bin 5 -> 1000 Hz
        assert spectral_centroid(mags, freqs) == 1000.0

    def test_centroid_symmetry(self):
        freqs = np.array([500.0, 1500.0])
        assert spectral_centroid(np.array([1.0, 1.0]), freqs) == 1000.0

    def test_centroid_weighted(self):
        freqs = np.array([100.0, 300.0])
        assert spectral_centroid(np.array([1.0, 3.0]), freqs) == pytest.approx(250.0)

    def test_centroid_zero_frame(self):
        assert spectral_centroid(np.zeros(4), np.arange(4.0)) == 0.0

    def test_bandwidth_point_mass(self):
        mags = np.zeros(4)
        mags[2] = 1.0
        assert spectral_bandwidth(mags, np.arange(4.0) * 100, 200.0) == 0.0

    def test_bandwidth_symmetric_pair(self):
        freqs = np.array([500.0, 1500.0])
        assert spectral_bandwidth(np.array([1.0, 1.0]), freqs, 1000.0) == 500.0

    def test_bandwidth_weighted(self):
        freqs = np.array([100.0, 300.0])
        bw = spectral_bandwidth(np.array([1.0, 3.0]), freqs, 250.0)
        assert bw == pytest.approx(np.sqrt(7500.0))

    def test_rolloff_single_bin(self):
        mags = np.zeros(8)
        mags[4] = 3.0
        freqs = np.arange(8) * 500.0
        for fraction in (0.1, 0.85, 1.0):
            assert spectral_rolloff(mags, freqs, fraction) == 2000.0

    def test_rolloff_equal_bins(self):
        mags = np.ones(10)
        freqs = np.arange(10.0)
        # cumulative energy reaches 85% at the 9th bin (index 8)
        assert spectral_rolloff(mags, freqs, 0.85) == 8.0

    def test_rolloff_fraction_one(self):
        mags = np.array([1.0, 2.0, 1.0, 0.0, 0.0])
        freqs = np.arange(5.0) * 100
        assert spectral_rolloff(mags, freqs, 1.0) == 200.0

    def test_rolloff_bad_fraction(self):
        with pytest.raises(ValueError):
            spectral_rolloff(np.ones(4), np.arange(4.0), 0.0)


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


class TestMfcc:
    def test_near_silence_has_flat_cepstrum(self):
        rng = np.random.default_rng(0)
        buf = AudioBuffer(1e-12 * rng.standard_normal(8192), SR)
        coeffs = mfcc_means(buf, StftConfig(2048, 512))
        # the log floor dominates every mel band, so AC terms vanish
        assert np.max(np.abs(coeffs[1:])) < 1e-3 * abs(coeffs[0])

    def test_tilt_shows_in_first_coefficient(self):
        rng = np.random.default_rng(1)
        flat = AudioBuffer(0.1 * rng.standard_normal(8192), SR)
        # strong spectral tilt: integrate white noise (1/f emphasis)
        tilted = AudioBuffer(np.cumsum(flat.samples) * 0.01, SR)
        config = StftConfig(2048, 512)
        c_flat = mfcc_means(flat, config)
        c_tilted = mfcc_means(tilted, config)
        assert abs(c_flat[1]) < abs(c_tilted[1])

    def test_deterministic(self, noise_buffer):
        a = mfcc_means(noise_buffer, StftConfig(2048, 512))
        b = mfcc_means(noise_buffer, StftConfig(2048, 512))
        np.testing.assert_array_equal(a, b)


class TestRms:
    def test_constant_buffer(self):
        buf = AudioBuffer(np.full(4096, 0.5), SR)
        assert rms_mean(buf, StftConfig(2048, 512)) == pytest.approx(0.5)

    def test_full_scale_sine(self):
        t = np.arange(SR) / SR
        buf = AudioBuffer(np.sin(2 * np.pi * 1000 * t), SR)
        assert rms_mean(buf, StftConfig(2048, 512)) == pytest.approx(2 ** -0.5, abs=1e-3)

    def test_homogeneity(self, noise_buffer):
        config = StftConfig(2048, 512)
        doubled = AudioBuffer(2 * noise_buffer.samples, SR)
        assert rms_mean(doubled, config) == pytest.approx(2 * rms_mean(noise_buffer, config))


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
        window, freqs, bank = analysis_constants(SR, 2048)
        assert analysis_constants(SR, 2048)[2] is bank
        np.testing.assert_array_equal(window, hann_window(2048))
        np.testing.assert_array_equal(freqs, fft_bin_freqs(2048, SR))
        np.testing.assert_array_equal(bank, mel_filterbank(40, 2048, SR))
        for array in (window, freqs, bank):
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
