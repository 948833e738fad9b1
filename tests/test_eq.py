import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from eqrep.audio import AudioBuffer
from eqrep.eq import (BELL, HIGH_SHELF, LOW_SHELF, EqBandSpec, apply_eq,
                      design_biquad, eq_response, eq_sos, log_frequency_grid,
                      standard_bands)
from eqrep.features import extract_features

SR = 44100


class TestStandardBands:
    def test_frequencies_and_kinds(self):
        bands = standard_bands()
        assert [(b.center_hz, b.filter_kind) for b in bands] == [
            (80.0, LOW_SHELF), (240.0, BELL), (2500.0, BELL),
            (4000.0, BELL), (10000.0, HIGH_SHELF),
        ]


class TestDesignBiquad:
    def test_zero_gain_collapses(self):
        for spec in standard_bands():
            b0, b1, b2, a0, a1, a2 = design_biquad(spec, 0.0, SR)
            assert a0 == 1.0
            assert b0 == pytest.approx(1.0, abs=1e-12)
            assert b1 == pytest.approx(a1, abs=1e-12)
            assert b2 == pytest.approx(a2, abs=1e-12)

    def test_bell_center_gain(self):
        row = design_biquad(EqBandSpec(2500.0, BELL, 1.0), 6.0, SR)
        assert oracles.biquad_response_db(row, [2500.0], SR)[0] == pytest.approx(6.0, abs=1e-9)

    def test_low_shelf_dc_gain(self):
        row = design_biquad(EqBandSpec(80.0, LOW_SHELF, 0.707), -12.0, SR)
        dc = 20 * np.log10(abs(row[:3].sum() / row[3:].sum()))
        assert dc == pytest.approx(-12.0, abs=1e-9)

    def test_center_above_nyquist(self):
        with pytest.raises(ValueError):
            design_biquad(EqBandSpec(30000.0, BELL, 1.0), 3.0, SR)

    def test_gain_envelope(self):
        with pytest.raises(ValueError):
            design_biquad(EqBandSpec(100.0, BELL, 1.0), 25.0, SR)

    @settings(max_examples=200, deadline=None)
    @given(
        gain=st.floats(-24, 24),
        q=st.floats(0.3, 4.0),
        center=st.floats(10.5, SR / 2 - 1),
        kind=st.sampled_from([LOW_SHELF, BELL, HIGH_SHELF]),
    )
    def test_stability(self, gain, q, center, kind):
        # poles inside the unit circle: the stability triangle of 1 + a1/z + a2/z^2
        _, _, _, _, a1, a2 = design_biquad(EqBandSpec(center, kind, q), gain, SR)
        assert abs(a2) < 1.0 and abs(a1) < 1.0 + a2

    @settings(max_examples=50, deadline=None)
    @given(gain=st.floats(0.1, 24), q=st.floats(0.3, 4.0), center=st.floats(50, 18000))
    def test_bell_gain_symmetry(self, gain, q, center):
        freqs = log_frequency_grid(20, 20000, 50)
        spec = EqBandSpec(center, BELL, q)
        up = oracles.biquad_response_db(design_biquad(spec, gain, SR), freqs, SR)
        down = oracles.biquad_response_db(design_biquad(spec, -gain, SR), freqs, SR)
        np.testing.assert_allclose(up, -down, atol=1e-9)


class TestApplyBiquad:
    """One section on its own: hand-written SOS rows through the oracle
    cascade, and one active band through `apply_eq`."""

    def test_identity_coefficients(self, noise_buffer):
        out = oracles.biquad_cascade(noise_buffer.samples, [(1, 0, 0, 1, 0, 0)])
        np.testing.assert_array_equal(out, noise_buffer.samples)

    def test_pure_gain_impulse(self):
        impulse = np.eye(1, 16)[0]
        out = oracles.biquad_cascade(impulse, [(0.5, 0, 0, 1, 0, 0)])
        np.testing.assert_array_equal(out, 0.5 * impulse)

    def test_sine_steady_state_gain(self):
        t = np.arange(SR) / SR
        sine = AudioBuffer(np.sin(2 * np.pi * 2500 * t), SR)
        out = apply_eq(sine, [0, 0, 6, 0, 0])
        skip = SR // 10  # discard 100 ms transient
        ratio = np.sqrt((out.samples[skip:] ** 2).mean() / (sine.samples[skip:] ** 2).mean())
        assert ratio == pytest.approx(10 ** (6 / 20), rel=0.01)

    def test_preserves_length_and_rate(self, noise_buffer):
        out = apply_eq(noise_buffer, [0, 3, 0, 0, 0])
        assert len(out) == len(noise_buffer)
        assert out.sample_rate == SR


class TestEqSos:
    def test_rows_in_band_order(self):
        bands = standard_bands()
        gains = [3.0, -6.0, 9.0, -12.0, 4.5]
        sos = eq_sos(gains, bands, SR)
        assert sos.shape == (5, 6) and sos.dtype == np.float64
        for row, spec, gain in zip(sos, bands, gains):
            np.testing.assert_array_equal(row, design_biquad(spec, gain, SR))

    def test_zero_setting_rows_cancel_exactly(self):
        # at 0 dB the numerator and denominator come out of the same arithmetic
        sos = eq_sos([0, 0, 0, 0, 0], standard_bands(), SR)
        np.testing.assert_array_equal(sos[:, :3], sos[:, 3:])

    def test_band_count_mismatch(self):
        with pytest.raises(ValueError, match="band count"):
            eq_sos([0, 0, 0, 0, 0], standard_bands()[:4], SR)


class TestApplyEq:
    def test_zero_setting_is_identity(self, noise_buffer):
        out = apply_eq(noise_buffer, [0, 0, 0, 0, 0])
        assert np.max(np.abs(out.samples - noise_buffer.samples)) <= 1e-9

    def test_cascade_order_commutes(self, noise_buffer):
        gains = np.array([-6.0, 3.0, 9.0, -2.0, 5.0])
        bands = standard_bands()
        impulse = AudioBuffer(np.eye(1, 1 << 16)[0], SR)
        order = [3, 0, 4, 1, 2]
        a = apply_eq(impulse, gains, bands)
        b = apply_eq(impulse, gains[order], [bands[i] for i in order])
        mag_a = np.abs(np.fft.rfft(a.samples))
        mag_b = np.abs(np.fft.rfft(b.samples))
        np.testing.assert_allclose(mag_a, mag_b, rtol=1e-9, atol=1e-12)

    def test_distinct_settings_give_distinct_features(self, c2_note):
        f1 = extract_features(apply_eq(c2_note, [-12, -8, -4, 0, 4])).to_array()
        f2 = extract_features(apply_eq(c2_note, [4, 0, -4, -8, -12])).to_array()
        assert not np.allclose(f1, f2)

    def test_band_count_mismatch(self, noise_buffer):
        with pytest.raises(ValueError):
            apply_eq(noise_buffer, [0, 0, 0])

    @pytest.mark.parametrize("signal", ["noise", "impulse"])
    def test_matches_direct_form_oracle(self, signal):
        n = 8192
        if signal == "noise":
            samples = 0.5 * np.random.default_rng(11).standard_normal(n)
        else:
            samples = np.eye(1, n)[0]
        gains = [6.0, -9.0, 12.0, -3.0, 8.0]
        fast = apply_eq(AudioBuffer(samples, SR), gains).samples
        slow = oracles.biquad_cascade(samples, eq_sos(gains, standard_bands(), SR))
        assert np.max(np.abs(fast - slow)) <= 1e-9


class TestEqResponse:
    def test_zero_setting_flat(self):
        freqs = log_frequency_grid()
        resp = eq_response([0, 0, 0, 0, 0], standard_bands(), freqs, SR)
        np.testing.assert_allclose(resp, 0.0, atol=1e-12)

    def test_single_band_center(self):
        resp = eq_response([0, 0, 12, 0, 0], standard_bands(), [2500.0], SR)
        assert resp[0] == pytest.approx(12.0, abs=1e-6)

    def test_superposition(self):
        freqs = log_frequency_grid(20, 20000, 40)
        bands = standard_bands()
        gains = [3.0, -6.0, 9.0, -12.0, 4.5]
        combined = eq_response(gains, bands, freqs, SR)
        total = np.zeros_like(freqs)
        for i, g in enumerate(gains):
            setting = [0.0] * 5
            setting[i] = g
            total += eq_response(setting, bands, freqs, SR)
        np.testing.assert_allclose(combined, total, atol=1e-12)

    def test_frequency_out_of_range(self):
        with pytest.raises(ValueError):
            eq_response([0, 0, 0, 0, 0], standard_bands(), [SR / 2], SR)

    def test_matches_summed_section_oracle(self):
        # sosfreqz of the cascade against the sum of the written-out H(z) of
        # each section, over random +/-24 dB settings
        freqs = log_frequency_grid(20, 20000, 500)
        bands = standard_bands()
        rng = np.random.default_rng(12)
        for _ in range(20):
            gains = rng.uniform(-24, 24, 5)
            slow = sum(oracles.biquad_response_db(row, freqs, SR)
                       for row in eq_sos(gains, bands, SR))
            np.testing.assert_allclose(eq_response(gains, bands, freqs, SR), slow,
                                       rtol=0, atol=1e-9)

    def test_keeps_the_frequency_shape(self):
        bands = standard_bands()
        grid = log_frequency_grid(20, 20000, 12).reshape(3, 4)
        resp = eq_response([0, 0, 12, 0, 0], bands, grid, SR)
        assert resp.shape == (3, 4)
        np.testing.assert_array_equal(resp.ravel(),
                                      eq_response([0, 0, 12, 0, 0], bands, grid.ravel(), SR))
        assert eq_response([0, 0, 12, 0, 0], bands, 2500.0, SR).shape == ()


class TestImpulseResponseCrossCheck:
    def test_fft_of_impulse_response_matches_design(self):
        # cross-validates apply_eq against the analytic response
        gains = np.array([6.0, -9.0, 12.0, -3.0, 8.0])
        n = 1 << 16
        impulse = AudioBuffer(np.eye(1, n)[0], SR)
        ir = apply_eq(impulse, gains)
        mags = 20 * np.log10(np.abs(np.fft.rfft(ir.samples)))
        freqs = np.fft.rfftfreq(n, 1 / SR)
        analytic = eq_response(gains, standard_bands(), freqs[1:-1], SR)
        assert np.max(np.abs(mags[1:-1] - analytic)) <= 0.01
