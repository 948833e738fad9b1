import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import sosfilt, sosfreqz

import oracles
from eqrep.audio import AudioBuffer
from eqrep.eq import (BAND_COUNT, BAND_NAMES, BANDS, BELL, HIGH_SHELF, LOW_SHELF, EqBandSpec,
                      apply_eq, design_biquad, eq_response, eq_sos, log_frequency_grid)
from eqrep.features import extract_features
from fresh import run_fresh

SR = 44100


class TestStandardBands:
    def test_frequencies_and_kinds(self):
        assert [(b.center_hz, b.filter_kind, b.q) for b in BANDS] == [
            (80.0, LOW_SHELF, 0.707), (240.0, BELL, 1.0), (2500.0, BELL, 1.0),
            (4000.0, BELL, 1.0), (10000.0, HIGH_SHELF, 0.707),
        ]

    def test_names_and_count_come_from_the_bands(self):
        """The labels of the scatter, predict and manifest.csv columns."""
        assert BAND_NAMES == ["EQ_80", "EQ_240", "EQ_2500", "EQ_4000", "EQ_10000"]
        assert BAND_COUNT == len(BANDS) == 5


class TestDesignBiquad:
    def test_zero_gain_collapses(self):
        for spec in BANDS:
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

    def test_high_shelf_nyquist_gain(self):
        # at z = -1, H = (b0 - b1 + b2) / (1 - a1 + a2)
        b0, b1, b2, _, a1, a2 = design_biquad(EqBandSpec(10000.0, HIGH_SHELF, 0.707), 9.0, SR)
        nyquist = 20 * np.log10(abs((b0 - b1 + b2) / (1 - a1 + a2)))
        assert nyquist == pytest.approx(9.0, abs=1e-9)

    @pytest.mark.parametrize("center, q", [(0.0, 1.0), (np.nan, 1.0), (100.0, -1.0),
                                           (100.0, np.nan), (np.nan, np.nan)])
    def test_band_spec_refuses_non_positive(self, center, q):
        with pytest.raises(ValueError, match="must be positive"):
            EqBandSpec(center, BELL, q)

    def test_center_above_nyquist(self):
        with pytest.raises(ValueError):
            design_biquad(EqBandSpec(30000.0, BELL, 1.0), 3.0, SR)

    def test_gain_envelope(self):
        with pytest.raises(ValueError):
            design_biquad(EqBandSpec(100.0, BELL, 1.0), 25.0, SR)

    @pytest.mark.parametrize("gain", [np.nan, -np.inf])
    def test_non_finite_gain(self, gain):
        with pytest.raises(ValueError, match="finite"):
            design_biquad(EqBandSpec(100.0, BELL, 1.0), gain, SR)

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
        gains = [3.0, -6.0, 9.0, -12.0, 4.5]
        sos = eq_sos(gains, SR)
        assert sos.shape == (5, 6) and sos.dtype == np.float64
        for row, spec, gain in zip(sos, BANDS, gains):
            np.testing.assert_array_equal(row, design_biquad(spec, gain, SR))

    def test_zero_setting_rows_cancel_exactly(self):
        # at 0 dB the numerator and denominator come out of the same arithmetic
        sos = eq_sos([0, 0, 0, 0, 0], SR)
        np.testing.assert_array_equal(sos[:, :3], sos[:, 3:])


class TestApplyEq:
    def test_zero_setting_is_identity(self, noise_buffer):
        out = apply_eq(noise_buffer, [0, 0, 0, 0, 0])
        assert np.max(np.abs(out.samples - noise_buffer.samples)) <= 1e-9

    def test_cascade_order_commutes(self, noise_buffer):
        gains = np.array([-6.0, 3.0, 9.0, -2.0, 5.0])
        impulse = AudioBuffer(np.eye(1, 1 << 16)[0], SR)
        order = [3, 0, 4, 1, 2]
        a = apply_eq(impulse, gains)
        b = sosfilt(eq_sos(gains, SR)[order], impulse.samples)
        mag_a = np.abs(np.fft.rfft(a.samples))
        mag_b = np.abs(np.fft.rfft(b))
        np.testing.assert_allclose(mag_a, mag_b, rtol=1e-9, atol=1e-12)

    def test_distinct_settings_give_distinct_features(self, c2_note):
        f1 = extract_features(apply_eq(c2_note, [-12, -8, -4, 0, 4])).to_array()
        f2 = extract_features(apply_eq(c2_note, [4, 0, -4, -8, -12])).to_array()
        assert not np.allclose(f1, f2)

    def test_band_count_mismatch(self, noise_buffer):
        with pytest.raises(ValueError):
            apply_eq(noise_buffer, [0, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 24.5])
    def test_gain_outside_the_envelope(self, noise_buffer, bad):
        with pytest.raises(ValueError, match="finite"):
            apply_eq(noise_buffer, [6, -3, 0, 4, bad])

    @pytest.mark.parametrize("signal", ["noise", "impulse"])
    def test_matches_direct_form_oracle(self, signal):
        n = 8192
        if signal == "noise":
            samples = 0.5 * np.random.default_rng(11).standard_normal(n)
        else:
            samples = np.eye(1, n)[0]
        gains = [6.0, -9.0, 12.0, -3.0, 8.0]
        fast = apply_eq(AudioBuffer(samples, SR), gains).samples
        slow = oracles.biquad_cascade(samples, eq_sos(gains, SR))
        assert np.max(np.abs(fast - slow)) <= 1e-9


class TestEqResponse:
    def test_zero_setting_flat(self):
        freqs = log_frequency_grid()
        resp = eq_response([0, 0, 0, 0, 0], freqs, SR)
        np.testing.assert_allclose(resp, 0.0, atol=1e-12)

    def test_single_band_center(self):
        resp = eq_response([0, 0, 12, 0, 0], [2500.0], SR)
        assert resp[0] == pytest.approx(12.0, abs=1e-6)

    def test_superposition(self):
        freqs = log_frequency_grid(20, 20000, 40)
        gains = [3.0, -6.0, 9.0, -12.0, 4.5]
        combined = eq_response(gains, freqs, SR)
        total = np.zeros_like(freqs)
        for i, g in enumerate(gains):
            setting = [0.0] * 5
            setting[i] = g
            total += eq_response(setting, freqs, SR)
        np.testing.assert_allclose(combined, total, atol=1e-12)

    def test_frequency_out_of_range(self):
        with pytest.raises(ValueError):
            eq_response([0, 0, 0, 0, 0], [SR / 2], SR)

    @pytest.mark.parametrize("freq", [np.nan, np.inf, -np.inf, -1.0])
    def test_frequency_outside_zero_to_nyquist_is_refused(self, freq):
        with pytest.raises(ValueError, match=r"\[0, Nyquist\)"):
            eq_response([0, 0, 0, 0, 0], [100.0, freq], SR)

    def test_refusal_names_the_first_frequency_and_nyquist(self):
        with pytest.raises(ValueError) as exc:
            eq_response([0, 0, 0, 0, 0], [100.0, 30000.0, 22050.0], SR)
        assert str(exc.value) == ("frequency 30000.0 Hz lies outside "
                                  "[0, Nyquist) = [0, 22050.0) Hz")

    def test_matches_summed_section_oracle(self):
        # the cascade's response against the sum of the written-out H(z) of
        # each section, over random +/-24 dB settings
        freqs = log_frequency_grid(20, 20000, 500)
        rng = np.random.default_rng(12)
        for _ in range(20):
            gains = rng.uniform(-24, 24, 5)
            slow = sum(oracles.biquad_response_db(row, freqs, SR)
                       for row in eq_sos(gains, SR))
            np.testing.assert_allclose(eq_response(gains, freqs, SR), slow,
                                       rtol=0, atol=1e-9)

    def test_keeps_the_frequency_shape(self):
        grid = log_frequency_grid(20, 20000, 12).reshape(3, 4)
        resp = eq_response([0, 0, 12, 0, 0], grid, SR)
        assert resp.shape == (3, 4)
        np.testing.assert_array_equal(resp.ravel(),
                                      eq_response([0, 0, 12, 0, 0], grid.ravel(), SR))
        assert eq_response([0, 0, 12, 0, 0], 2500.0, SR).shape == ()


class TestImpulseResponseCrossCheck:
    def test_fft_of_impulse_response_matches_design(self):
        # cross-validates apply_eq against the analytic response
        gains = np.array([6.0, -9.0, 12.0, -3.0, 8.0])
        n = 1 << 16
        impulse = AudioBuffer(np.eye(1, n)[0], SR)
        ir = apply_eq(impulse, gains)
        mags = 20 * np.log10(np.abs(np.fft.rfft(ir.samples)))
        freqs = np.fft.rfftfreq(n, 1 / SR)
        analytic = eq_response(gains, freqs[1:-1], SR)
        assert np.max(np.abs(mags[1:-1] - analytic)) <= 0.01


# The public scipy.signal functions are the reference for the compiled
# kernel path: `apply_eq` must give the bytes of `sosfilt`, and `eq_response`
# those of `sosfreqz`.
GRID_SETTINGS = [[0, 0, 0, 0, 0], [12, -12, 8, -4, 4], [-12, 12, -8, 4, -4],
                 [24, -24, 24, -24, 24]]
RANDOM_SETTINGS = np.random.default_rng(21).uniform(-24, 24, (6, 5)).tolist()


def scipy_response(gains, freqs, sample_rate):
    freqs = np.asarray(freqs, dtype=np.float64)
    _, h = sosfreqz(eq_sos(gains, sample_rate), worN=freqs.ravel(), fs=sample_rate)
    return 20.0 * np.log10(np.abs(h)).reshape(freqs.shape)


class TestKernelMatchesScipy:
    @pytest.mark.parametrize("sample_rate", [22050, 44100])
    @pytest.mark.parametrize("gains", GRID_SETTINGS + RANDOM_SETTINGS)
    def test_filter_and_response_bytes(self, sample_rate, gains):
        samples = 0.5 * np.random.default_rng(5).standard_normal(4096)
        out = apply_eq(AudioBuffer(samples, sample_rate), gains).samples
        assert out.tobytes() == sosfilt(eq_sos(gains, sample_rate), samples).tobytes()
        freqs = np.concatenate([log_frequency_grid(20, 0.99 * sample_rate / 2, 300),
                                np.fft.rfftfreq(2048, 1 / sample_rate)[:-1]])
        assert (eq_response(gains, freqs, sample_rate).tobytes()
                == scipy_response(gains, freqs, sample_rate).tobytes())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shortest_buffers(self, n):
        samples = np.array([0.7, -0.2, 0.4])[:n]
        out = apply_eq(AudioBuffer(samples, SR), [6, -3, 0, 4, -6]).samples
        assert out.tobytes() == sosfilt(eq_sos([6, -3, 0, 4, -6], SR), samples).tobytes()

    def test_strided_input(self):
        samples = np.random.default_rng(6).standard_normal(3000)[::3]
        assert not samples.flags.c_contiguous
        out = apply_eq(AudioBuffer(samples, SR), [6, -3, 0, 4, -6]).samples
        assert out.tobytes() == sosfilt(eq_sos([6, -3, 0, 4, -6], SR), samples).tobytes()

    def test_input_left_unchanged(self, noise_buffer):
        before = noise_buffer.samples.copy()
        out = apply_eq(noise_buffer, [6, -3, 0, 4, -6])
        assert noise_buffer.samples.tobytes() == before.tobytes()
        assert not np.shares_memory(out.samples, noise_buffer.samples)

    @pytest.mark.parametrize("freqs", [2500.0, log_frequency_grid(20, 20000, 12).reshape(3, 4)],
                             ids=["scalar", "2-D"])
    def test_response_keeps_scalar_and_2d_inputs(self, freqs):
        resp = eq_response([6, -3, 0, 4, -6], freqs, SR)
        expected = scipy_response([6, -3, 0, 4, -6], freqs, SR)
        assert resp.shape == expected.shape == np.shape(freqs)
        assert resp.tobytes() == expected.tobytes()


# The kernel loaded by file and the one `scipy.signal` imports, in both
# import orders: the output of the first import and of the second agree.
BOTH_IMPORT_ORDERS = """
import hashlib, sys
import numpy as np
if sys.argv[1] == "scipy-first":
    import scipy.signal
from eqrep.audio import AudioBuffer
from eqrep.eq import apply_eq, eq_sos
import scipy.signal

samples = np.random.default_rng(8).standard_normal(5000)
ours = apply_eq(AudioBuffer(samples, 22050), [6, -3, 0, 4, -6]).samples
theirs = scipy.signal.sosfilt(eq_sos([6, -3, 0, 4, -6], 22050), samples)
print(hashlib.sha256(ours.tobytes()).hexdigest(), hashlib.sha256(theirs.tobytes()).hexdigest())
"""


def test_kernel_agrees_in_both_import_orders():
    digests = {order: run_fresh(BOTH_IMPORT_ORDERS, order).split()
               for order in ("scipy-first", "eqrep-first")}
    assert len({d for pair in digests.values() for d in pair}) == 1, digests
