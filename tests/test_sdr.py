"""Tests for the SDR substrate (repro.sdr: iq, noise, receiver, filters)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.phy.chirp import preamble_waveform, upchirp
from repro.sdr.filters import bandlimit_trace
from repro.sdr.iq import IQTrace
from repro.sdr.noise import (
    RealNoiseModel,
    add_noise_for_snr,
    complex_awgn,
    noise_power_for_snr,
)
from repro.sdr.receiver import SdrReceiver


class TestIQTrace:
    def test_components(self):
        trace = IQTrace(np.array([1 + 2j, 3 - 4j]), 1e6)
        np.testing.assert_array_equal(trace.i, [1, 3])
        np.testing.assert_array_equal(trace.q, [2, -4])

    def test_timing_anchors(self):
        trace = IQTrace(np.zeros(100), 1e6, start_time_s=5.0)
        assert trace.time_of_index(0) == 5.0
        assert trace.time_of_index(10) == pytest.approx(5.0 + 10e-6)
        assert trace.index_of_time(5.0 + 25e-6) == 25
        assert trace.duration_s == pytest.approx(100e-6)

    def test_times_vector(self):
        trace = IQTrace(np.zeros(3), 2.0, start_time_s=1.0)
        np.testing.assert_allclose(trace.times(), [1.0, 1.5, 2.0])

    def test_slice_preserves_absolute_time(self):
        trace = IQTrace(np.arange(10, dtype=complex), 1e3, start_time_s=2.0)
        sub = trace.slice_samples(4, 8)
        assert sub.start_time_s == pytest.approx(2.0 + 4e-3)
        np.testing.assert_array_equal(sub.samples.real, [4, 5, 6, 7])

    def test_slice_out_of_range(self):
        trace = IQTrace(np.zeros(4), 1e3)
        with pytest.raises(ConfigurationError):
            trace.slice_samples(-1)

    def test_power(self):
        trace = IQTrace(np.array([3 + 4j, 3 + 4j]), 1.0)
        assert trace.power() == pytest.approx(25.0)

    def test_empty_power_rejected(self):
        with pytest.raises(ConfigurationError):
            IQTrace(np.array([]), 1.0).power()

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            IQTrace(np.zeros(4), 0.0)
        # NaN would make every timestamp NaN and inf every timestamp 0.0.
        for rate in (np.nan, np.inf, -np.inf):
            with pytest.raises(ConfigurationError, match="finite and positive"):
                IQTrace(np.zeros(4), rate)


class TestNoise:
    def test_awgn_power(self, rng):
        noise = complex_awgn(200_000, 3.0, rng)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(3.0, rel=0.02)

    def test_awgn_circular(self, rng):
        noise = complex_awgn(100_000, 2.0, rng)
        assert np.mean(noise.real**2) == pytest.approx(np.mean(noise.imag**2), rel=0.05)
        assert abs(np.mean(noise)) < 0.05

    def test_awgn_zero_samples(self, rng):
        assert len(complex_awgn(0, 1.0, rng)) == 0

    def test_awgn_invalid(self, rng):
        with pytest.raises(ConfigurationError):
            complex_awgn(-1, 1.0, rng)
        with pytest.raises(ConfigurationError):
            complex_awgn(10, -1.0, rng)

    def test_noise_power_for_snr(self):
        assert noise_power_for_snr(1.0, 10.0) == pytest.approx(0.1)
        assert noise_power_for_snr(4.0, -3.0) == pytest.approx(4.0 * 10**0.3)

    def test_add_noise_hits_target_snr(self, fast_config, rng):
        signal = preamble_waveform(fast_config, n_chirps=4)
        noisy = add_noise_for_snr(signal, snr_db=5.0, rng=rng)
        noise = noisy - signal
        measured = 10 * np.log10(
            np.mean(np.abs(signal) ** 2) / np.mean(np.abs(noise) ** 2)
        )
        assert measured == pytest.approx(5.0, abs=0.5)

    def test_real_noise_normalized_power(self, rng):
        model = RealNoiseModel()
        noise = model.generate(100_000, 2.5, rng)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(2.5, rel=0.05)

    def test_real_noise_is_colored(self, rng):
        model = RealNoiseModel(color_pole=0.9, impulse_rate=0.0)
        noise = model.generate(65536, 1.0, rng)
        spectrum = np.abs(np.fft.fft(noise)) ** 2
        low = spectrum[1:1000].mean()
        high = spectrum[30000:32000].mean()
        assert low > 3 * high

    def test_real_noise_has_impulses(self, rng):
        quiet = RealNoiseModel(impulse_rate=0.0)
        bursty = RealNoiseModel(impulse_rate=5e-3, impulse_gain=10.0)
        q = quiet.generate(50_000, 1.0, rng)
        b = bursty.generate(50_000, 1.0, rng)
        # Same mean power but heavier tails for the bursty model.
        assert np.max(np.abs(b)) > np.max(np.abs(q))

    def test_real_noise_invalid_params(self):
        with pytest.raises(ConfigurationError):
            RealNoiseModel(color_pole=1.0)
        with pytest.raises(ConfigurationError):
            RealNoiseModel(impulse_rate=-1.0)
        with pytest.raises(ConfigurationError):
            RealNoiseModel(impulse_duration=0)


class TestSdrReceiver:
    def test_mixer_shifts_baseband_by_minus_rx_fb(self, fast_config):
        # Receiving a pure tone at f with an LO bias δRx yields f − δRx.
        fs = fast_config.sample_rate_hz
        tone_hz = 10e3
        rx_fb = 4e3
        t = np.arange(8192) / fs
        tone = np.exp(2j * np.pi * tone_hz * t)
        receiver = SdrReceiver(sample_rate_hz=fs, fb_hz=rx_fb)
        captured = receiver.capture(tone)
        spectrum = np.abs(np.fft.fft(captured.samples))
        freqs = np.fft.fftfreq(len(t), 1 / fs)
        peak = freqs[int(np.argmax(spectrum))]
        assert peak == pytest.approx(tone_hz - rx_fb, abs=fs / len(t) * 2)

    def test_capture_stamps_start_time(self, fast_config):
        receiver = SdrReceiver(sample_rate_hz=fast_config.sample_rate_hz)
        trace = receiver.capture(np.zeros(16), start_time_s=42.0)
        assert trace.start_time_s == 42.0

    def test_noise_floor_added(self, fast_config, rng):
        receiver = SdrReceiver(sample_rate_hz=1e6, noise_power=0.5)
        trace = receiver.capture(np.zeros(50_000), rng=rng)
        assert trace.power() == pytest.approx(0.5, rel=0.1)

    def test_noise_requires_rng(self):
        receiver = SdrReceiver(sample_rate_hz=1e6, noise_power=0.5)
        with pytest.raises(ConfigurationError):
            receiver.capture(np.zeros(10))

    def test_quantization_limits_levels(self, fast_config):
        receiver = SdrReceiver(sample_rate_hz=1e6, adc_bits=4, adc_full_scale=1.0)
        ramp = np.linspace(-2, 2, 1001) + 0j
        captured = receiver.capture(ramp)
        assert np.max(captured.samples.real) <= 1.0
        assert len(np.unique(captured.samples.real)) <= 16

    def test_rtl_factory_settings(self):
        receiver = SdrReceiver.rtl_sdr(fb_hz=123.0)
        assert receiver.sample_rate_hz == 2.4e6
        assert receiver.adc_bits == 8
        assert receiver.fb_hz == 123.0

    def test_lo_rotation_depends_on_absolute_time(self, fast_config):
        # The LO runs continuously: capturing the same waveform at two
        # different start times yields different constant phase offsets.
        receiver = SdrReceiver(sample_rate_hz=1e6, fb_hz=1.37e3)
        wave = np.ones(64, dtype=complex)
        a = receiver.capture(wave, start_time_s=0.0)
        b = receiver.capture(wave, start_time_s=0.1001)
        assert not np.allclose(a.samples, b.samples)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            SdrReceiver(sample_rate_hz=-1)
        with pytest.raises(ConfigurationError):
            SdrReceiver(noise_power=-0.1)
        with pytest.raises(ConfigurationError):
            SdrReceiver(adc_bits=0)


class TestBandlimit:
    def test_preserves_in_band_chirp(self, fast_config):
        chirp = upchirp(fast_config)
        trace = IQTrace(chirp, fast_config.sample_rate_hz)
        filtered = bandlimit_trace(trace, cutoff_hz=100e3)
        # Power loss should be small: the chirp lives inside ±62.5 kHz.
        assert filtered.power() == pytest.approx(trace.power(), rel=0.1)

    def test_removes_out_of_band_noise(self, fast_config, rng):
        fs = fast_config.sample_rate_hz
        noise = complex_awgn(65536, 1.0, rng)
        trace = IQTrace(noise, fs)
        filtered = bandlimit_trace(trace, cutoff_hz=50e3)
        # White noise power shrinks roughly by the bandwidth ratio.
        expected = 2 * 50e3 / fs
        assert filtered.power() == pytest.approx(expected, rel=0.3)

    def test_keeps_timing_metadata(self, fast_config):
        trace = IQTrace(np.ones(4096, dtype=complex), 1e6, start_time_s=9.0)
        filtered = bandlimit_trace(trace, cutoff_hz=100e3)
        assert filtered.start_time_s == 9.0
        assert filtered.sample_rate_hz == 1e6

    def test_invalid_cutoff(self):
        trace = IQTrace(np.ones(4096, dtype=complex), 1e6)
        with pytest.raises(ConfigurationError):
            bandlimit_trace(trace, cutoff_hz=0)
        with pytest.raises(ConfigurationError):
            bandlimit_trace(trace, cutoff_hz=0.6e6)

    def test_too_short_trace(self):
        trace = IQTrace(np.ones(5, dtype=complex), 1e6)
        with pytest.raises(ConfigurationError):
            bandlimit_trace(trace)
