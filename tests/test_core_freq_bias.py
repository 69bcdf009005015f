"""Tests for FB estimation (repro.core.freq_bias) -- paper Sec. 7.1."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import ZoomFFT

from repro.core.freq_bias import (
    LeastSquaresFbEstimator,
    LinearRegressionFbEstimator,
    _cached_zoom_plan,
    _next_fast_len,
    estimate_amplitude,
)
from repro.errors import ConfigurationError, EstimationError
from repro.phy.chirp import ChirpConfig, cached_dechirp_template, upchirp
from repro.sdr.noise import complex_awgn, noise_power_for_snr

#: Golden ratio conjugate (1/φ), the golden-section interval shrink factor.
INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def clean_chirp(config, fb_hz, phase=0.9, amplitude=1.0):
    return upchirp(config, fb_hz=fb_hz, phase=phase, amplitude=amplitude)


def golden_section_fb(config, samples, search_range_hz, zero_pad_factor=8, tol_hz=1e-3):
    """Oracle for the dechirp reduction: padded FFT plus golden section.

    Independent of the shipped search: the whole zero-padded spectrum is
    transformed, and ``|C(fb)|`` is maximized by golden section over the
    same ``±1`` bin bracket, clipped to the search range, with every
    correlation taken by a direct per-sample exp.
    """
    fs = config.sample_rate_hz
    dechirped = samples[: config.samples_per_chirp] * cached_dechirp_template(config)
    n_fft = int(2 ** np.ceil(np.log2(len(dechirped) * zero_pad_factor)))
    freqs = np.fft.fftfreq(n_fft, d=1.0 / fs)
    lo, hi = search_range_hz
    magnitudes = np.where((freqs >= lo) & (freqs <= hi), np.abs(np.fft.fft(dechirped, n_fft)), -1)
    coarse = freqs[np.argmax(magnitudes)]
    a, b = max(coarse - fs / n_fft, lo), min(coarse + fs / n_fft, hi)
    n = np.arange(len(dechirped))

    def magnitude(fb_hz):
        return abs(np.sum(dechirped * np.exp(-2j * np.pi * fb_hz / fs * n)))

    c, d = b - INVPHI * (b - a), a + INVPHI * (b - a)
    fc, fd = magnitude(c), magnitude(d)
    while b - a > tol_hz:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = magnitude(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = magnitude(d)
    return c if fc >= fd else d


class TestLinearRegression:
    def test_exact_on_clean_chirp(self, fast_config):
        estimator = LinearRegressionFbEstimator(fast_config)
        for fb in (-25e3, -17e3, 0.0, 10e3):
            estimate = estimator.estimate(clean_chirp(fast_config, fb))
            assert estimate.fb_hz == pytest.approx(fb, abs=1.0)

    def test_phase_recovered(self, fast_config):
        estimator = LinearRegressionFbEstimator(fast_config)
        estimate = estimator.estimate(clean_chirp(fast_config, -5e3, phase=1.7))
        assert estimate.phase == pytest.approx(1.7, abs=0.01)

    def test_accurate_at_high_snr(self, fast_config, rng):
        estimator = LinearRegressionFbEstimator(fast_config)
        chirp = clean_chirp(fast_config, -22.8e3)
        noisy = chirp + complex_awgn(len(chirp), noise_power_for_snr(1.0, 25.0), rng)
        assert estimator.estimate(noisy).fb_hz == pytest.approx(-22.8e3, abs=100.0)

    def test_fails_at_very_low_snr(self, fast_config, rng):
        # Sec. 7.1.1: inverse-tangent rectification breaks at low SNR.
        estimator = LinearRegressionFbEstimator(fast_config)
        chirp = clean_chirp(fast_config, -22.8e3)
        noisy = chirp + complex_awgn(len(chirp), noise_power_for_snr(1.0, -20.0), rng)
        error = abs(estimator.estimate(noisy).fb_hz - (-22.8e3))
        assert error > 1e3

    def test_residual_is_linear(self, fast_config):
        estimator = LinearRegressionFbEstimator(fast_config)
        residual = estimator.linear_residual(clean_chirp(fast_config, -10e3))
        t = fast_config.sample_times()
        slope, intercept = np.polyfit(t, residual, 1)
        fitted = slope * t + intercept
        assert np.max(np.abs(residual - fitted)) < 0.01

    def test_diagnostics_rmse(self, fast_config):
        estimator = LinearRegressionFbEstimator(fast_config)
        estimate = estimator.estimate(clean_chirp(fast_config, -10e3))
        assert estimate.diagnostics["fit_rmse_rad"] < 1e-6

    def test_short_input_rejected(self, fast_config):
        estimator = LinearRegressionFbEstimator(fast_config)
        with pytest.raises(EstimationError):
            estimator.estimate(np.zeros(10, dtype=complex))


class TestLeastSquares:
    def test_exact_on_clean_chirp(self, fast_config):
        estimator = LeastSquaresFbEstimator(fast_config)
        for fb in (-24e3, -18e3, 5e3):
            estimate = estimator.estimate(clean_chirp(fast_config, fb))
            assert estimate.fb_hz == pytest.approx(fb, abs=0.5)

    def test_robust_at_low_snr(self, fast_config, rng):
        # Sec. 7.1.2: still works below the demodulation limit.  SF7 at
        # -18 dB full-band corresponds to roughly the paper's regime.
        estimator = LeastSquaresFbEstimator(fast_config)
        chirp = clean_chirp(fast_config, -21e3)
        errors = []
        for _ in range(5):
            noisy = chirp + complex_awgn(len(chirp), noise_power_for_snr(1.0, -18.0), rng)
            errors.append(abs(estimator.estimate(noisy).fb_hz + 21e3))
        assert np.median(errors) < 120.0  # the paper's resolution

    def test_sf12_resolution_at_minus25db(self, rng):
        # Fig. 14: below 120 Hz at -25 dB with the paper's SF12 default.
        config = ChirpConfig(spreading_factor=12, sample_rate_hz=0.5e6)
        estimator = LeastSquaresFbEstimator(config)
        chirp = clean_chirp(config, -22e3)
        noisy = chirp + complex_awgn(len(chirp), noise_power_for_snr(1.0, -25.0), rng)
        assert abs(estimator.estimate(noisy).fb_hz + 22e3) < 120.0

    def test_beats_linear_regression_at_low_snr(self, fast_config, rng):
        chirp = clean_chirp(fast_config, -20e3)
        noisy = chirp + complex_awgn(len(chirp), noise_power_for_snr(1.0, -15.0), rng)
        ls_error = abs(LeastSquaresFbEstimator(fast_config).estimate(noisy).fb_hz + 20e3)
        lr_error = abs(LinearRegressionFbEstimator(fast_config).estimate(noisy).fb_hz + 20e3)
        assert ls_error < lr_error

    def test_de_matches_dechirp(self, rng):
        # The differential-evolution solver (the paper's) and the fast
        # dechirp reduction optimize the same objective.
        config = ChirpConfig(spreading_factor=7, sample_rate_hz=0.25e6)
        chirp = clean_chirp(config, -7.5e3, phase=2.0)
        noise_power = noise_power_for_snr(1.0, 5.0)
        noisy = chirp + complex_awgn(len(chirp), noise_power, rng)
        de = LeastSquaresFbEstimator(config, search_range_hz=(-20e3, 20e3), method="de")
        fast = LeastSquaresFbEstimator(config, search_range_hz=(-20e3, 20e3))
        fb_de = de.estimate(noisy, noise_power=noise_power).fb_hz
        fb_fast = fast.estimate(noisy).fb_hz
        assert fb_de == pytest.approx(fb_fast, abs=2.0)

    def test_phase_estimate_consistent(self, fast_config):
        estimator = LeastSquaresFbEstimator(fast_config)
        estimate = estimator.estimate(clean_chirp(fast_config, -3e3, phase=0.8))
        assert estimate.phase == pytest.approx(0.8, abs=0.05)

    def test_search_range_respected(self, fast_config):
        estimator = LeastSquaresFbEstimator(fast_config, search_range_hz=(-5e3, 5e3))
        estimate = estimator.estimate(clean_chirp(fast_config, -2e3))
        assert -5e3 <= estimate.fb_hz <= 5e3

    def test_slicing_offset_biases_by_sweep_rate(self, fast_config):
        # A slice starting ε late reads δ + rate·ε: the quantitative link
        # between PHY timestamping accuracy and FB accuracy.
        estimator = LeastSquaresFbEstimator(fast_config)
        two_chirps = np.concatenate(
            [clean_chirp(fast_config, -10e3), clean_chirp(fast_config, -10e3)]
        )
        offset = 5
        estimate = estimator.estimate(two_chirps[offset : offset + fast_config.samples_per_chirp])
        rate = fast_config.bandwidth_hz**2 / fast_config.n_symbols
        expected_bias = rate * offset / fast_config.sample_rate_hz
        assert estimate.fb_hz - (-10e3) == pytest.approx(expected_bias, rel=0.1)

    def test_invalid_construction(self, fast_config):
        with pytest.raises(ConfigurationError):
            LeastSquaresFbEstimator(fast_config, search_range_hz=(5e3, -5e3))
        with pytest.raises(ConfigurationError):
            LeastSquaresFbEstimator(fast_config, method="magic")
        with pytest.raises(ConfigurationError):
            LeastSquaresFbEstimator(fast_config, zero_pad_factor=0)

    def test_short_input_rejected(self, fast_config):
        with pytest.raises(EstimationError):
            LeastSquaresFbEstimator(fast_config).estimate(np.zeros(4, dtype=complex))

    def test_range_between_bins_rejected_at_estimate_time(self, fast_config):
        # Bins sit 61 Hz apart at SF7, 0.5 Msps; a 10 Hz range holds none.
        estimator = LeastSquaresFbEstimator(fast_config, search_range_hz=(20.0, 30.0))
        with pytest.raises(EstimationError, match="excludes every FFT bin"):
            estimator.estimate(clean_chirp(fast_config, 25.0))

    def test_estimators_of_one_configuration_share_the_zoom_plan(self, fast_config):
        first = LeastSquaresFbEstimator(fast_config, search_range_hz=(-30e3, 30e3))
        second = LeastSquaresFbEstimator(fast_config, search_range_hz=(-30e3, 30e3))
        assert first._plan is second._plan
        assert LeastSquaresFbEstimator(fast_config)._plan is not first._plan

    def test_refinement_converges_in_a_few_passes(self, monkeypatch):
        # Near convergence a Newton step can round to zero and land on the
        # bracket end the slope just moved; it must count as converged,
        # not send the row into ~20 bisection passes.
        config = ChirpConfig(spreading_factor=7, sample_rate_hz=1e6)
        estimator = LeastSquaresFbEstimator(config)
        rows = []
        for seed in range(400):
            rng = np.random.default_rng(seed)
            chirp = clean_chirp(config, rng.uniform(-25e3, -17e3), phase=rng.uniform(0, 6))
            noise_power = noise_power_for_snr(1.0, rng.uniform(0, 30))
            rows.append(chirp + complex_awgn(len(chirp), noise_power, rng))
        passes = []
        correlate = estimator._correlation_batch

        def counted(*args):
            passes.append(1)
            return correlate(*args)

        monkeypatch.setattr(estimator, "_correlation_batch", counted)
        estimator.estimate_batch(np.stack(rows))
        assert len(passes) <= 3

    def test_coarse_grid_is_the_padded_fft_grid(self, fast_config):
        # 512 samples x 8 -> a 4096-point grid, 122.07 Hz per bin.
        estimate = LeastSquaresFbEstimator(fast_config).estimate(clean_chirp(fast_config, -9e3))
        bin_width = fast_config.sample_rate_hz / 4096
        assert estimate.diagnostics["fft_bin_width_hz"] == bin_width
        assert estimate.diagnostics["coarse_fb_hz"] == round(-9e3 / bin_width) * bin_width


#: Search range of the oracle property: the estimator's default.
SEARCH_RANGE_HZ = (-40e3, 40e3)


@settings(max_examples=40, deadline=None)
@given(
    spreading_factor=st.sampled_from([7, 9, 12]),
    sample_rate_hz=st.sampled_from([0.25e6, 0.5e6, 1e6]),
    snr_db=st.floats(-25.0, 30.0),
    fb_hz=st.one_of(
        st.floats(*SEARCH_RANGE_HZ),
        st.sampled_from([-40e3 - 30.0, -40e3, 40e3, 40e3 + 30.0]),
    ),
    phase=st.floats(0.0, 2 * np.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_dechirp_matches_golden_section_oracle(
    spreading_factor, sample_rate_hz, snr_db, fb_hz, phase, seed
):
    config = ChirpConfig(spreading_factor=spreading_factor, sample_rate_hz=sample_rate_hz)
    estimator = LeastSquaresFbEstimator(config, search_range_hz=SEARCH_RANGE_HZ)
    chirp = clean_chirp(config, fb_hz, phase=phase)
    noise_power = noise_power_for_snr(1.0, snr_db)
    noisy = chirp + complex_awgn(len(chirp), noise_power, np.random.default_rng(seed))
    oracle = golden_section_fb(config, noisy, SEARCH_RANGE_HZ)
    assert abs(estimator.estimate(noisy).fb_hz - oracle) <= estimator.refine_tol_hz


#: Widest search range of the zoom parity property, in bins, so that the
#: SF12 grids' transforms stay a few tens of MB.
MAX_ZOOM_BINS = 8192


@st.composite
def zoom_cases(draw):
    """A chirp configuration, zero-pad factor and a range in its grid.

    The range covers bins ``first … first + width``.  ``width = 0`` holds
    exactly one bin; ``first`` below the grid's lowest bin or ``first +
    width`` past its highest makes the range run over that edge.
    """
    config = ChirpConfig(
        spreading_factor=draw(st.integers(7, 12)),
        sample_rate_hz=draw(st.sampled_from([0.125e6, 0.25e6, 0.5e6, 1e6])),
    )
    zero_pad_factor = draw(st.sampled_from([1, 2, 8]))
    n_fft = int(2 ** np.ceil(np.log2(config.samples_per_chirp * zero_pad_factor)))
    half = n_fft // 2
    first = draw(
        st.one_of(st.integers(-half, half - 1), st.sampled_from([-half - 1, -half, half - 1]))
    )
    width = draw(
        st.one_of(
            st.just(0),
            st.integers(0, min(2 * half, MAX_ZOOM_BINS)),
            st.just(half - 1 - first),
        )
    )
    bin_width = config.sample_rate_hz / n_fft
    search_range = ((first - 0.25) * bin_width, (first + width + 0.25) * bin_width)
    return config, zero_pad_factor, search_range


@settings(max_examples=60, deadline=None)
@given(case=zoom_cases(), rows=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
def test_zoom_fft_matches_scipy(case, rows, seed):
    config, zero_pad_factor, search_range = case
    # Unwrapped, so the drawn ranges do not evict the estimators' plans.
    plan = _cached_zoom_plan.__wrapped__(config, search_range, zero_pad_factor)
    m = len(plan.freqs)
    assume(0 < m <= MAX_ZOOM_BINS + 1)
    n = config.samples_per_chirp
    first = plan.freqs[0]
    reference = ZoomFFT(
        n, (first, first + m * plan.bin_width_hz), m, fs=config.sample_rate_hz, endpoint=False
    )
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    expected = reference(x)
    np.testing.assert_allclose(plan.zoom(x), expected, rtol=0, atol=1e-9 * np.abs(expected).max())


def test_next_fast_len_matches_scipy():
    assert [_next_fast_len(target) for target in range(1, 20_000)] == [
        next_fast_len(target) for target in range(1, 20_000)
    ]


class TestAmplitudeEstimation:
    def test_recovers_amplitude(self, fast_config, rng):
        # E[I² + Q²] = A² + noise power (paper Sec. 7.1.2).
        amplitude, noise_power = 1.6, 0.9
        chirp = clean_chirp(fast_config, -10e3, amplitude=amplitude)
        noisy = chirp + complex_awgn(len(chirp), noise_power, rng)
        estimated = estimate_amplitude(noisy, noise_power)
        assert estimated == pytest.approx(amplitude, rel=0.05)

    def test_zero_noise(self, fast_config):
        chirp = clean_chirp(fast_config, 0.0, amplitude=2.0)
        assert estimate_amplitude(chirp, 0.0) == pytest.approx(2.0)

    def test_noise_dominates_clamps_to_zero(self, rng):
        noise = complex_awgn(4096, 1.0, rng)
        assert estimate_amplitude(noise, 2.0) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(EstimationError):
            estimate_amplitude(np.array([]), 0.0)
        with pytest.raises(ConfigurationError):
            estimate_amplitude(np.ones(4), -1.0)
