"""Regression tests for the batched capture-processing engine.

The contract under test: a batch of one is *bitwise identical* to the
single-capture APIs (`AicDetector`, `LeastSquaresFbEstimator`), and
every row of a larger batch matches the corresponding single-capture
call exactly.  Plus edge cases: minimum length traces in a batch, short
FB chirps, ragged inputs.
"""

import re

import numpy as np
import pytest

from repro.core.freq_bias import LeastSquaresFbEstimator
from repro.core.onset import AicDetector
from repro.errors import ConfigurationError, EstimationError
from repro.experiments.common import synthesize_capture
from repro.phy.chirp import (
    ChirpConfig,
    cached_base_downchirp,
    cached_base_upchirp,
    cached_sample_times,
    cached_sweep_phase,
    downchirp,
    upchirp,
)
from repro.pipeline import BatchPipeline, CaptureBatch
from repro.sdr.iq import IQTrace
from repro.sdr.noise import complex_awgn


@pytest.fixture
def captures(fast_config, rng):
    return [
        synthesize_capture(
            fast_config, rng, snr_db=20.0, fb_hz=float(rng.uniform(-25e3, -17e3))
        )
        for _ in range(5)
    ]


class TestChirpCache:
    def test_cached_references_match_fresh_synthesis(self, fast_config):
        np.testing.assert_array_equal(
            cached_sample_times(fast_config), fast_config.sample_times()
        )
        np.testing.assert_array_equal(cached_base_upchirp(fast_config), upchirp(fast_config))
        np.testing.assert_array_equal(
            cached_base_downchirp(fast_config), downchirp(fast_config)
        )

    def test_cache_hit_returns_same_object(self, fast_config):
        same_config = ChirpConfig(
            spreading_factor=fast_config.spreading_factor,
            sample_rate_hz=fast_config.sample_rate_hz,
        )
        assert cached_sweep_phase(fast_config) is cached_sweep_phase(same_config)

    def test_cached_arrays_are_read_only(self, fast_config):
        with pytest.raises(ValueError):
            cached_base_upchirp(fast_config)[0] = 0.0


class TestAicBatch:
    def test_batch_of_one_is_bitwise_identical(self, captures):
        detector = AicDetector()
        trace = captures[0].trace
        single_curve = detector.aic_curve(trace.i)
        batch_curve = detector.aic_curve_batch(trace.i[np.newaxis, :])[0]
        np.testing.assert_array_equal(single_curve, batch_curve)

        batch = CaptureBatch.from_traces([trace])
        (index,), (minimum,) = detector.pick(detector.aic_curve_batch(batch.component("i")))
        reference = detector.detect(trace)
        assert index == reference.index
        assert batch.times_of_indices(np.array([index]))[0] == reference.time_s
        assert {"aic_min": float(minimum)} == reference.diagnostics

    def test_every_batch_row_matches_single(self, captures):
        detector = AicDetector()
        batch = CaptureBatch.from_traces([c.trace for c in captures])
        indices, _ = detector.pick(detector.aic_curve_batch(batch.component("i")))
        times = batch.times_of_indices(indices)
        for index, time_s, capture in zip(indices, times, captures):
            reference = detector.detect(capture.trace)
            assert index == reference.index
            assert time_s == reference.time_s

    def test_rows_of_a_multi_chunk_batch_match_single(self, rng):
        # 19 rows span several kernel chunks, the last one partial.
        detector = AicDetector()
        stack = np.concatenate(
            [0.1 * rng.standard_normal((19, 300)), rng.standard_normal((19, 500)) + 0.5], axis=1
        )
        curves = detector.aic_curve_batch(stack)
        for row in range(len(stack)):
            np.testing.assert_array_equal(curves[row], detector.aic_curve(stack[row]))

    def test_minimum_length_batch(self, rng):
        # The shortest trace with an admissible split point: the edge
        # guards blank min_segment samples at each end, so 2*min_segment+1
        # leaves exactly one candidate.  A whole batch at that length must
        # pick it, agreeing with the single-capture path.
        detector = AicDetector(min_segment=8)
        n = 2 * detector.min_segment + 1
        stack = np.concatenate(
            [
                0.01 * rng.standard_normal((4, n // 2)),
                rng.standard_normal((4, n - n // 2)) + 1.0,
            ],
            axis=1,
        )
        indices, _ = detector.pick(detector.aic_curve_batch(stack))
        assert list(indices) == [detector.min_segment] * 4
        for row in range(len(stack)):
            trace = IQTrace(stack[row] + 0j, 1e6)
            assert int(indices[row]) == detector.detect(trace, component="i").index

    def test_below_minimum_length_rejected(self, rng):
        detector = AicDetector(min_segment=8)
        with pytest.raises(EstimationError):
            detector.aic_curve_batch(rng.standard_normal((3, 2 * detector.min_segment - 1)))
        # 2*min_segment parses but the guards blank every split point --
        # identical all-NaN behaviour to the single-capture curve.
        curves = detector.aic_curve_batch(rng.standard_normal((3, 2 * detector.min_segment)))
        assert np.all(np.isnan(curves))

    def test_non_2d_batch_rejected(self, rng):
        with pytest.raises(EstimationError):
            AicDetector().aic_curve_batch(rng.standard_normal(64))


class TestFbBatch:
    def test_batch_of_one_is_bitwise_identical(self, fast_config, rng):
        estimator = LeastSquaresFbEstimator(fast_config)
        chirp = upchirp(fast_config, fb_hz=-21e3, phase=1.1) + complex_awgn(
            fast_config.samples_per_chirp, 0.05, rng
        )
        single = estimator.estimate(chirp)
        batched = estimator.estimate_batch(chirp[np.newaxis, :])
        assert batched.dtype == float and batched.shape == (1,)
        assert single.fb_hz == batched[0]

    def test_every_batch_row_matches_single(self, fast_config, rng):
        estimator = LeastSquaresFbEstimator(fast_config)
        spc = fast_config.samples_per_chirp
        stack = np.stack(
            [
                upchirp(fast_config, fb_hz=fb, phase=p) + complex_awgn(spc, 0.02, rng)
                for fb, p in [(-24e3, 0.3), (-19e3, 2.0), (-17e3, 5.1), (8e3, 1.0)]
            ]
        )
        for row, batched in enumerate(estimator.estimate_batch(stack)):
            assert estimator.estimate(stack[row]).fb_hz == batched

    def test_clipped_bracket_row_matches_single(self):
        # The first row's ±1 bin bracket is cut short by the search range;
        # its refinement must not depend on the unclipped row beside it.
        config = ChirpConfig(spreading_factor=7, sample_rate_hz=1e6)
        top = 327 * 1e6 / 8192 + 0.5
        estimator = LeastSquaresFbEstimator(config, search_range_hz=(-40e3, top))
        stack = np.stack([upchirp(config, fb_hz=top + 30.0), upchirp(config, fb_hz=-20e3)])
        for row, batched in enumerate(estimator.estimate_batch(stack)):
            assert estimator.estimate(stack[row]).fb_hz == batched
        # The tone lies past the range, so the estimate pins to its edge.
        assert top - estimator.refine_tol_hz <= estimator.estimate(stack[0]).fb_hz <= top

    def test_list_input_accepted(self, fast_config):
        estimator = LeastSquaresFbEstimator(fast_config)
        chirps = [upchirp(fast_config, fb_hz=-20e3), upchirp(fast_config, fb_hz=-18e3)]
        estimates = estimator.estimate_batch(chirps)
        assert estimates[0] == pytest.approx(-20e3, abs=0.5)
        assert estimates[1] == pytest.approx(-18e3, abs=0.5)

    def test_short_rows_rejected(self, fast_config):
        estimator = LeastSquaresFbEstimator(fast_config)
        with pytest.raises(EstimationError):
            estimator.estimate_batch(np.zeros((2, fast_config.samples_per_chirp - 1), complex))

    def test_de_batch_falls_back_to_row_loop(self, rng):
        config = ChirpConfig(spreading_factor=7, sample_rate_hz=0.25e6)
        de = LeastSquaresFbEstimator(config, search_range_hz=(-20e3, 20e3), method="de")
        chirp = upchirp(config, fb_hz=-7.5e3, phase=2.0)
        batched = de.estimate_batch(chirp[np.newaxis, :])
        assert batched.dtype == float and batched.shape == (1,)
        assert batched[0] == pytest.approx(-7.5e3, abs=5.0)


class TestCaptureBatch:
    def test_from_traces_requires_uniform_shape(self, fast_config, rng):
        a = IQTrace(complex_awgn(100, 1.0, rng), 1e6)
        b = IQTrace(complex_awgn(101, 1.0, rng), 1e6)
        with pytest.raises(ConfigurationError):
            CaptureBatch.from_traces([a, b])
        c = IQTrace(complex_awgn(100, 1.0, rng), 2e6)
        with pytest.raises(ConfigurationError):
            CaptureBatch.from_traces([a, c])

    def test_round_trip_preserves_timing(self, captures):
        batch = CaptureBatch.from_traces([c.trace for c in captures])
        for row, capture in enumerate(captures):
            trace = batch.trace(row)
            assert trace.start_time_s == capture.trace.start_time_s
            np.testing.assert_array_equal(trace.samples, capture.trace.samples)

    def test_rate_must_be_finite_and_positive(self):
        for rate in (0.0, -1e6, np.nan, np.inf):
            with pytest.raises(ConfigurationError, match="finite and positive"):
                CaptureBatch(np.zeros((2, 8), dtype=complex), rate)


class TestBatchPipeline:
    def test_stages_match_single_capture_chain(self, fast_config, captures):
        engine = BatchPipeline(config=fast_config)
        batch = CaptureBatch.from_traces([c.trace for c in captures])
        result = engine.run(batch)
        detector = AicDetector()
        estimator = LeastSquaresFbEstimator(fast_config)
        spc = fast_config.samples_per_chirp
        for row, capture in enumerate(captures):
            onset = detector.detect(capture.trace, component="i")
            assert result.onset_indices[row] == onset.index
            assert result.phy_timestamps_s[row] == onset.time_s
            reference = estimator.estimate(
                capture.trace.samples[onset.index + spc : onset.index + 2 * spc]
            )
            assert result.fb_hz[row] == reference.fb_hz

    def test_short_tail_rows_carry_error_not_crash(self, fast_config, rng):
        # A capture whose preamble starts so late that no second chirp
        # fits must skip FB estimation, its error marked by a NaN FB, but
        # keep its onset/timestamp.
        spc = fast_config.samples_per_chirp
        quiet = 0.01 * complex_awgn(4 * spc, 1.0, rng)
        late = np.concatenate(
            [quiet[: 3 * spc + spc // 2], upchirp(fast_config)[: spc // 2]]
        )
        # Onset near 1.5 chirps: its FB chirp ends inside the 4-chirp window.
        good = synthesize_capture(fast_config, rng, snr_db=25.0, n_chirps=4).trace
        batch = CaptureBatch.from_traces(
            [IQTrace(late, fast_config.sample_rate_hz), good.slice_samples(0, len(late))]
        )
        result = BatchPipeline(config=fast_config).run(batch)
        for row in range(len(batch)):
            onset = AicDetector().detect(batch.trace(row))
            assert result.onset_indices[row] == onset.index
            assert result.phy_timestamps_s[row] == onset.time_s
        assert np.isnan(result.fb_hz[0])
        onset = result.onset_indices[1]
        chirp = batch.samples[1, onset + spc : onset + 2 * spc]
        assert result.fb_hz[1] == LeastSquaresFbEstimator(fast_config).estimate(chirp).fb_hz

    def test_noise_powers_must_match_batch_length(self, fast_config, captures):
        batch = CaptureBatch.from_traces([c.trace for c in captures])
        engine = BatchPipeline(config=fast_config)
        for powers in (np.ones(len(batch) - 1), np.ones((len(batch), 1))):
            shape = powers.shape
            message = re.escape(f"noise powers of shape {shape} do not match {len(batch)} captures")
            with pytest.raises(ConfigurationError, match=message):
                engine.run(batch, noise_powers=powers)
