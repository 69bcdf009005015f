"""The streamed receive chain: block loop, onset pick, reused buffers.

`BatchPipeline.run` takes a batch through the onset and FB stages in
blocks of ``max(1, _BLOCK_SAMPLES // n_samples)`` rows, and every kernel
writes its temporaries into per-thread buffers reused across calls.  The
contract under test:

* every row of a batch of any size -- one block, a partial block, several
  blocks -- is bitwise equal to the single-capture APIs;
* the one onset pick (`AicDetector.pick`) gives the index and minimum
  ``np.nanargmin`` would;
* NaN or infinite samples raise `EstimationError` naming their rows
  instead of a numpy error or a plausible-looking FB;
* threads may share one pipeline, the chain's memory does not grow
  with the batch, and a warm call allocates no large array, the
  magnitude component included.
"""

import copy
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.freq_bias import LeastSquaresFbEstimator
from repro.core.onset import AicDetector
from repro.errors import ConfigurationError, EstimationError
from repro.experiments.common import ScenarioSpec
from repro.phy.chirp import ChirpConfig, upchirp
from repro.pipeline import BatchPipeline, CaptureBatch
from repro.pipeline.engine import _BLOCK_SAMPLES
from repro.sdr.noise import complex_awgn

#: (spreading factor, sample rate): SF7 and SF9 as the gateway-iq
#: benchmark runs them, and SF12 at a rate low enough to keep it quick.
CONFIGS = [(7, 1e6), (9, 0.5e6), (12, 0.25e6)]


def _block_rows(n_samples: int) -> int:
    return max(1, _BLOCK_SAMPLES // n_samples)


@pytest.fixture(scope="module", params=CONFIGS, ids=lambda c: f"sf{c[0]}-{c[1] / 1e6:g}msps")
def pool(request):
    """``2B + 3`` captures of one configuration, B being its block's row count."""
    sf, rate = request.param
    config = ChirpConfig(spreading_factor=sf, sample_rate_hz=rate)
    spec = ScenarioSpec(config, snr_db=12.0, fb_hz=-21e3, n_chirps=3)
    rng = np.random.default_rng(sf)
    probe, _ = spec.synthesize_batch(rng, 1)
    block = _block_rows(probe.n_samples)
    batch, _ = spec.synthesize_batch(rng, 2 * block + 3)
    return config, batch, block


def _late_capture(config: ChirpConfig, n: int, rng) -> np.ndarray:
    """A capture whose preamble starts so late that its FB chirp overruns it."""
    spc = config.samples_per_chirp
    samples = 0.01 * complex_awgn(n, 1.0, rng)
    samples[n - spc // 2 :] += upchirp(config)[: spc // 2]
    return samples


def _assert_matches_single_capture_apis(config, batch, result):
    detector = AicDetector()
    estimator = LeastSquaresFbEstimator(config)
    spc = config.samples_per_chirp
    assert len(result) == len(batch)
    for row in range(len(batch)):
        trace = batch.trace(row)
        onset = detector.detect(trace)
        assert result.onset_indices[row] == onset.index
        assert result.phy_timestamps_s[row] == onset.time_s
        chirp = trace.samples[onset.index + spc : onset.index + 2 * spc]
        try:
            reference = estimator.estimate(chirp)
        except EstimationError:
            assert np.isnan(result.fb_hz[row])
            continue
        assert result.fb_hz[row] == reference.fb_hz


class TestStreamedEngine:
    @pytest.mark.parametrize("size", ["1", "B-1", "B", "B+1", "2B+3"])
    def test_rows_match_single_capture_apis(self, pool, size):
        config, full, block = pool
        n = {"1": 1, "B-1": block - 1, "B": block, "B+1": block + 1, "2B+3": 2 * block + 3}[size]
        if n < 1:
            pytest.skip("a block of one row has no B-1 batch")
        samples = full.samples[:n].copy()
        late = n // 2 if n > 2 else None
        if late is not None:
            # This row's FB chirp runs past the window; with 2B+3 rows it
            # sits in the middle block.
            samples[late] = _late_capture(config, full.n_samples, np.random.default_rng(n))
        batch = CaptureBatch(
            samples=samples,
            sample_rate_hz=full.sample_rate_hz,
            start_times_s=np.linspace(0.0, 1.0, n),
        )
        engine = BatchPipeline(config=config)
        calls = []
        estimate_batch = engine.fb_estimator.estimate_batch

        def recording(chirps, noise_powers=None, **kwargs):
            calls.append(noise_powers)
            return estimate_batch(chirps, noise_powers=noise_powers, **kwargs)

        engine.fb_estimator.estimate_batch = recording
        powers = np.arange(1.0, n + 1.0)
        result = engine.run(batch, noise_powers=powers)
        _assert_matches_single_capture_apis(config, batch, result)
        missing = np.isnan(result.fb_hz)
        assert list(np.flatnonzero(missing)) == ([] if late is None else [late])
        # Each block hands the estimator the noise powers of its own
        # fitting rows, in order.
        assert len(calls) == -(-n // block)
        np.testing.assert_array_equal(np.concatenate(calls), powers[~missing])

    def test_a_second_call_reuses_every_buffer(self, pool):
        config, batch, _ = pool
        engine = BatchPipeline(config=config)
        first = engine.run(batch)
        owners = (engine, engine.onset_detector, engine.fb_estimator)
        buffers = [dict(owner._scratch._buffers) for owner in owners]
        second = engine.run(batch)
        for owner, before in zip(owners, buffers):
            after = owner._scratch._buffers
            assert after.keys() == before.keys()
            assert all(after[name] is before[name] for name in before)
        np.testing.assert_array_equal(first.fb_hz, second.fb_hz)

    def test_threads_sharing_one_pipeline_match_a_serial_run(self, pool):
        # More threads than cores, switching often: each thread must keep
        # to its own buffers while the others run the same kernels.
        config, batch, block = pool
        engine = BatchPipeline(config=config)
        halves = [
            CaptureBatch(samples=rows, sample_rate_hz=batch.sample_rate_hz)
            for rows in (batch.samples[: block + 1], batch.samples[block + 1 :])
        ]
        serial = [BatchPipeline(config=config).run(half) for half in halves]
        results: list[list] = [[] for _ in range(4)]
        barrier = threading.Barrier(len(results))

        def work(which: int) -> None:
            barrier.wait()
            for turn in range(3):
                results[which].append(engine.run(halves[(which + turn) % 2]))

        threads = [threading.Thread(target=work, args=(which,)) for which in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for which, runs in enumerate(results):
            assert len(runs) == 3
            for turn, result in enumerate(runs):
                expected = serial[(which + turn) % 2]
                np.testing.assert_array_equal(result.onset_indices, expected.onset_indices)
                np.testing.assert_array_equal(result.phy_timestamps_s, expected.phy_timestamps_s)
                np.testing.assert_array_equal(result.fb_hz, expected.fb_hz)

    @pytest.mark.parametrize(
        "clone",
        [lambda engine: pickle.loads(pickle.dumps(engine)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copies_start_with_empty_buffers(self, pool, clone):
        config, batch, _ = pool
        engine = BatchPipeline(config=config)
        expected = engine.run(batch)
        twin = clone(engine)
        assert not twin.onset_detector._scratch._buffers
        np.testing.assert_array_equal(twin.run(batch).fb_hz, expected.fb_hz)


def test_memory_does_not_grow_with_the_batch():
    # 256 SF9 captures hold 16 times the samples of 16, but go through
    # the same blocks; at the parent of the streamed engine the peaks
    # were 38.3 MB and 3.6 MB.
    config = ChirpConfig(spreading_factor=9, sample_rate_hz=0.5e6)
    spec = ScenarioSpec(config, snr_db=10.0, fb_hz=-20e3, n_chirps=3)
    small, _ = spec.synthesize_batch(np.random.default_rng(2), 16)
    large = CaptureBatch(samples=np.tile(small.samples, (16, 1)), sample_rate_hz=0.5e6)
    peaks = []
    for batch in (small, large):
        engine = BatchPipeline(config=config)
        tracemalloc.start()
        try:
            engine.run(batch)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 1_000_000, peaks


class TestOnsetPick:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 12),
        min_segment=st.integers(2, 12),
        margin=st.sampled_from([0.0, 0.01, 0.05, 0.2]),
        extra=st.integers(1, 300),
        ties=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # One admissible split point: 2 * min_segment + 1 samples, no margin.
    @example(rows=4, min_segment=8, margin=0.0, extra=1, ties=False, seed=0)
    def test_pick_matches_nanargmin(self, rows, min_segment, margin, extra, ties, seed):
        detector = AicDetector(min_segment=min_segment, margin_fraction=margin)
        n = 2 * min_segment + extra
        rng = np.random.default_rng(seed)
        onset = rng.integers(1, n)
        stack = rng.standard_normal((rows, n))
        stack[:, onset:] *= rng.uniform(1.0, 20.0)
        curves = detector.aic_curve_batch(stack)
        if ties:
            # Few distinct values, so the first of equal minima must win.
            curves = np.where(np.isnan(curves), np.nan, np.round(curves / 1e3))
        if np.isnan(curves).all():
            # The margin blanks every split point of this length.
            with pytest.raises(EstimationError, match="no admissible"):
                detector.pick(curves)
            return
        indices, minima = detector.pick(curves)
        expected = np.nanargmin(curves, axis=1)
        np.testing.assert_array_equal(indices, expected)
        assert minima.tobytes() == curves[np.arange(rows), expected].tobytes()
        if not ties:
            indices, _ = detector.pick(detector.aic_curve_batch(stack))
            np.testing.assert_array_equal(indices, expected)

    def test_curves_are_written_into_out(self, rng):
        detector = AicDetector()
        stack = rng.standard_normal((11, 200))
        out = np.empty((11, 200))
        assert detector.aic_curve_batch(stack, out=out) is out
        np.testing.assert_array_equal(out, detector.aic_curve_batch(stack))
        with pytest.raises(ConfigurationError, match="does not match"):
            detector.aic_curve_batch(stack, out=np.empty((11, 199)))


class TestNonFiniteSamples:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_detect_names_the_trace(self, fast_config, rng, bad):
        from repro.experiments.common import synthesize_capture

        trace = synthesize_capture(fast_config, rng, snr_db=20.0).trace
        trace.samples[100] = bad
        with pytest.raises(EstimationError, match=r"capture rows \[0\]"):
            AicDetector().detect(trace)

    def test_batch_names_every_bad_row_of_its_block(self, fast_config, rng):
        batch, _ = ScenarioSpec(fast_config, snr_db=20.0).synthesize_batch(rng, 6)
        batch.samples[1, 50] = np.nan
        batch.samples[4, -3] = complex(np.inf, 0.0)
        assert _block_rows(batch.n_samples) >= len(batch)
        with pytest.raises(EstimationError, match=r"capture rows \[1, 4\]"):
            BatchPipeline(config=fast_config).run(batch)

    def test_rows_are_numbered_across_blocks(self, fast_config, rng, monkeypatch):
        import repro.pipeline.engine as engine

        batch, _ = ScenarioSpec(fast_config, snr_db=20.0).synthesize_batch(rng, 5)
        batch.samples[3, 10] = np.nan
        monkeypatch.setattr(engine, "_BLOCK_SAMPLES", 2 * batch.n_samples)
        with pytest.raises(EstimationError, match=r"capture rows \[3\]"):
            BatchPipeline(config=fast_config).run(batch)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_fb_estimate_refuses_a_nan_chirp(self, fast_config):
        estimator = LeastSquaresFbEstimator(fast_config)
        chirp = np.full(fast_config.samples_per_chirp, np.nan, dtype=complex)
        with pytest.raises(EstimationError, match=r"capture rows \[0\]"):
            estimator.estimate(chirp)
        stack = np.stack([upchirp(fast_config, fb_hz=-2e4)] * 3)
        stack[2, 7] = np.inf
        with pytest.raises(EstimationError, match=r"capture rows \[2\]"):
            estimator.estimate_batch(stack)
        with pytest.raises(EstimationError, match=r"capture rows \[9\]"):
            estimator.estimate_batch(stack, capture_rows=np.array([5, 7, 9]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_batch_names_the_capture_row_of_a_bad_fb_chirp(self, fast_config, rng, monkeypatch):
        # A NaN in Q only passes the AIC pick on I; the FB stage catches
        # it and must name the capture row, not its slot in the block's
        # chirp stack.
        import repro.pipeline.engine as engine

        batch, _ = ScenarioSpec(fast_config, snr_db=20.0).synthesize_batch(rng, 5)
        monkeypatch.setattr(engine, "_BLOCK_SAMPLES", 2 * batch.n_samples)
        pipeline = BatchPipeline(config=fast_config)
        spc = fast_config.samples_per_chirp
        onset = pipeline.run(batch).onset_indices[3]
        batch.samples[3, onset + spc + spc // 2] = complex(0.0, np.nan)
        with pytest.raises(EstimationError, match=r"FB correlation .* capture rows \[3\]"):
            pipeline.run(batch)

    def test_de_fb_estimate_refuses_a_nan_chirp(self, fast_config):
        estimator = LeastSquaresFbEstimator(fast_config, method="de")
        chirp = np.full(fast_config.samples_per_chirp, np.nan, dtype=complex)
        with pytest.raises(EstimationError, match="not finite"):
            estimator.estimate(chirp)


def test_estimate_batch_dechirps_its_chirp_buffer_in_place(fast_config, rng):
    estimator = LeastSquaresFbEstimator(fast_config)
    chirps = np.stack(
        [
            upchirp(fast_config, fb_hz=fb) + complex_awgn(fast_config.samples_per_chirp, 0.1, rng)
            for fb in (-23e3, -19e3, -30e3)
        ]
    )
    expected = estimator.estimate_batch(chirps)
    buffer = estimator.chirp_buffer(4)
    buffer[:3] = chirps
    np.testing.assert_array_equal(estimator.estimate_batch(buffer[:3]), expected)
    assert not np.array_equal(buffer[:3], chirps)


def test_a_warm_magnitude_call_allocates_no_large_array():
    # A block of 14 SF9 captures has a 1 MB magnitude; before it was
    # written into a reused buffer the warm call's peak was 2.08 MB,
    # against 0.30 MB on the I component.
    config = ChirpConfig(spreading_factor=9, sample_rate_hz=0.5e6)
    spec = ScenarioSpec(config, snr_db=10.0, fb_hz=-20e3, n_chirps=3)
    batch, _ = spec.synthesize_batch(np.random.default_rng(3), 64)
    engine = BatchPipeline(config=config)
    first = engine.run(batch, component="magnitude")
    tracemalloc.start()
    try:
        second = engine.run(batch, component="magnitude")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak
    np.testing.assert_array_equal(first.fb_hz, second.fb_hz)
    detector = AicDetector()
    for row in range(len(batch)):
        onset = detector.detect(batch.trace(row), component="magnitude")
        assert second.onset_indices[row] == onset.index
        assert second.phy_timestamps_s[row] == onset.time_s
