"""Tests for the parallel sweep executor (repro.experiments.common)."""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import (
    ScenarioSpec,
    SweepExecutor,
    SweepPoint,
    run_sweep,
    uniform_fb,
)


def _spec(config):
    return ScenarioSpec(config, snr_db=20.0, fb_hz=uniform_fb(), n_chirps=2)


def measure_fb(point, trial, capture, prng):
    """Module-level (spawn-picklable) measure: the capture's drawn FB."""
    return capture.fb_hz if capture is not None else float(point.key)


class TestSerialEquivalence:
    def test_executor_n1_reproduces_run_sweep_exactly(self, fast_config):
        points = [SweepPoint(key=k, spec=_spec(fast_config), n_trials=3) for k in (1, 2)]
        classic = run_sweep(points, measure_fb, rng=np.random.default_rng(42))
        executor = SweepExecutor(n_workers=1).run(points, measure_fb, rng=np.random.default_rng(42))
        assert classic.measurements == executor.measurements
        assert classic.keys() == executor.keys()

    def test_point_seed_results_independent_of_grid(self, fast_config):
        def run_grid(keys):
            return SweepExecutor(n_workers=1).run(
                [SweepPoint(key=k, spec=_spec(fast_config)) for k in keys],
                measure_fb,
                point_seed=7,
            )

        full = run_grid(["a", "b", "c"])
        reordered = run_grid(["c", "a"])
        assert full.trials("a") == reordered.trials("a")
        assert full.trials("c") == reordered.trials("c")


class TestValidation:
    def test_at_most_one_rng_mode(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor().run(
                [SweepPoint(key=1)],
                measure_fb,
                rng=np.random.default_rng(0),
                point_seed=3,
            )

    def test_shared_rng_rejected_in_parallel(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(n_workers=2).run(
                [SweepPoint(key=1)], measure_fb, rng=np.random.default_rng(0)
            )

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor().run([SweepPoint(key=1), SweepPoint(key=1)], measure_fb)

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(n_workers=0).run([SweepPoint(key=1)], measure_fb)

    def test_spec_without_rng_rejected(self, fast_config):
        with pytest.raises(ConfigurationError):
            SweepExecutor().run([SweepPoint(key=1, spec=_spec(fast_config))], measure_fb)

    def test_zero_trials_fails_fast_in_parent(self):
        # The parent validates the whole grid before any dispatch, so a
        # bad trial count surfaces as a clear error naming the point --
        # not a traceback from inside a spawn worker.
        with pytest.raises(ConfigurationError, match="'bad'"):
            SweepExecutor(n_workers=2).run(
                [SweepPoint(key="ok"), SweepPoint(key="bad", n_trials=0)],
                measure_fb,
                point_seed=1,
            )

    def test_spec_without_rng_fails_fast_in_parallel_parent(self, fast_config):
        with pytest.raises(ConfigurationError, match="no rng"):
            SweepExecutor(n_workers=2).run(
                [SweepPoint(key=1, spec=_spec(fast_config))], measure_fb
            )


class TestSpawnSafety:
    def test_scenario_spec_with_stock_fb_law_pickles(self, fast_config):
        spec = _spec(fast_config)
        clone = pickle.loads(pickle.dumps(spec))
        draws_a = clone.fb_hz(np.random.default_rng(3))
        draws_b = spec.fb_hz(np.random.default_rng(3))
        assert draws_a == draws_b

    def test_parallel_matches_serial(self, fast_config):
        points = [SweepPoint(key=k, spec=_spec(fast_config), n_trials=2) for k in ("p", "q")]
        serial = SweepExecutor(n_workers=1).run(points, measure_fb, point_seed=5)
        parallel = SweepExecutor(n_workers=2).run(points, measure_fb, point_seed=5)
        assert serial.measurements == parallel.measurements
