"""Tests for the repro.parallel layer: pools and scheduling.

The load-bearing guarantee is pinned here: worker count, chunk plan,
work-stealing order, and pool warmth change wall-clock only -- never a
single result bit.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import SweepExecutor, SweepPoint
from repro.parallel import WorkerPool, default_pool, intra_thread_count, plan_chunks
from repro.sim.rng import RngStreams


def measure_key_noise(point, trial, captures, rng):
    """Module-level (spawn-picklable) measure: keyed noise per trial."""
    return float(point.key) * 100.0 + float(rng.standard_normal())


def _points(n=6, n_trials=3):
    return [SweepPoint(key=k, n_trials=n_trials) for k in range(n)]


@pytest.fixture(scope="module")
def warm_pool():
    """One warm two-worker pool: the module pays the spawn cost once.

    It is the default pool for two workers, so executors that resolve
    the default share it too.
    """
    return default_pool(2).warm()


class TestPlanChunks:
    def test_partitions_every_index_in_order(self):
        chunks = plan_chunks([1.0] * 10, n_workers=3)
        flat = [i for chunk in chunks for i in chunk]
        assert flat == list(range(10))

    def test_balances_by_cost(self):
        # One expensive point early closes its chunk immediately.
        chunks = plan_chunks([1, 1, 5, 1, 1, 1, 1, 1], n_workers=2, chunks_per_worker=2)
        assert chunks[0][-1] == 2 or len(chunks[0]) <= 3

    def test_zero_cost_falls_back_to_even_chunks(self):
        chunks = plan_chunks([0.0] * 6, n_workers=2, chunks_per_worker=3)
        assert [i for chunk in chunks for i in chunk] == list(range(6))

    def test_empty_grid(self):
        assert plan_chunks([], n_workers=2) == []

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ConfigurationError):
            plan_chunks([1.0], n_workers=0)
        with pytest.raises(ConfigurationError):
            plan_chunks([1.0], n_workers=1, chunks_per_worker=0)


class TestIntraThreadCount:
    def test_env_override_is_ignored(self, monkeypatch):
        # The columnar kernels are serial and never read the variable.
        for value in ("4", "zero"):
            monkeypatch.setenv("REPRO_INTRA_THREADS", value)
            assert intra_thread_count() == 1


class TestWorkerPool:
    def test_default_pool_is_shared_per_signature(self):
        # Lookup alone starts no workers, so nothing needs tearing down.
        assert default_pool(4) is default_pool(4)
        assert default_pool(4) is not default_pool(5)

    def test_context_manager_lifecycle(self):
        with WorkerPool(1) as pool:
            assert pool.is_warm
            assert sorted(pool.imap_unordered(abs, [-1, -2])) == [1, 2]
        assert not pool.is_warm

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool(0)


class TestBitwiseDeterminism:
    """The tentpole invariant, across every execution knob."""

    def test_process_pool_matches_serial_at_any_worker_count(self, warm_pool):
        points = _points(n=20)
        serial = SweepExecutor(n_workers=1).run(points, measure_key_noise, point_seed=11)
        # Two and three planned workers cut different chunk plans (7
        # chunks of 3 points vs 10 of 2); the shared pool runs both.
        n_chunks = set()
        for n_workers in (2, 3):
            spawned = SweepExecutor(n_workers=n_workers, pool=warm_pool).run(
                points, measure_key_noise, point_seed=11
            )
            assert spawned.measurements == serial.measurements
            n_chunks.add(spawned.transport.n_chunks)
        assert len(n_chunks) == 2

    def test_rng_factory_policy_matches_serial(self, warm_pool):
        def factory(point):
            return RngStreams(23).fresh(f"node:{point.key}")

        points = _points()
        serial = SweepExecutor(n_workers=1).run(points, measure_key_noise, rng_factory=factory)
        spawned = SweepExecutor(n_workers=3, pool=warm_pool).run(
            points, measure_key_noise, rng_factory=factory
        )
        assert spawned.measurements == serial.measurements

    def test_shared_rng_policy_is_repeatable_serially(self):
        points = _points()
        runs = [
            SweepExecutor(n_workers=1).run(
                points, measure_key_noise, rng=np.random.default_rng(9)
            )
            for _ in range(2)
        ]
        assert runs[0].measurements == runs[1].measurements

    def test_cost_skewed_points_shape_chunks_not_results(self, warm_pool):
        # Trial counts drive the cost estimate: heavy points close
        # their chunks early, light ones share a chunk.
        points = [SweepPoint(key=k, n_trials=1 + (k % 2) * 9) for k in range(8)]
        serial = SweepExecutor(n_workers=1).run(points, measure_key_noise, point_seed=11)
        spawned = SweepExecutor(n_workers=2, pool=warm_pool).run(
            points, measure_key_noise, point_seed=11
        )
        assert spawned.measurements == serial.measurements

    def test_transport_stats_recorded(self, warm_pool):
        points = _points()
        spawned = SweepExecutor(n_workers=2, pool=warm_pool).run(
            points, measure_key_noise, point_seed=11
        )
        assert spawned.transport is not None
        assert spawned.transport.n_workers == 2
        assert spawned.transport.n_chunks >= 2
        assert spawned.transport.pool_reused
        serial = SweepExecutor(n_workers=1).run(points, measure_key_noise, point_seed=11)
        assert serial.transport is None

    def test_default_pool_reused_across_runs(self, warm_pool):
        points = _points(n=4, n_trials=2)
        executor = SweepExecutor(n_workers=2)
        first = executor.run(points, measure_key_noise, point_seed=7)
        second = executor.run(points, measure_key_noise, point_seed=7)
        assert second.transport.pool_reused
        assert first.measurements == second.measurements
