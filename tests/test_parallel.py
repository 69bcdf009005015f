"""Tests for parallel sweeps: one spawn pool per run, one task per point.

The load-bearing guarantee is pinned here: worker count and completion
order change wall-clock only -- never a single result bit -- and a run
leaves no worker process behind, whether it returns or raises.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.common import SweepExecutor, SweepPoint
from repro.parallel import intra_thread_count
from repro.sim.rng import RngStreams

SRC = Path(__file__).resolve().parents[1] / "src"

#: A sweep whose worker dies at point 2.  Spawned workers re-import the
#: main module by path, so it runs from a file.
DYING_WORKER_SCRIPT = """
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

from repro.experiments.common import SweepExecutor, SweepPoint


def measure(point, trial, captures, rng):
    if point.key == 2:
        os._exit(3)
    return float(point.key)


if __name__ == "__main__":
    try:
        SweepExecutor(n_workers=2).run([SweepPoint(key=k) for k in range(6)], measure)
    except BrokenProcessPool:
        print("raised", len(multiprocessing.active_children()))
    else:
        print("returned")
"""


def measure_key_noise(point, trial, captures, rng):
    """Module-level (spawn-picklable) measure: keyed noise per trial."""
    return float(point.key) * 100.0 + float(rng.standard_normal())


def measure_or_fail(point, trial, captures, rng):
    """Measure that raises at one key, to check the error path."""
    if point.key == 3:
        raise ValueError(f"measure failed at point {point.key}")
    return float(point.key)


#: Wall time of each point after the first in the fail-fast sweep.
POINT_S = 1.0


def measure_fail_first_then_sleep(point, trial, captures, rng):
    """Measure whose first point raises at once and whose others take ``POINT_S``."""
    if point.key == 0:
        raise ValueError("the first point failed")
    time.sleep(POINT_S)
    return float(point.key)


def measure_key(point, trial, captures, rng):
    """Measure that does no work."""
    return float(point.key)


def measure_importing_scipy(point, trial, captures, rng):
    """Measure that leaves scipy loaded in the worker that ran it."""
    import scipy.signal  # noqa: F401

    return float(point.key)


def measure_scipy_modules(point, trial, captures, rng):
    """Measure that reports the scipy modules its worker holds."""
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


def _points(n=6, n_trials=3):
    return [SweepPoint(key=k, n_trials=n_trials) for k in range(n)]


class TestIntraThreadCount:
    def test_env_override_is_ignored(self, monkeypatch):
        # The columnar kernels are serial and never read the variable.
        for value in ("4", "zero"):
            monkeypatch.setenv("REPRO_INTRA_THREADS", value)
            assert intra_thread_count() == 1


class TestBitwiseDeterminism:
    """The tentpole invariant, across worker counts and rng policies."""

    def test_process_pool_matches_serial_at_any_worker_count(self):
        points = _points(n=20)
        serial = SweepExecutor(n_workers=1).run(points, measure_key_noise, point_seed=11)
        for n_workers in (2, 3):
            spawned = SweepExecutor(n_workers=n_workers).run(
                points, measure_key_noise, point_seed=11
            )
            assert spawned.measurements == serial.measurements
            assert spawned.keys() == serial.keys()

    def test_rng_factory_policy_matches_serial(self):
        def factory(point):
            return RngStreams(23).fresh(f"node:{point.key}")

        points = _points()
        serial = SweepExecutor(n_workers=1).run(points, measure_key_noise, rng_factory=factory)
        spawned = SweepExecutor(n_workers=3).run(points, measure_key_noise, rng_factory=factory)
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

    def test_cost_skewed_points_shape_chunks_not_results(self):
        # Heavy and light points alternate, so workers finish out of
        # declaration order; the results still come back in it.
        points = [SweepPoint(key=k, n_trials=1 + (k % 2) * 9) for k in range(8)]
        serial = SweepExecutor(n_workers=1).run(points, measure_key_noise, point_seed=11)
        spawned = SweepExecutor(n_workers=2).run(points, measure_key_noise, point_seed=11)
        assert spawned.measurements == serial.measurements
        assert list(spawned.measurements) == list(range(8))


class TestPoolLifecycle:
    def test_no_worker_outlives_a_run_that_returns_or_raises(self):
        SweepExecutor(n_workers=2).run(_points(n=4), measure_key_noise, point_seed=7)
        assert multiprocessing.active_children() == []
        with pytest.raises(ValueError, match="failed at point 3"):
            SweepExecutor(n_workers=2).run(_points(n=6, n_trials=1), measure_or_fail)
        assert multiprocessing.active_children() == []

    def test_an_error_lets_only_the_running_points_finish(self):
        # Pool start-up and shutdown alone: one idle point per worker.
        start = time.perf_counter()
        SweepExecutor(n_workers=2).run(_points(n=2, n_trials=1), measure_key)
        pool_s = time.perf_counter() - start
        # Only the point running beside the failed one may finish (about
        # pool_s + POINT_S); the other ten must never start.  A pool that
        # had queued further points ran two more and took pool_s + 2 s.
        start = time.perf_counter()
        with pytest.raises(ValueError, match="the first point failed"):
            SweepExecutor(n_workers=2).run(_points(n=12, n_trials=1), measure_fail_first_then_sleep)
        elapsed_s = time.perf_counter() - start
        assert elapsed_s < pool_s + 1.5 * POINT_S, (elapsed_s, pool_s)
        assert multiprocessing.active_children() == []

    def test_sweep_worker_holds_no_scipy(self):
        # The default receive chain and the sweep machinery run on numpy
        # alone.  Each run spawns fresh workers, so a module an earlier
        # run's measure imported is gone from the next run's workers.
        SweepExecutor(n_workers=2).run(_points(n=8, n_trials=1), measure_importing_scipy)
        result = SweepExecutor(n_workers=2).run(_points(n=8, n_trials=1), measure_scipy_modules)
        assert result.flat() == [[]] * 8

    def test_a_dying_worker_raises_instead_of_hanging(self, tmp_path):
        # A pool that respawns the dead worker waits forever for its lost
        # task; the sweep must raise within seconds and leave no child.
        script = tmp_path / "dying_worker.py"
        script.write_text(textwrap.dedent(DYING_WORKER_SCRIPT))
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["raised", "0"], result.stdout
