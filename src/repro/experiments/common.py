"""Shared scenario machinery for the experiment drivers.

Every figure/table driver used to hand-roll its own synthesize-and-sweep
loop around :func:`synthesize_capture`.  They now share one declarative
pipeline instead:

* :class:`ScenarioSpec` -- a frozen description of one capture condition
  (chirp config, SNR, FB law, preamble length, noise model ...), with
  :meth:`ScenarioSpec.synthesize` producing a ground-truthed capture and
  :meth:`ScenarioSpec.synthesize_batch` a stacked
  :class:`repro.pipeline.CaptureBatch` for the batched engine;
* :class:`SweepPoint` -- one point of a sweep: a key (SNR value, survey
  cell, node index ...), the spec (or named spec variants) to synthesize
  there, and a trial count;
* :class:`SweepExecutor` -- the engine that walks every point/trial,
  synthesizes the declared captures, and hands them to the driver's
  ``measure`` callback -- serially, or fanned out over a ``spawn``
  process pool (``n_workers > 1``), one task per point;
* :func:`run_sweep` -- the classic serial entry, now a thin wrapper
  around ``SweepExecutor(n_workers=1)``.

The serial runner preserves the classic drivers' rng call order (per
trial: FB draw, then phase draw, then onset fraction, then noise), so
ported drivers regenerate the exact numbers their hand-rolled loops
produced.  A parallel run opens its own ``spawn`` process pool, sends
one task per point in declaration order, at most one per worker at a
time, and shuts the pool down before ``run()`` returns or raises.
Everything that crosses the process boundary -- points, specs, the
``measure`` callable, per-point generators -- must pickle: module-level
functions (or :func:`functools.partial` over them) instead of closures,
and :class:`UniformFbLaw` instead of a lambda for the stock FB draw.
Per-point seeds derive deterministically through
:class:`repro.sim.rng.RngStreams`, so results are *bitwise* identical
at any worker count.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.chirp import ChirpConfig, preamble_at_times
from repro.sdr.iq import IQTrace
from repro.sdr.noise import RealNoiseModel, complex_awgn, noise_power_for_snr
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class SynthesizedCapture:
    """A synthetic SDR capture with exact ground truth."""

    trace: IQTrace
    true_onset_time_s: float
    true_onset_index_float: float
    fb_hz: float
    snr_db: float
    noise_power: float


def synthesize_capture(
    config: ChirpConfig,
    rng: np.random.Generator,
    snr_db: float = 30.0,
    fb_hz: float = -20e3,
    phase: float | None = None,
    n_chirps: int = 8,
    pad_chirps: float = 1.5,
    fractional_onset: bool = True,
    amplitude: float = 1.0,
    noise_model: RealNoiseModel | None = None,
    start_time_s: float = 0.0,
) -> SynthesizedCapture:
    """One noise-padded preamble capture, onset between ADC samples.

    The capture contains ``pad_chirps`` chirp-times of pure noise followed
    by signal running to the end of the window: a real SoftLoRa capture
    ends while the (much longer) frame is still on the air, so the onset
    is the *only* statistical change point in the trace.  When
    ``fractional_onset`` is set the true onset is offset by a random
    sub-sample fraction -- the paper's upper-bound metric exists exactly
    because of this unobservable fraction.
    """
    if phase is None:
        phase = float(rng.uniform(0.0, 2 * np.pi))
    fs = config.sample_rate_hz
    spc = config.samples_per_chirp
    pad = int(round(pad_chirps * spc))
    total = pad + n_chirps * spc
    fraction = float(rng.uniform(0.0, 1.0)) if fractional_onset else 0.0
    onset_index_float = pad + fraction
    onset_time = onset_index_float / fs
    t = np.arange(total) / fs - onset_time
    # One extra chirp-time of signal guarantees coverage to the window end
    # despite the fractional onset shift.
    clean = preamble_at_times(
        t, config, n_chirps=n_chirps + 1, fb_hz=fb_hz, phase=phase, amplitude=amplitude
    )
    noise_power = noise_power_for_snr(amplitude**2, snr_db)
    if noise_model is None:
        noise = complex_awgn(total, noise_power, rng)
    else:
        noise = noise_model.generate(total, noise_power, rng)
    trace = IQTrace(clean + noise, fs, start_time_s=start_time_s)
    return SynthesizedCapture(
        trace=trace,
        true_onset_time_s=start_time_s + onset_time,
        true_onset_index_float=onset_index_float,
        fb_hz=fb_hz,
        snr_db=snr_db,
        noise_power=noise_power,
    )


@dataclass(frozen=True)
class UniformFbLaw:
    """A picklable FB law: uniform over a band, drawn per trial.

    Being a frozen dataclass (not a closure) it survives the ``spawn``
    pickling boundary, so specs carrying it can cross into
    :class:`SweepExecutor` worker processes.
    """

    low_hz: float = -25e3
    high_hz: float = -17e3

    def __call__(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low_hz, self.high_hz))


def uniform_fb(low_hz: float = -25e3, high_hz: float = -17e3) -> UniformFbLaw:
    """The drivers' stock FB law: uniform over the paper's measured band."""
    return UniformFbLaw(low_hz=low_hz, high_hz=high_hz)


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one synthesized-capture condition.

    ``fb_hz`` may be a fixed bias or a callable drawing one from the
    trial's rng (see :func:`uniform_fb`); the draw happens before capture
    synthesis, matching the classic drivers' call order.
    """

    config: ChirpConfig
    snr_db: float = 30.0
    fb_hz: Any = -20e3
    phase: float | None = None
    n_chirps: int = 8
    pad_chirps: float = 1.5
    fractional_onset: bool = True
    amplitude: float = 1.0
    noise_model: RealNoiseModel | None = None
    start_time_s: float = 0.0

    def synthesize(self, rng: np.random.Generator) -> SynthesizedCapture:
        """One ground-truthed capture of this condition."""
        fb = self.fb_hz(rng) if callable(self.fb_hz) else float(self.fb_hz)
        return synthesize_capture(
            self.config,
            rng,
            snr_db=self.snr_db,
            fb_hz=fb,
            phase=self.phase,
            n_chirps=self.n_chirps,
            pad_chirps=self.pad_chirps,
            fractional_onset=self.fractional_onset,
            amplitude=self.amplitude,
            noise_model=self.noise_model,
            start_time_s=self.start_time_s,
        )

    def synthesize_batch(self, rng: np.random.Generator, n_captures: int):
        """``n_captures`` captures stacked for the batched engine.

        Returns ``(CaptureBatch, [SynthesizedCapture, ...])`` -- the batch
        for :class:`repro.pipeline.BatchPipeline`, the per-capture ground
        truth for scoring.
        """
        from repro.pipeline.batch import CaptureBatch

        if n_captures < 0:
            raise ConfigurationError(f"batch needs >= 0 captures, got {n_captures}")
        captures = [self.synthesize(rng) for _ in range(n_captures)]
        return (
            CaptureBatch.from_traces(
                [c.trace for c in captures], sample_rate_hz=self.config.sample_rate_hz
            ),
            captures,
        )


@dataclass(frozen=True)
class SweepPoint:
    """One point of an experiment sweep.

    ``spec`` is a :class:`ScenarioSpec`, a mapping of named spec variants
    (synthesized per trial in declaration order -- e.g. Fig. 14's
    gaussian/real noise pair), or ``None`` for sweeps over non-synthetic
    quantities (e.g. Table 1's mechanistic model rows).
    """

    key: Any
    spec: Any = None
    n_trials: int = 1
    metadata: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class SweepResult:
    """Measurements grouped by sweep key, in point order."""

    points: list[SweepPoint]
    measurements: dict[Any, list[Any]]

    def keys(self) -> list[Any]:
        return [point.key for point in self.points]

    def trials(self, key: Any) -> list[Any]:
        """Every trial measurement at one sweep point."""
        return self.measurements[key]

    def first(self, key: Any) -> Any:
        return self.measurements[key][0]

    def flat(self) -> list[Any]:
        """All measurements in (point, trial) order."""
        return [m for point in self.points for m in self.measurements[point.key]]


def _run_point(
    point: SweepPoint, measure: Callable, point_rng: np.random.Generator | None
) -> list[Any]:
    """Run every trial of one (already validated) sweep point.

    The per-point generator rides along with its state, keeping any
    worker count bit-identical to the serial walk.  Module-level so the
    spawn pool can pickle it.
    """
    trials = []
    for trial in range(point.n_trials):
        if point.spec is None:
            captures = None
        elif isinstance(point.spec, ScenarioSpec):
            captures = point.spec.synthesize(point_rng)
        else:
            captures = {name: spec.synthesize(point_rng) for name, spec in point.spec.items()}
        trials.append(measure(point, trial, captures, point_rng))
    return trials


@dataclass(frozen=True)
class SweepExecutor:
    """Walks sweep points serially or across a pool of spawned workers.

    RNG policy (at most one of the three):

    * ``rng`` -- one shared stream threads through every point/trial in
      declaration order (the classic SNR-sweep idiom).  Serial only: a
      shared stream has an inherent order, so parallel runs reject it.
    * ``rng_factory`` -- an independent generator per point, created in
      the parent in point order (per-node / per-power sweeps).
    * ``point_seed`` -- deterministic per-point derivation: each point
      gets ``RngStreams(point_seed).fresh(f"point:{key!r}")``, so the
      grid can grow (or be re-partitioned across workers) without
      perturbing existing points.

    A parallel run (``n_workers > 1``) opens a ``spawn`` process pool of
    ``n_workers`` workers for that run alone and sends one task per
    point, in declaration order, keeping at most ``n_workers`` in
    flight; results are collected in declaration order whichever
    worker finished first.  The pool is shut down before ``run()``
    returns or raises: a ``measure`` that raises lets only the points
    already running finish and starts no other, and a worker that dies
    raises :class:`~concurrent.futures.process.BrokenProcessPool`.
    Worker count and completion order never change results -- only
    wall-clock.

    Attributes:
        n_workers: Worker count; ``1`` walks the grid serially in this
            process (the only mode that accepts a shared ``rng``).
    """

    n_workers: int = 1

    def run(
        self,
        points: Iterable[SweepPoint],
        measure: Callable[[SweepPoint, int, Any, np.random.Generator | None], Any],
        rng: np.random.Generator | None = None,
        rng_factory: Callable[[SweepPoint], np.random.Generator] | None = None,
        point_seed: int | None = None,
    ) -> SweepResult:
        """Measure every point/trial; see the class docstring for rng policy.

        The whole grid is validated here in the parent -- trial counts,
        spec/rng pairing, key uniqueness -- so misconfigured sweeps fail
        fast with a clear error instead of a worker traceback.

        Args:
            points: The sweep grid, in declaration order.
            measure: ``measure(point, trial, captures, rng)``; must
                pickle when ``n_workers > 1``.
            rng: One shared stream for the whole grid (serial only).
            rng_factory: Builds each point's generator in the parent.
            point_seed: Derives each point's generator from its key.

        Returns:
            Measurements keyed by point, in declaration order.

        Raises:
            ConfigurationError: On an invalid worker count, conflicting
                rng policies, duplicate keys, a point without trials, a
                spec without an rng, or a shared ``rng`` fanned out.
        """
        if self.n_workers < 1:
            raise ConfigurationError(f"need >= 1 worker, got {self.n_workers}")
        given = [x for x in (rng, rng_factory, point_seed) if x is not None]
        if len(given) > 1:
            raise ConfigurationError("pass at most one of rng, rng_factory, point_seed")
        points = list(points)
        keys = [point.key for point in points]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(f"sweep keys must be unique, got {keys}")

        def rng_for(point: SweepPoint) -> np.random.Generator | None:
            if rng_factory is not None:
                return rng_factory(point)
            if point_seed is not None:
                return RngStreams(point_seed).fresh(f"point:{point.key!r}")
            return rng

        tasks = [(point, rng_for(point)) for point in points]
        for point, point_rng in tasks:
            if point.n_trials < 1:
                raise ConfigurationError(f"point {point.key!r} needs >= 1 trial")
            if point.spec is not None and point_rng is None:
                raise ConfigurationError(
                    f"point {point.key!r} declares captures but no rng was provided"
                )
        if self.n_workers == 1:
            measurements = {
                point.key: _run_point(point, measure, point_rng) for point, point_rng in tasks
            }
            return SweepResult(points=points, measurements=measurements)
        if rng is not None:
            raise ConfigurationError(
                "a shared rng stream is order-dependent and cannot fan out "
                "across workers; use rng_factory or point_seed instead"
            )
        return self._run_parallel(points, tasks, measure)

    def _run_parallel(
        self,
        points: list[SweepPoint],
        tasks: list[tuple[SweepPoint, np.random.Generator | None]],
        measure: Callable,
    ) -> SweepResult:
        """Fan the validated grid out over a pool opened for this run.

        At most ``n_workers`` points are submitted at a time, the next
        one only when a result arrives, so nothing waits in the pool's
        call queue: after an error only the points already running
        finish before it reaches the caller.
        """
        # Spawned, never forked: a fresh interpreter inherits no parent
        # state (rng, caches, threads) on any platform.
        executor = ProcessPoolExecutor(
            self.n_workers, mp_context=multiprocessing.get_context("spawn")
        )
        queued = iter(enumerate(tasks))
        running: dict[Future, int] = {}
        trials: list[Any] = [None] * len(points)

        def submit_next() -> None:
            task = next(queued, None)
            if task is not None:
                index, (point, point_rng) = task
                running[executor.submit(_run_point, point, measure, point_rng)] = index

        try:
            for _ in range(self.n_workers):
                submit_next()
            while running:
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                # Read every result before submitting more, so an error
                # in this batch starts no further point.
                for future in done:
                    trials[running.pop(future)] = future.result()
                for _ in done:
                    submit_next()
        finally:
            # Every worker is joined before this returns or raises.
            executor.shutdown(cancel_futures=True)
        measurements = {point.key: point_trials for point, point_trials in zip(points, trials)}
        return SweepResult(points=points, measurements=measurements)


def run_sweep(
    points: Iterable[SweepPoint],
    measure: Callable[[SweepPoint, int, Any, np.random.Generator | None], Any],
    rng: np.random.Generator | None = None,
    rng_factory: Callable[[SweepPoint], np.random.Generator] | None = None,
) -> SweepResult:
    """Walk every sweep point/trial serially, synthesizing declared captures.

    ``measure(point, trial, captures, rng)`` receives the trial's capture
    (or dict of variant captures, or ``None`` for spec-less points) plus
    the generator in use, and returns one measurement.  Equivalent to
    ``SweepExecutor(n_workers=1).run(...)``; drivers that want N-way
    parallelism construct the executor directly.
    """
    return SweepExecutor(n_workers=1).run(points, measure, rng=rng, rng_factory=rng_factory)
