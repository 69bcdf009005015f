"""Uplink traffic generation and the pure-ALOHA load model.

Class A LoRaWAN is pure ALOHA: devices transmit whenever they have data,
with no carrier sensing.  For fleet simulations this module generates
periodic-with-jitter reporting schedules; which uplinks survive co-SF
collisions at the gateway (capture effect) is resolved by
:func:`repro.radio.channel.window_survival`, so detection experiments
can run under realistic channel contention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class PeriodicTrafficModel:
    """Periodic reporting with uniform jitter (the common sensor pattern).

    Each device reports every ``period_s`` seconds, each report jittered
    by up to ``jitter_s`` -- the jitter is what desynchronizes the fleet
    and keeps ALOHA workable.
    """

    period_s: float
    jitter_s: float
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ConfigurationError(f"period must be positive, got {self.period_s}")
        if not 0 <= self.jitter_s < self.period_s:
            raise ConfigurationError(
                f"jitter must be in [0, period), got {self.jitter_s}"
            )

    def schedule_arrays(
        self, n_devices: int, duration_s: float, start_s: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every uplink of rows ``0..n-1`` over a duration, time-ordered.

        Device by device, one phase is drawn uniformly from ``[0,
        period)``; base ticks start at ``start_s + phase`` and advance by
        repeated addition (``t += period``) while ``t < start_s +
        duration_s``, and each tick draws one jitter from ``[0,
        jitter)`` (none when the jitter is zero).  The ticks are then
        stably sorted by request time.  Ticks land in flat scalar
        buffers converted to arrays once, so scheduling a million
        devices costs seconds, not minutes.

        Returns:
            ``(request_times, device_indices)``: the request instants in
            time order and the row each belongs to.
        """
        horizon = start_s + duration_s
        times_list: list[float] = []
        counts = np.zeros(n_devices, dtype=np.int64)
        uniform = self.rng.uniform
        period = self.period_s
        jitter = self.jitter_s
        for index in range(n_devices):
            t = start_s + float(uniform(0.0, period))
            n_ticks = 0
            while t < horizon:
                tick = t + float(uniform(0.0, jitter)) if jitter else t
                times_list.append(tick)
                n_ticks += 1
                t += period
            counts[index] = n_ticks
        if not times_list:
            return np.empty(0), np.empty(0, dtype=np.int64)
        times = np.array(times_list)
        indices = np.repeat(np.arange(n_devices, dtype=np.int64), counts)
        order = np.argsort(times, kind="stable")
        return times[order], indices[order]


def offered_load_erlangs(
    n_devices: int, period_s: float, frame_airtime_s: float
) -> float:
    """Channel load G: fraction of time the fleet keeps the channel busy."""
    if period_s <= 0 or frame_airtime_s <= 0:
        raise ConfigurationError("period and airtime must be positive")
    return n_devices * frame_airtime_s / period_s


def pure_aloha_success_probability(load_erlangs: float) -> float:
    """Classic pure-ALOHA throughput bound: ``exp(-2G)`` per frame."""
    if load_erlangs < 0:
        raise ConfigurationError(f"load must be >= 0, got {load_erlangs}")
    return float(np.exp(-2.0 * load_erlangs))
