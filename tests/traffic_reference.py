"""Per-uplink periodic schedule, the oracle for ``schedule_arrays``.

Shared by ``test_columnar.py`` (bitwise parity with the array scheduler)
and ``test_runtime.py`` (caller-stepped parity with the runtime).
"""

from dataclasses import dataclass

from repro.sim.traffic import PeriodicTrafficModel


@dataclass(frozen=True)
class ScheduledUplink:
    """One planned uplink of a device."""

    device_name: str
    request_time_s: float


def reference_schedule(
    model: PeriodicTrafficModel,
    device_names: list[str],
    duration_s: float,
    start_s: float = 0.0,
) -> list[ScheduledUplink]:
    """All uplinks of the named devices over a duration, time-ordered.

    Draws from ``model.rng`` in the order the array scheduler documents:
    one phase per device, then one jitter per kept tick.
    """
    uplinks = []
    for name in device_names:
        phase = float(model.rng.uniform(0.0, model.period_s))
        t = start_s + phase
        while t < start_s + duration_s:
            jitter = float(model.rng.uniform(0.0, model.jitter_s)) if model.jitter_s else 0.0
            uplinks.append(ScheduledUplink(device_name=name, request_time_s=t + jitter))
            t += model.period_s
    uplinks.sort(key=lambda u: u.request_time_s)
    return uplinks
