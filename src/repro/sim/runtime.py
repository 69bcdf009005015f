"""Fleet-runtime reports: what one phase put on the air.

:class:`~repro.sim.columnar.ColumnarRuntime` drives fleet traffic over
the world's timeline.  Its link columns and contention kernels
(:func:`~repro.radio.channel.site_power_columns`,
:func:`~repro.radio.channel.window_survival`) live beside the
per-object :func:`~repro.radio.channel.resolve_collisions` rule in
:mod:`repro.radio.channel`; this module holds what a phase returns:
:class:`RuntimeReport`, and :func:`replay_detected`, which reads the
network server's verdict off a world event.

With a single device there is nothing to contend with and the runtime
degenerates to the classic caller-stepped schedule bit for bit
(``tests/test_runtime.py`` pins this); with ADR disabled the whole
downlink path is inert and single-SF runs stay bit-identical to the
pre-ADR runtime (``tests/test_adr.py`` golden-pins this).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.analysis.metrics import ContentionStats
from repro.sim.network import EventKind, WorldEvent


def replay_detected(event: WorldEvent) -> bool:
    """Did the network server flag this world event as a replay?"""
    return event.verdict is not None and event.verdict.attack_detected


@dataclass(frozen=True)
class RuntimeReport:
    """What one runtime phase put on the air.

    Returned by :meth:`repro.sim.columnar.ColumnarRuntime.run`.

    Attributes:
        start_s: Simulation time the phase began at.
        duration_s: Requested phase length in simulated seconds.
        attempts: Frames actually transmitted (deferrals excluded).
        deferrals: Duty-cycle backoffs that re-queued a request.
        sim_events: Time-wheel items processed this phase: uplink
            requests, duty-cycle retries, and downlink applies.
        wall_s: Wall-clock spent driving the phase.
        events: Every :class:`~repro.sim.network.WorldEvent` emitted.
        adr_commands_sent: LinkADRReq downlinks that made a receive
            window this phase.
        adr_commands_dropped: LinkADRReq downlinks lost to the
            gateway's duty-cycle/window budget (device keeps its SF).
        adr_commands_applied: Downlinks a device acted on this phase.
        counters: Pre-tallied :class:`ContentionStats` from a
            counters-mode phase, which never materializes per-frame
            ``WorldEvent`` objects (``events`` is empty then).  ``None``
            on events-mode phases.
    """

    start_s: float
    duration_s: float
    attempts: int
    deferrals: int
    sim_events: int
    wall_s: float
    events: list[WorldEvent]
    adr_commands_sent: int = 0
    adr_commands_dropped: int = 0
    adr_commands_applied: int = 0
    counters: ContentionStats | None = None

    @property
    def contention(self) -> ContentionStats:
        """Attempt accounting: delivered / collided / lost / suppressed.

        Counters-mode phases return their pre-tallied stats; otherwise
        the partition is built in one pass over the event stream (a
        million-event report is scanned once, not once per kind).
        """
        if self.counters is not None:
            return self.counters
        counts = Counter(event.kind.value for event in self.events)
        return ContentionStats.from_kind_counts(self.attempts, counts)

    @property
    def goodput_fps(self) -> float:
        """Genuine deliveries per second of simulated time."""
        return self.contention.goodput_frames_per_s(self.duration_s)

    @property
    def events_per_s(self) -> float:
        """Runtime throughput: time-wheel items processed per wall second."""
        return self.sim_events / self.wall_s if self.wall_s > 0 else float("inf")

    @property
    def replay_detection_times_s(self) -> list[float]:
        """Instants at which the defense flagged a delivered replay.

        Only actual replays count: a false alarm on a genuine delivery
        is an FPR event, not a detection of the attack.
        """
        return [
            e.time_s
            for e in self.events
            if e.kind is EventKind.REPLAY_DELIVERED and replay_detected(e)
        ]
