"""Fleet-runtime building blocks: contention, link columns, phase reports.

:class:`~repro.sim.columnar.ColumnarRuntime` drives fleet traffic over
the world's timeline; this module holds the pieces it is built from:

1. **contention** -- transmissions staged inside one event window are
   resolved *per gateway* by a :class:`CollisionChannel` (co-SF power
   capture plus the inter-SF quasi-orthogonality matrix for
   SF-heterogeneous fleets), using each gateway site's own received
   powers; :func:`window_survival` is its vectorized sweep, shared
   with the counters-mode flush;
2. **link columns** -- :func:`site_power_columns` evaluates the
   per-(frame, site) received powers and propagation delays in one
   vectorized path-loss pass per gateway;
3. **reports** -- :class:`RuntimeReport` is what one runtime phase put
   on the air, and :func:`replay_detected` reads the network server's
   verdict off a world event.

With a single device there is nothing to contend with and the runtime
degenerates to the classic caller-stepped schedule bit for bit
(``tests/test_runtime.py`` pins this); with ADR disabled the whole
downlink path is inert and single-SF runs stay bit-identical to the
pre-ADR runtime (``tests/test_adr.py`` golden-pins this).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.analysis.metrics import ContentionStats
from repro.constants import SPEED_OF_LIGHT_M_S
from repro.errors import ConfigurationError
from repro.radio.channel import DEFAULT_CAPTURE_THRESHOLD_DB, InterSfCaptureMatrix
from repro.sim.network import (
    EventKind,
    GatewaySite,
    LoRaWanWorld,
    StagedTransmission,
    WorldEvent,
)

#: Device rows per slice of the power/delay/loss matrix build: bounds
#: the build's temporary memory without changing a result bit.
_CHUNK_ROWS = 262_144


def overlap_cluster_indices(starts: np.ndarray, ends: np.ndarray) -> list[np.ndarray]:
    """Chain intervals into overlap clusters with one sorted sweep.

    Sorts by start (stable, so equal starts keep input order), then
    walks the running maximum of interval ends: an interval starting at
    or after everything seen so far opens a new cluster -- exactly the
    chaining rule the legacy per-item loop applied, as one
    ``np.maximum.accumulate`` pass.  Returns index arrays into the
    input, one per cluster, in sweep order.
    """
    order = np.argsort(starts, kind="stable")
    running_end = np.maximum.accumulate(ends[order])
    opens_cluster = np.empty(order.size, dtype=bool)
    opens_cluster[0] = True
    opens_cluster[1:] = starts[order][1:] >= running_end[:-1]
    breaks = np.flatnonzero(opens_cluster[1:]) + 1
    return np.split(order, breaks)


def site_power_columns(
    sites: list[GatewaySite],
    site_xyz: np.ndarray,
    devices: list | None,
    dev_xyz: np.ndarray,
    tx_power_dbm: np.ndarray,
    *,
    return_loss: bool = False,
) -> tuple[np.ndarray, ...]:
    """Per-(frame, site) received powers and propagation delays.

    One vectorized distance/path-loss evaluation per gateway site,
    mirroring the scalar :meth:`LinkBudget.rx_power_dbm` arithmetic
    operation for operation.  Path-loss models without a closed
    distance-only form (``loss_db_from_distance`` missing or returning
    ``None``, e.g. log-distance with shadowing) fall back to the scalar
    per-device call, which stays exact.

    Device rows are processed in slices of ``_CHUNK_ROWS``, so the
    temporaries stay bounded on million-device fleets.  Every operation
    is elementwise, so the result is *bitwise* identical to a one-pass
    build (``tests/test_columnar.py`` pins this).

    Args:
        sites: Gateway placements, as returned by ``world.site_columns()``.
        site_xyz: ``(n_sites, 3)`` site coordinates, same call.
        devices: The staged frames' :class:`EndDevice` objects (scalar
            fallback only).  Pass ``None`` for array-native fleets that
            never built device objects; the fallback then raises a
            :class:`ConfigurationError` instead of failing obscurely.
        dev_xyz: ``(n, 3)`` device coordinates, one row per staged frame.
        tx_power_dbm: ``(n,)`` per-frame transmit powers.
        return_loss: Also return the raw per-(frame, site) path loss in
            dB -- callers that later retune transmit powers (ADR) can
            then rebuild a power row with the exact build-time
            arithmetic.

    Returns:
        ``(powers, delays)``, each ``(n, n_sites)`` float64 -- plus
        ``loss`` of the same shape when ``return_loss`` is set.
    """
    n = dev_xyz.shape[0]
    powers = np.empty((n, len(sites)))
    delays = np.empty((n, len(sites)))
    loss_out = np.empty((n, len(sites))) if return_loss else None
    for column, site in enumerate(sites):
        vectorized = getattr(site.link.pathloss, "loss_db_from_distance", None)
        for lo in range(0, n, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, n)
            diff = dev_xyz[lo:hi] - site_xyz[column]
            distance = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2)
            loss = None
            if vectorized is not None:
                loss = vectorized(distance)
            if loss is None:
                if devices is None:
                    raise ConfigurationError(
                        f"path-loss model {type(site.link.pathloss).__name__} has no "
                        "vectorized distance-only form and no device objects exist "
                        "to fall back on; use a closed-form model for spec-built fleets"
                    )
                loss = np.array(
                    [
                        site.link.pathloss.loss_db(device.position, site.position)
                        for device in devices[lo:hi]
                    ]
                )
            powers[lo:hi, column] = (
                tx_power_dbm[lo:hi]
                + site.link.tx_antenna_gain_db
                + site.link.rx_antenna_gain_db
                - loss
            )
            delays[lo:hi, column] = distance / SPEED_OF_LIGHT_M_S
            if loss_out is not None:
                loss_out[lo:hi, column] = loss
    if return_loss:
        return powers, delays, loss_out
    return powers, delays


def cluster_survival_matrix(
    starts: np.ndarray,
    airtime: np.ndarray,
    powers: np.ndarray,
    spreading_factor: np.ndarray,
    threshold_table: np.ndarray,
) -> np.ndarray:
    """Which (frame, site) receptions survive one overlap cluster.

    Broadcast form of the capture-matrix rule in
    :func:`~repro.radio.channel.resolve_collisions`: at each site, frame
    ``i`` dies iff some other frame ``j`` overlaps it there (strict
    interval overlap on propagation-shifted times) with
    ``P_i < P_j + threshold(sf_i, sf_j)``.

    Args:
        starts: ``(k, n_sites)`` per-site arrival times.
        airtime: ``(k,)`` frame airtimes.
        powers: ``(k, n_sites)`` per-site received powers (dBm).
        spreading_factor: ``(k,)`` integer SFs in 7..12.
        threshold_table: The 6x6 grid from
            :meth:`InterSfCaptureMatrix.threshold_table`.

    Returns:
        ``(k, n_sites)`` boolean survival matrix.
    """
    ends = starts + airtime[:, None]
    overlap = (starts[:, None, :] < ends[None, :, :]) & (starts[None, :, :] < ends[:, None, :])
    diagonal = np.arange(starts.shape[0])
    overlap[diagonal, diagonal, :] = False
    thresholds = threshold_table[
        (spreading_factor - 7)[:, None], (spreading_factor - 7)[None, :]
    ]
    fatal = overlap & (powers[:, None, :] < powers[None, :, :] + thresholds[:, :, None])
    return ~fatal.any(axis=1)


def window_survival(
    emission: np.ndarray,
    airtime: np.ndarray,
    delays: np.ndarray,
    powers: np.ndarray,
    spreading_factor: np.ndarray,
    threshold_table: np.ndarray,
) -> np.ndarray:
    """Which (frame, site) receptions survive one event window.

    Chains the window's frames into overlap clusters on emission times
    (:func:`overlap_cluster_indices`), then resolves every multi-frame
    cluster with :func:`cluster_survival_matrix` on the propagation-
    shifted per-site arrival times.  Frames alone in their cluster
    survive everywhere.

    Args:
        emission: ``(n,)`` emission times.
        airtime: ``(n,)`` frame airtimes.
        delays: ``(n, n_sites)`` propagation delays.
        powers: ``(n, n_sites)`` received powers (dBm).
        spreading_factor: ``(n,)`` integer SFs in 7..12.
        threshold_table: The 6x6 grid from
            :meth:`InterSfCaptureMatrix.threshold_table`.

    Returns:
        ``(n, n_sites)`` boolean survival matrix.
    """
    survives = np.ones(powers.shape, dtype=bool)
    if emission.size < 2:
        return survives
    for cluster in overlap_cluster_indices(emission, emission + airtime):
        if cluster.size >= 2:
            survives[cluster] = cluster_survival_matrix(
                emission[cluster, None] + delays[cluster],
                airtime[cluster],
                powers[cluster],
                spreading_factor[cluster],
                threshold_table,
            )
    return survives


def replay_detected(event: WorldEvent) -> bool:
    """Did the network server flag this world event as a replay?"""
    return event.verdict is not None and event.verdict.attack_detected


@dataclass
class CollisionChannel:
    """Per-gateway collision/capture resolution for one event window.

    Every staged transmission contends at each gateway site with the
    power *that site* receives, so a frame lost in a collision under one
    gateway can still be captured by another that hears the colliders at
    very different powers.  Overlap clustering runs once on emission
    times (propagation differences are microseconds against >=40 ms
    airtimes), so sparse windows resolve in O(n log n) instead of
    O(n^2) pair checks.

    SF-heterogeneous fleets contend through an
    :class:`~repro.radio.channel.InterSfCaptureMatrix`: cross-SF
    overlaps are quasi-orthogonal (a rival only kills the frame beyond
    its large negative threshold) while co-SF overlaps keep the classic
    ``capture_threshold_db`` rule, so single-SF fleets resolve exactly
    as before.
    """

    capture_threshold_db: float = DEFAULT_CAPTURE_THRESHOLD_DB
    capture_matrix: InterSfCaptureMatrix | None = None

    def __post_init__(self) -> None:
        """Derive the default capture matrix from the co-SF threshold."""
        if self.capture_matrix is None:
            self.capture_matrix = InterSfCaptureMatrix(co_sf_db=self.capture_threshold_db)

    def surviving_sites(
        self, world: LoRaWanWorld, staged: list[StagedTransmission]
    ) -> dict[int, set[int]]:
        """Map each staged index to the site indices where it survives.

        Resolves the window through :func:`window_survival` and turns
        its survival matrix into per-frame site sets.
        ``tests/test_collision_vectorized.py`` pins it against a
        per-site :func:`repro.radio.channel.resolve_collisions` loop; the
        two agree except where a received-power comparison lands within
        ~1 ulp of the capture threshold (``np.log10`` vs ``math.log10`` in
        the path-loss evaluation).
        """
        sites, site_xyz = world.site_columns()
        mask: dict[int, set[int]] = {index: set(range(len(sites))) for index in range(len(staged))}
        if len(staged) < 2:
            return mask
        devices = [world.devices[item.device_name] for item in staged]
        dev_xyz = np.array(
            [[device.position.x, device.position.y, device.position.z] for device in devices]
        )
        tx_power = np.array([item.transmission.tx_power_dbm for item in staged])
        powers, delays = site_power_columns(sites, site_xyz, devices, dev_xyz, tx_power)
        survives = window_survival(
            np.array([item.transmission.emission_time_s for item in staged]),
            np.array([item.transmission.airtime_s for item in staged]),
            delays,
            powers,
            np.array([item.transmission.spreading_factor for item in staged], dtype=np.int64),
            self.capture_matrix.threshold_table(),
        )
        for row, site_index in zip(*np.nonzero(~survives)):
            mask[int(row)].discard(int(site_index))
        return mask


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
