"""The fleet runtime: scheduled traffic, contention, and delivery as arrays.

A heap-driven runtime pays a Python callback plus a heap operation per
traffic event, which caps fleet simulations around 10^3..10^4 devices.
:class:`ColumnarRuntime` runs the same loop over a struct-of-arrays
fleet instead:

* traffic schedules land on a :class:`~repro.sim.events.TimeWheel` as
  whole numpy arrays (one push per phase, not one heap push per frame);
* each popped window resolves duty-cycle gates, transmit bookkeeping,
  and collision survival as vectorized column operations over a
  :class:`FleetState`;
* contention outcomes accumulate straight into
  :class:`~repro.analysis.metrics.ContentionStats` counters, so a
  million-frame phase never materializes per-frame
  :class:`~repro.sim.network.WorldEvent` objects.

Two modes, one engine:

* ``mode="events"`` runs the per-device MAC layer exactly: real
  :class:`~repro.lorawan.device.EndDevice` state, full ``WorldEvent``
  emission, ADR downlinks (``tests/test_columnar.py`` golden-pins the
  event streams of single-gateway, fused, ADR-on, and attack runs to
  those the original heap-driven runtime produced);
* ``mode="counters"`` is the scale mode: the MAC layer runs on
  :class:`FleetState` columns, frames are never assembled, and the
  report carries counters only.  It covers the full scenario matrix --
  armed frame-delay attacks, ADR downlink retuning, and multi-gateway
  fusion -- with counter-for-counter parity against events mode on
  object-built fleets: attempt and deferral gates share the arithmetic,
  emission jitter draws come from the same per-device streams, and the
  delivered / collided / low-SNR / suppressed split resolves through the
  identical capture matrix.  (Spec-built fleets have no per-device streams; their jitter
  comes from one engine stream and the split is statistically
  equivalent instead.)

Worlds themselves can skip per-device objects entirely: a
:class:`FleetSpec` describes the fleet as parameters, and
:meth:`FleetState.from_spec` materializes the columns directly --
batched RNG draws, deferred key derivation, chunked power matrix --
which is what makes million-device cells build in seconds instead of
minutes.  A row is a device's only identity: rows follow ``world.devices``
order for object-built fleets and spec row order for spec-built ones.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.metrics import ContentionStats
from repro.clock.clocks import DriftingClock
from repro.clock.oscillator import Oscillator
from repro.constants import (
    EU868_CENTER_FREQUENCY_HZ,
    EU868_DUTY_CYCLE_LIMIT,
    PAPER_ANALYSIS_DRIFT_PPM,
    SX1276_DEMOD_SNR_FLOOR_DB,
)
from repro.errors import ConfigurationError
from repro.lorawan.device import EndDevice, sensor_payload_len
from repro.lorawan.downlink import DownlinkScheduler, build_downlink
from repro.lorawan.duty_cycle import DutyCycleLimiter
from repro.lorawan.mac import LinkADRAns, LinkADRReq
from repro.lorawan.regional import EU868
from repro.lorawan.security import SessionKeys
from repro.phy.airtime import airtime_s
from repro.radio.channel import (
    DEFAULT_CAPTURE_THRESHOLD_DB,
    InterSfCaptureMatrix,
    noise_floor_dbm,
    site_power_columns,
    window_survival,
)
from repro.radio.geometry import Position
from repro.server.adr import AdrCommand
from repro.sim.events import TimeWheel
from repro.sim.network import EventKind, LoRaWanWorld, StagedTransmission
from repro.sim.rng import RngStreams
from repro.sim.runtime import RuntimeReport
from repro.core.timestamping import ElapsedTimeCodec
from repro.sim.traffic import PeriodicTrafficModel

#: LoRaWAN framing overhead of an empty-buffer uplink: MHDR (1) + FHDR
#: without FOpts (7) + FPort (1) + MIC (4).
_FRAME_OVERHEAD_BYTES = 13

#: Wire length of one queued LinkADRAns MAC command (CID + Status).
_LINK_ADR_ANS_BYTES = 2

#: FOpts field capacity (LoRaWAN 1.0.2: FCtrl.FOptsLen is 4 bits).
_FOPTS_CAPACITY = 15


@dataclass(frozen=True)
class FleetSpec:
    """Array-native description of a ring fleet (no device objects).

    Describes the same fleet :func:`repro.sim.scenarios.build_fleet`
    would build -- a ring of identically configured class-A devices with
    per-device frequency biases and clock drifts -- as parameters plus
    batched column draws, so :meth:`FleetState.from_spec` can
    materialize a million-row :class:`FleetState` without constructing
    a single :class:`~repro.lorawan.device.EndDevice` (and without the
    per-device AES key derivation that dominates object-built fleets).

    All stochastic columns come from one named stream
    (``fresh("fleet-spec")`` of :class:`~repro.sim.rng.RngStreams`
    seeded with :attr:`seed`), drawn in a fixed documented order: first
    the ``n_devices`` FB offsets, then the ``n_devices`` clock drifts.
    :meth:`realize` builds real devices from those *same* columns, so a
    spec-built state and the object-built state of its realized fleet
    are bitwise identical (pinned in ``tests/test_columnar.py``).

    Attributes:
        n_devices: Fleet size (rows).
        spreading_factor: Uplink SF shared by the fleet.
        ring_radius_m: Radius of the device ring around the origin.
        fb_range_hz: ``(lo, hi)`` uniform range of radio frequency
            biases, mirroring ``Oscillator.lora_end_device``.
        drift_ppm: Clock drift magnitude; per-device drifts are drawn
            uniformly from ``[-drift_ppm, +drift_ppm]``.
        tx_power_dbm: Transmit power shared by the fleet.
        coding_rate: LoRa coding-rate index (CR 4/(4+x)).
        duty_cycle: ETSI duty-cycle fraction per device.
        tx_latency_mean_s: Mean radio TX latency.
        tx_latency_jitter_s: TX latency jitter sigma.
        base_dev_addr: DevAddr of row 0; row ``i`` gets ``base + i``.
        seed: Root seed of the spec's column draws (and of
            :meth:`realize`'s per-device transmit streams).
    """

    n_devices: int
    spreading_factor: int = 7
    ring_radius_m: float = 5.0
    fb_range_hz: tuple[float, float] = (-25e3, -17e3)
    drift_ppm: float = PAPER_ANALYSIS_DRIFT_PPM
    tx_power_dbm: float = 14.0
    coding_rate: int = 1
    duty_cycle: float = EU868_DUTY_CYCLE_LIMIT
    tx_latency_mean_s: float = 3e-3
    tx_latency_jitter_s: float = 0.5e-3
    base_dev_addr: int = 0x26000000
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate fleet geometry and radio parameters."""
        if self.n_devices < 1:
            raise ConfigurationError(f"need at least one device, got {self.n_devices}")
        lo, hi = self.fb_range_hz
        if lo >= hi:
            raise ConfigurationError(f"fb range must satisfy lo < hi, got ({lo}, {hi})")
        if self.ring_radius_m <= 0:
            raise ConfigurationError(f"ring radius must be positive, got {self.ring_radius_m}")
        if int(self.spreading_factor) not in SX1276_DEMOD_SNR_FLOOR_DB:
            raise ConfigurationError(f"unsupported spreading factor {self.spreading_factor}")

    def positions(self) -> np.ndarray:
        """The ``(n, 3)`` ring coordinates, 1 m above ground."""
        angles = 2 * np.pi * np.arange(self.n_devices) / self.n_devices
        return np.column_stack(
            [
                self.ring_radius_m * np.cos(angles),
                self.ring_radius_m * np.sin(angles),
                np.ones(self.n_devices),
            ]
        )

    def radio_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Batched ``(fb_hz, drift_ppm)`` draws from the spec stream.

        Returns:
            The per-device frequency-bias column followed by the clock
            drift column -- drawn in that order from one fresh
            generator, so repeated calls return identical arrays.
        """
        rng = RngStreams(self.seed).fresh("fleet-spec")
        lo, hi = self.fb_range_hz
        fb_hz = rng.uniform(lo, hi, self.n_devices)
        drift = rng.uniform(-self.drift_ppm, self.drift_ppm, self.n_devices)
        return fb_hz, drift

    def dev_addrs(self) -> np.ndarray:
        """The ``(n,)`` DevAddr column (``base_dev_addr + row``)."""
        return self.base_dev_addr + np.arange(self.n_devices, dtype=np.int64)

    def realize(self, streams: RngStreams | None = None) -> list[EndDevice]:
        """Build the real :class:`EndDevice` fleet this spec describes.

        Key derivation and per-device stream creation -- the expensive
        per-object work the spec path defers -- happen here, from the
        same pre-drawn FB/drift columns :meth:`FleetState.from_spec`
        uses, so the realized fleet's object-built state matches the
        spec-built one bitwise.

        Args:
            streams: Stream factory for the per-device transmit rngs;
                defaults to ``RngStreams(self.seed)``.

        Returns:
            The fleet as a device list, ready for ``world.add_device``.
        """
        streams = streams or RngStreams(self.seed)
        positions = self.positions()
        fb_hz, drift = self.radio_columns()
        devices = []
        for index in range(self.n_devices):
            dev_addr = self.base_dev_addr + index
            devices.append(
                EndDevice(
                    name=f"node-{index}",
                    dev_addr=dev_addr,
                    keys=SessionKeys.derive_for_test(dev_addr),
                    radio_oscillator=Oscillator(
                        bias_ppm=float(fb_hz[index]) / EU868_CENTER_FREQUENCY_HZ * 1e6
                    ),
                    clock=DriftingClock(drift_ppm=float(drift[index])),
                    position=Position(
                        x=float(positions[index, 0]),
                        y=float(positions[index, 1]),
                        z=float(positions[index, 2]),
                    ),
                    tx_power_dbm=self.tx_power_dbm,
                    spreading_factor=self.spreading_factor,
                    coding_rate=self.coding_rate,
                    tx_latency_mean_s=self.tx_latency_mean_s,
                    tx_latency_jitter_s=self.tx_latency_jitter_s,
                    duty_cycle=DutyCycleLimiter(duty_cycle=self.duty_cycle),
                    rng=streams.stream(f"device-{index}-tx"),
                )
            )
        return devices


def _link_columns(
    world: LoRaWanWorld,
    devices: list[EndDevice] | None,
    positions: np.ndarray,
    tx_power_dbm: np.ndarray,
    floors_db: np.ndarray,
) -> dict[str, np.ndarray]:
    """The device x gateway columns of a :class:`FleetState`.

    Received powers, delays and path losses come from
    :func:`~repro.radio.channel.site_power_columns` over the world's
    sites (through ``devices`` when given, else from ``positions``
    alone); a link is in range when its SNR over the site's noise floor
    clears the device's demodulation floor ``floors_db``.
    """
    sites, site_xyz = world.site_columns()
    powers, delays, loss = site_power_columns(
        sites, site_xyz, devices, positions, tx_power_dbm, return_loss=True
    )
    site_noise = np.array(
        [noise_floor_dbm(site.link.bandwidth_hz, site.link.noise_figure_db) for site in sites]
    )
    return dict(
        powers_dbm=powers,
        delays_s=delays,
        in_range=(powers - site_noise[None, :]) >= floors_db[:, None],
        loss_db=loss,
        site_noise=site_noise,
        site_tx_gain_db=np.array([site.link.tx_antenna_gain_db for site in sites]),
        site_rx_gain_db=np.array([site.link.rx_antenna_gain_db for site in sites]),
    )


@dataclass
class FleetState:
    """Struct-of-arrays snapshot of a fleet's MAC-layer state.

    One row per device, its only identity: rows follow
    :attr:`LoRaWanWorld.devices` order for object-built states and spec
    row order for spec-built ones.  The counters-mode engine runs its
    duty-cycle gates, transmit bookkeeping, and link-budget lookups
    against these columns instead of the per-device objects; ADR
    retunes mutate the SF / power / airtime / range rows in place
    through the cached path-loss column.

    Attributes:
        positions: ``(n, 3)`` device coordinates in metres.
        spreading_factor: ``(n,)`` integer SFs in 7..12.
        tx_power_dbm: ``(n,)`` transmit powers.
        frame_bytes: ``(n,)`` empty-buffer uplink frame lengths.
        airtime_s: ``(n,)`` per-frame airtimes at each device's SF.
        duty_cycle: ``(n,)`` ETSI duty-cycle fractions.
        next_allowed_s: ``(n,)`` earliest next transmit instant
            (mutated by the engine as frames register).
        latency_mean_s: ``(n,)`` mean radio TX latencies.
        latency_jitter_s: ``(n,)`` TX latency jitter sigmas.
        fcnt: ``(n,)`` uplink frame counters (mutated).
        powers_dbm: ``(n, n_sites)`` received power at every gateway.
        delays_s: ``(n, n_sites)`` propagation delays to every gateway.
        in_range: ``(n, n_sites)`` whether each link clears the SF's
            demodulation SNR floor.
        dev_addr: ``(n,)`` LoRaWAN device addresses.
        coding_rate: ``(n,)`` LoRa coding-rate indices.
        loss_db: ``(n, n_sites)`` cached path losses, so ADR power
            retunes can rebuild a power row without the geometry pass.
        site_noise: ``(n_sites,)`` per-gateway noise floors.
        site_tx_gain_db: ``(n_sites,)`` per-gateway TX antenna gains.
        site_rx_gain_db: ``(n_sites,)`` per-gateway RX antenna gains.
        rngs: Per-device generators for emission-jitter draws (shared
            with the live devices when object-built; ``None`` for
            spec-built states, which draw from one engine stream).
    """

    positions: np.ndarray
    spreading_factor: np.ndarray
    tx_power_dbm: np.ndarray
    frame_bytes: np.ndarray
    airtime_s: np.ndarray
    duty_cycle: np.ndarray
    next_allowed_s: np.ndarray
    latency_mean_s: np.ndarray
    latency_jitter_s: np.ndarray
    fcnt: np.ndarray
    powers_dbm: np.ndarray
    delays_s: np.ndarray
    in_range: np.ndarray
    dev_addr: np.ndarray
    coding_rate: np.ndarray
    loss_db: np.ndarray
    site_noise: np.ndarray
    site_tx_gain_db: np.ndarray
    site_rx_gain_db: np.ndarray
    rngs: list[np.random.Generator] | None

    @classmethod
    def from_world(cls, world: LoRaWanWorld) -> "FleetState":
        """Columnize a world's fleet (devices, links, duty budgets).

        Airtimes are evaluated through the memoized
        :func:`~repro.phy.airtime.airtime_s`, so a 100k-device fleet
        with a handful of distinct (length, SF) combinations costs a
        handful of real computations.  Received powers reuse the
        vectorized per-site path-loss columns of the collision sweep.

        Args:
            world: The world to snapshot; must hold at least one device.

        Returns:
            A fully populated state, duty budgets copied from the live
            devices (a fleet mid-simulation snapshots mid-budget).
        """
        devices = list(world.devices.values())
        if not devices:
            raise ConfigurationError("cannot columnize a world with no devices")
        positions = np.array([[d.position.x, d.position.y, d.position.z] for d in devices])
        sf = np.array([d.spreading_factor for d in devices], dtype=np.int64)
        tx_power = np.array([d.tx_power_dbm for d in devices])
        frame_bytes = np.array(
            [_FRAME_OVERHEAD_BYTES + sensor_payload_len(0, d.codec) for d in devices],
            dtype=np.int64,
        )
        airtime = np.array(
            [
                airtime_s(int(frame_bytes[i]), int(sf[i]), coding_rate=d.coding_rate)
                for i, d in enumerate(devices)
            ]
        )
        floors = np.array([SX1276_DEMOD_SNR_FLOOR_DB[int(s)] for s in sf])
        return cls(
            positions=positions,
            spreading_factor=sf,
            tx_power_dbm=tx_power,
            frame_bytes=frame_bytes,
            airtime_s=airtime,
            duty_cycle=np.array([d.duty_cycle.duty_cycle for d in devices]),
            next_allowed_s=np.array([d.duty_cycle.next_allowed_s() for d in devices]),
            latency_mean_s=np.array([d.tx_latency_mean_s for d in devices]),
            latency_jitter_s=np.array([d.tx_latency_jitter_s for d in devices]),
            fcnt=np.array([d.fcnt for d in devices], dtype=np.int64),
            dev_addr=np.array([d.dev_addr for d in devices], dtype=np.int64),
            coding_rate=np.array([d.coding_rate for d in devices], dtype=np.int64),
            rngs=[d.rng for d in devices],
            **_link_columns(world, devices, positions, tx_power, floors),
        )

    @classmethod
    def from_spec(cls, spec: FleetSpec, world: LoRaWanWorld) -> "FleetState":
        """Materialize the columns straight from a :class:`FleetSpec`.

        No :class:`EndDevice` is ever constructed and no session key is
        derived: positions come from the ring formula, airtime is one
        memoized evaluation broadcast across the fleet, and the
        device x site matrices stream through
        ``PathLossModel.loss_db_from_distance`` in bounded-memory
        chunks.  The result is bitwise identical to ``from_world`` over
        ``spec.realize()`` devices -- pinned in ``tests/test_columnar.py``.

        Args:
            spec: The fleet description.
            world: Supplies the gateway topology (sites, noise figures,
                antenna gains); its device map is not consulted.

        Returns:
            A state whose rows follow spec row order.

        Raises:
            ConfigurationError: If a gateway's path-loss model has no
                vectorized distance-only form (spec fleets have no
                device objects to fall back on).
        """
        n = spec.n_devices
        positions = spec.positions()
        sf0 = int(spec.spreading_factor)
        sf = np.full(n, sf0, dtype=np.int64)
        frame = _FRAME_OVERHEAD_BYTES + sensor_payload_len(0, ElapsedTimeCodec())
        tx_power = np.full(n, float(spec.tx_power_dbm))
        floors = np.full(n, SX1276_DEMOD_SNR_FLOOR_DB[sf0])
        return cls(
            positions=positions,
            spreading_factor=sf,
            tx_power_dbm=tx_power,
            frame_bytes=np.full(n, frame, dtype=np.int64),
            airtime_s=np.full(n, airtime_s(frame, sf0, coding_rate=spec.coding_rate)),
            duty_cycle=np.full(n, float(spec.duty_cycle)),
            next_allowed_s=np.zeros(n),
            latency_mean_s=np.full(n, float(spec.tx_latency_mean_s)),
            latency_jitter_s=np.full(n, float(spec.tx_latency_jitter_s)),
            fcnt=np.zeros(n, dtype=np.int64),
            dev_addr=spec.dev_addrs(),
            coding_rate=np.full(n, int(spec.coding_rate), dtype=np.int64),
            rngs=None,
            **_link_columns(world, None, positions, tx_power, floors),
        )

    @property
    def n_devices(self) -> int:
        """Number of fleet rows."""
        return len(self.dev_addr)


@dataclass
class ColumnarRuntime:
    """Schedules, contends, and delivers fleet traffic over a time wheel.

    One runtime drives one :class:`LoRaWanWorld` (either topology).
    Each :meth:`run` phase starts at the world clock
    (``world.now_s``) and sets the clock to the phase's end, so a
    caller can run a clean phase, arm the frame-delay attack, move the
    clock forward, and keep running on one timeline.  The fleet is
    fixed at construction: devices added to the world later are not
    scheduled.  A device is its row, in ``world.devices`` order for
    object-built fleets and spec row order for a spec-built ``state``.

    Both modes share one drive loop over the wheel's windows, one
    ``(time, seq)`` walk for duty-cycle retries and ADR applies, and one
    ADR downlink shipper.  Only the MAC step differs: events mode reads
    the duty gate, transmits, applies downlinks, and flushes through the
    :class:`~repro.lorawan.device.EndDevice` objects; counters mode does
    the same on :class:`FleetState` columns, and takes a vectorized pass
    over windows without ADR or repeated devices.

    ``window_s`` is the batching grain: staged transmissions flush to
    the gateways at the next window boundary, so larger windows amortize
    the vectorized delivery machinery over more frames while collision
    resolution stays exact *within a window* (it uses true per-frame
    emission times, not the window).  Transmissions spanning a window
    boundary are resolved independently per window -- an optimistic
    approximation whose bias is on the order of airtime/window and thus
    negligible while airtime << window_s.

    Attributes:
        world: The world to drive (either topology).
        traffic: Periodic-with-jitter schedule source.
        window_s: Batching grain; also the wheel's bucket width.
        capture_threshold_db: Co-SF capture margin for contention.
        backoff_s: Extra wait after a duty-cycle deferral.
        mode: ``"events"`` (per-device MAC, full ``WorldEvent`` stream)
            or ``"counters"`` (columnar MAC, counter-only reports).
        state: Pre-built :class:`FleetState` for counters mode to run
            against (e.g. a spec-built million-row state); ``None``
            snapshots the world's devices on first counters use.  Events
            mode runs the world's :class:`~repro.lorawan.device.EndDevice`
            objects and reads no state, so it refuses one (realize the
            spec with :meth:`FleetSpec.realize` instead).
    """

    world: LoRaWanWorld
    traffic: PeriodicTrafficModel
    window_s: float = 1.0
    capture_threshold_db: float = DEFAULT_CAPTURE_THRESHOLD_DB
    backoff_s: float = 1e-3
    mode: str = "events"
    state: FleetState | None = None
    attempts: int = field(init=False, default=0)
    deferrals: int = field(init=False, default=0)
    adr_sent: int = field(init=False, default=0)
    adr_dropped: int = field(init=False, default=0)
    adr_applied: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        """Validate knobs and set up the wheel, capture table, and MAC step."""
        if self.window_s <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window_s}")
        if self.backoff_s <= 0:
            raise ConfigurationError(f"backoff must be positive, got {self.backoff_s}")
        if self.mode not in ("events", "counters"):
            raise ConfigurationError(f"mode must be 'events' or 'counters', got {self.mode!r}")
        self._table = InterSfCaptureMatrix(co_sf_db=self.capture_threshold_db).threshold_table()
        self._wheel = TimeWheel(self.window_s)
        if self.mode == "events":
            if self.state is not None:
                raise ConfigurationError(
                    "events mode runs the world's EndDevice objects and reads no "
                    "FleetState; realize the spec (FleetSpec.realize) or use "
                    "mode='counters'"
                )
            self._devices = list(self.world.devices.values())
            self._n_rows = len(self._devices)
            self._next_allowed_s = self._device_next_allowed_s
            self._transmit, self._apply = self._transmit_device, self._apply_downlink
            self._flush = self._flush_events
        else:
            self._n_rows = len(self.world.devices) if self.state is None else self.state.n_devices
            self._next_allowed_s = self._row_next_allowed_s
            self._transmit, self._apply = self._transmit_row, self._apply_retune
            self._flush = self._flush_counters
        # Events-mode staging: frames and their rows, in staged order.
        self._pending: list[StagedTransmission] = []
        self._pending_rows: list[int] = []
        # Shipped ADR commands awaiting their apply instant (negative
        # wheel items index this list): row, request, FCnt-down.
        self._applies: list[tuple[int, LinkADRReq, int]] = []
        self._downlink_schedulers: dict[int, DownlinkScheduler] = {}
        self._state: FleetState | None = self.state
        self._processed = 0
        # Counters-mode staging: per-window frame columns, captured at
        # transmit time (ADR can retune a row before its window's flush).
        self._pend_emission: list[np.ndarray] = []
        self._pend_device: list[np.ndarray] = []
        self._pend_air: list[np.ndarray] = []
        self._pend_sf: list[np.ndarray] = []
        self._pend_fcnt: list[np.ndarray] = []
        self._pend_ans: list[np.ndarray] = []
        self._pend_powers: list[np.ndarray] = []
        self._pend_in_range: list[np.ndarray] = []
        self._pend_delays: list[np.ndarray] = []
        # delivered, collided, low-SNR, suppressed, replays-delivered.
        self._counts = np.zeros(5, dtype=np.int64)
        # Counters-mode pending FOpts bytes (queued LinkADRAns) per row.
        self._fopts_len: dict[int, int] = {}
        self._adr = None

    def run(self, duration_s: float, device_names: list[str] | None = None) -> RuntimeReport:
        """Schedule one phase of fleet traffic and run it to completion.

        Traffic base ticks cover ``[now, now + duration_s)`` on the
        world clock; jitter can push the final requests slightly past
        the horizon, and the phase runs until every scheduled request
        has fired (so no frame is silently dropped at the boundary).
        Duty-cycle deferrals backing off beyond the horizon stay queued
        for the next phase.

        Args:
            duration_s: Phase length in simulated seconds.
            device_names: Subset of devices to schedule, each named
                once; ``None`` means the whole fleet.  Names resolve to
                rows through ``world.devices`` order, so on a spec-built
                fleet whose world holds no devices every name is unknown.

        Returns:
            A :class:`RuntimeReport` over exactly this phase -- with the
            full event list (events mode) or pre-tallied counters and an
            empty event list (counters mode).

        Raises:
            ConfigurationError: On a non-positive duration, or a subset
                naming an unknown device or one device more than once.
        """
        if duration_s <= 0:
            raise ConfigurationError(f"duration must be positive, got {duration_s}")
        world = self.world
        n_scheduled = self._n_rows
        if device_names is not None:
            names = list(device_names)
            # Only the rows fixed at construction can be scheduled.
            row_of = {name: row for row, name in zip(range(self._n_rows), world.devices)}
            unknown = [n for n in names if n not in row_of]
            if unknown:
                raise ConfigurationError(f"unknown devices: {unknown}")
            # A repeated name would schedule that device's traffic twice.
            repeated = [n for n, count in Counter(names).items() if count > 1]
            if repeated:
                raise ConfigurationError(f"repeated devices: {repeated}")
            n_scheduled = len(names)
        # Read the world clock at every phase start: callers may move it
        # forward between phases.
        start_s = world.now_s
        times, indices = self.traffic.schedule_arrays(n_scheduled, duration_s, start_s=start_s)
        if device_names is not None and times.size:
            indices = np.array([row_of[n] for n in names], dtype=np.int64)[indices]
        self._wheel.push(times, indices)
        end_s = start_s + duration_s
        if times.size:
            # The schedule is time-ordered; its tail bounds the jitter spill.
            end_s = max(end_s, float(times[-1]))
        attempts0, deferrals0 = self.attempts, self.deferrals
        adr0 = (self.adr_sent, self.adr_dropped, self.adr_applied)
        first_event = len(world.events)
        processed0 = self._processed
        counts0 = self._counts.copy()
        wall0 = time.perf_counter()
        self._adr = world.server.adr
        if self.mode == "counters":
            self._start_counters_phase()
        self._drive(end_s)
        wall_s = time.perf_counter() - wall0
        # Phase anchors, attack arming, and the next phase see the
        # runtime's timeline.
        world.now_s = end_s
        counters = None
        if self.mode == "counters":
            delivered, collided, low, suppressed, replays = (self._counts - counts0).tolist()
            counters = ContentionStats(
                attempts=self.attempts - attempts0,
                delivered=delivered,
                collided=collided,
                lost_low_snr=low,
                suppressed=suppressed,
                replays_delivered=replays,
            )
        return RuntimeReport(
            start_s=start_s,
            duration_s=duration_s,
            attempts=self.attempts - attempts0,
            deferrals=self.deferrals - deferrals0,
            sim_events=self._processed - processed0,
            wall_s=wall_s,
            events=list(world.events[first_event:]),
            adr_commands_sent=self.adr_sent - adr0[0],
            adr_commands_dropped=self.adr_dropped - adr0[1],
            adr_commands_applied=self.adr_applied - adr0[2],
            counters=counters,
        )

    # -- both modes: drive loop, window walk, ADR shipping ----------------------

    def _drive(self, end_s: float) -> None:
        """Pop, walk, and flush every window up to the phase end ``end_s``."""
        vector = self.mode == "counters" and self._adr is None
        for _ in range(2):
            # The second pass fires the ADR applies that the first pass's
            # end flush queued at exactly ``end_s``.
            while (peek := self._wheel.peek_time_s()) is not None and peek <= end_s:
                boundary, w_times, w_seq, w_items = self._pop_window_clipped(end_s)
                if vector and np.unique(w_items).size == w_items.size:
                    self._window_pass_vector(w_times, w_items)
                else:
                    self._window_walk(w_times, w_seq, w_items, boundary, end_s)
                if boundary <= end_s:
                    self._flush(boundary)
            # The horizon can split a window: its tail stayed on the
            # wheel, and the frames staged before ``end_s`` flush now.
            self._flush(end_s)

    def _pop_window_clipped(self, end_s: float) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """Pop one wheel window, re-pushing anything beyond the horizon.

        Returns:
            ``(boundary, times, sequences, items)`` with every entry at
            or before ``end_s``; later entries go back on the wheel for
            the next phase.
        """
        key, w_times, w_seq, w_items = self._wheel.pop_window()
        boundary = self._wheel.window_end_s(key)
        beyond = w_times > end_s
        if beyond.any():
            self._wheel.push(w_times[beyond], w_items[beyond])
            keep = ~beyond
            w_times, w_seq, w_items = w_times[keep], w_seq[keep], w_items[keep]
        return boundary, w_times, w_seq, w_items

    def _window_walk(
        self,
        w_times: np.ndarray,
        w_seq: np.ndarray,
        w_items: np.ndarray,
        boundary: float,
        end_s: float,
    ) -> None:
        """Run one popped window's events in exact ``(time, seq)`` order.

        A local heap merges the window's events with the duty-cycle
        retries scheduled *into* the window while walking it, so the
        total order matches one shared event heap; retries landing past
        the window or the horizon go back on the wheel.  Negative items
        are ADR applies.
        """
        heap = list(zip(w_times.tolist(), w_seq.tolist(), w_items.tolist()))
        heapq.heapify(heap)
        while heap:
            t, _, item = heapq.heappop(heap)
            self._processed += 1
            if item < 0:
                self._apply(*self._applies[-item - 1], t)
                self.adr_applied += 1
                continue
            next_allowed_s = self._next_allowed_s(item)
            if t < next_allowed_s:
                self.deferrals += 1
                retry = max(next_allowed_s + self.backoff_s, t)
                if retry < boundary and retry <= end_s:
                    heapq.heappush(heap, (retry, self._wheel.reserve_sequence(), item))
                else:
                    self._wheel.push(np.array([retry]), np.array([item]))
                continue
            self.attempts += 1
            self._transmit(item, t)

    def _ship_adr(
        self,
        commands: list[AdrCommand],
        anchors: dict[int, tuple[int, float, int, list[int]]],
        now_s: float,
    ) -> None:
        """Ship queued LinkADRReq commands into class-A receive windows.

        Each command anchors to its device's last uplink delivered in
        the window just flushed, given per DevAddr as ``(row,
        uplink_end_s, sf, site indices of the gateways that heard it)``:
        RX1/RX2 open off that uplink's *real* end of airtime.  The
        downlink leaves through the first hearing gateway with
        duty-cycle budget left for either window (the server's gateway
        choice).  The FCnt-down is drawn here; the apply fires from the
        wheel.

        Args:
            commands: The controller's pending commands.
            anchors: Anchor uplinks by DevAddr.
            now_s: Current simulation time; applies never fire in the past.
        """
        adr = self._adr
        for command in commands:
            anchor = anchors.get(command.dev_addr)
            window = None
            if anchor is not None:
                row, uplink_end_s, sf, sites = anchor
                fcnt_down = adr.next_fcnt_down(command.dev_addr)
                # The length build_downlink gives the request (FPort 0).
                size = _FRAME_OVERHEAD_BYTES + len(command.request.encode())
                # RX1 mirrors the uplink data rate; EU868 pins RX2 at
                # DR0/SF12, so the same frame costs up to ~32x more
                # airtime (and duty-cycle budget) in the second window.
                rx1_airtime, rx2_airtime = airtime_s(size, sf), airtime_s(size, 12)
                for site in sites:
                    scheduler = self._downlink_schedulers.setdefault(site, DownlinkScheduler())
                    window = scheduler.schedule(uplink_end_s, rx1_airtime, rx2_airtime)
                    if window is not None:
                        break
            if window is None:
                # The triggering uplink resolved outside this window, or
                # no hearing gateway can hit either receive window: the
                # device keeps its data rate and the controller re-arms.
                self.adr_dropped += 1
                adr.command_dropped(command.dev_addr)
                continue
            self.adr_sent += 1
            # The scheduler records the true transmit start (window
            # opening, pushed back by its busy chain).  Windowed batching
            # can resolve an uplink after its receive windows passed; the
            # device then applies the command at the flush instant.
            start_s = scheduler.scheduled[-1][0]
            on_air = rx1_airtime if window.which == "RX1" else rx2_airtime
            self._applies.append((row, command.request, fcnt_down))
            self._wheel.push(
                np.array([max(start_s + on_air, now_s)]), np.array([-len(self._applies)])
            )

    # -- events mode: per-device MAC, full event stream -------------------------

    def _device_next_allowed_s(self, row: int) -> float:
        """The device's own duty-cycle gate."""
        return self._devices[row].duty_cycle.next_allowed_s()

    def _transmit_device(self, row: int, t: float) -> None:
        """Transmit through the device and stage the frame for the flush."""
        device = self._devices[row]
        self._pending.append(StagedTransmission(device.name, device.transmit(t)))
        self._pending_rows.append(row)

    def _apply_downlink(self, row: int, request: LinkADRReq, fcnt_down: int, t: float) -> None:
        """Build the shipped downlink and hand it to the device."""
        device = self._devices[row]
        raw = build_downlink(
            device.keys, device.dev_addr, fcnt_down, payload=request.encode(), fport=0
        )
        device.receive_downlink(raw, at_time_s=t)

    def _flush_events(self, now_s: float) -> None:
        """Resolve and deliver everything staged, then ship ADR commands."""
        if not self._pending:
            return
        staged, rows = self._pending, self._pending_rows
        self._pending, self._pending_rows = [], []
        events = self.world.deliver_staged(staged, threshold_table=self._table)
        commands = self._adr.take_pending() if self._adr is not None else []
        if not commands:
            return
        site_index_of = {site.gateway_id: i for i, site in enumerate(self.world.sites)}
        anchors = {}
        # deliver_staged returns one primary event per frame, in staged order.
        for event, row in zip(events, rows):
            tx = event.transmission
            if event.kind is EventKind.DELIVERED and tx is not None:
                anchors[tx.dev_addr] = (
                    row,
                    tx.end_time_s,
                    tx.spreading_factor,
                    [site_index_of[g] for g in event.metadata["gateway_ids"]],
                )
        self._ship_adr(commands, anchors, now_s)

    # -- counters mode: columnar MAC, no events ---------------------------------

    def _start_counters_phase(self) -> None:
        """Snapshot the fleet on first use and mark the attacked rows."""
        if self._state is None:
            self._state = FleetState.from_world(self.world)
        world = self.world
        targets = []
        if world.attack is not None:
            # DevAddrs are unique in a world, so they name rows exactly.
            targets = [world.devices[name].dev_addr for name in world.attack_targets]
        self._attacked_rows = np.isin(self._state.dev_addr, targets)

    def _row_next_allowed_s(self, row: int) -> float:
        """The row's duty-cycle gate column."""
        return float(self._state.next_allowed_s[row])

    def _window_pass_vector(self, w_times: np.ndarray, w_items: np.ndarray) -> None:
        """One vectorized duty-gate/transmit pass over unique devices.

        In-window retries go back on the wheel, re-creating the bucket;
        the drive loop re-pops it as a follow-up pass, so retry chains
        resolve with the same per-device outcomes as the event heap
        (each pass holds one event per device, and only a device's own
        event order affects its duty budget).
        """
        state = self._state
        self._processed += w_times.size
        gate = w_times >= state.next_allowed_s[w_items]
        blocked_t, blocked_d = w_times[~gate], w_items[~gate]
        if blocked_t.size:
            self.deferrals += blocked_t.size
            retry = np.maximum(state.next_allowed_s[blocked_d] + self.backoff_s, blocked_t)
            self._wheel.push(retry, blocked_d)
        att_t, att_d = w_times[gate], w_items[gate]
        if att_t.size:
            self.attempts += att_t.size
            self._register_attempts(att_t, att_d, state)

    def _transmit_row(self, row: int, t: float) -> None:
        """One row's transmit bookkeeping, LinkADRAns FOpts included."""
        state = self._state
        fopts = self._fopts_len.pop(row, 0)
        if fopts:
            # A pending LinkADRAns rides in FOpts: the frame grows
            # and so does its airtime (same memoized arithmetic the
            # device's transmit would use).
            air = airtime_s(
                int(state.frame_bytes[row]) + fopts,
                int(state.spreading_factor[row]),
                coding_rate=int(state.coding_rate[row]),
            )
        else:
            air = float(state.airtime_s[row])
        state.next_allowed_s[row] = t + air + air * (1.0 / float(state.duty_cycle[row]) - 1.0)
        fcnt = int(state.fcnt[row])
        state.fcnt[row] = (state.fcnt[row] + 1) & 0xFFFF
        self._stage_counters(
            np.array([t]),
            np.array([row], dtype=np.int64),
            state,
            air=np.array([air]),
            fcnt=np.array([fcnt], dtype=np.int64),
            ans=np.array([fopts > 0]),
        )

    def _register_attempts(self, att_t: np.ndarray, att_d: np.ndarray, state: FleetState) -> None:
        """Duty/FCnt bookkeeping plus emission staging for one attempt batch."""
        air = state.airtime_s[att_d]
        # Same expression (and FP op order) as DutyCycleLimiter.register.
        state.next_allowed_s[att_d] = att_t + air + air * (1.0 / state.duty_cycle[att_d] - 1.0)
        fcnt = state.fcnt[att_d].copy()
        state.fcnt[att_d] = (state.fcnt[att_d] + 1) & 0xFFFF
        self._stage_counters(att_t, att_d, state, air=air, fcnt=fcnt)

    def _stage_counters(
        self,
        att_t: np.ndarray,
        att_d: np.ndarray,
        state: FleetState,
        air: np.ndarray,
        fcnt: np.ndarray,
        ans: np.ndarray | None = None,
    ) -> None:
        """Draw emission latencies and stage the frames for the window flush.

        Jitter comes from the per-device generators when the state
        carries them (object-built fleets: the *same* draws, in the same
        per-device order, events mode would make) and from the world's
        engine stream otherwise (spec-built fleets).  Link columns are
        captured per frame because an ADR retune can mutate a row
        between its transmit and its window's flush.
        """
        if state.rngs is not None:
            sigmas = state.latency_jitter_s[att_d]
            jitter = np.array(
                [
                    state.rngs[d].normal(0.0, s) if s else 0.0
                    for d, s in zip(att_d.tolist(), sigmas.tolist())
                ]
            )
        else:
            jitter = self.world.rng.standard_normal(att_t.size) * state.latency_jitter_s[att_d]
        emission = att_t + np.maximum(state.latency_mean_s[att_d] + jitter, 0.0)
        self._pend_emission.append(emission)
        self._pend_device.append(att_d)
        self._pend_air.append(air)
        self._pend_sf.append(state.spreading_factor[att_d].copy())
        self._pend_fcnt.append(fcnt)
        self._pend_ans.append(
            np.zeros(att_t.size, dtype=bool) if ans is None else ans
        )
        self._pend_powers.append(state.powers_dbm[att_d].copy())
        self._pend_in_range.append(state.in_range[att_d].copy())
        self._pend_delays.append(state.delays_s[att_d])

    def _apply_retune(self, row: int, request: LinkADRReq, fcnt_down: int, t: float) -> None:
        """Apply a shipped LinkADRReq to a fleet row (device-side mirror).

        Mirrors ``EndDevice.apply_link_adr`` on the columns: SF and TX
        power switch when the request validates, airtime / received
        powers / range masks rebuild from the cached path-loss column,
        and a 2-byte LinkADRAns queues into the row's FOpts budget
        either way.  No frame is built, so ``fcnt_down`` and ``t`` go
        unused.
        """
        state = self._state
        data_rate = EU868.DATA_RATES.get(request.data_rate_index)
        accepted = (
            request.ch_mask != 0
            and data_rate is not None
            and 0 <= request.tx_power_index <= 7
        )
        if accepted:
            state.spreading_factor[row] = data_rate.spreading_factor
            state.tx_power_dbm[row] = EU868.tx_power_dbm(request.tx_power_index)
            state.airtime_s[row] = airtime_s(
                int(state.frame_bytes[row]),
                int(state.spreading_factor[row]),
                coding_rate=int(state.coding_rate[row]),
            )
            # Same FP op order as the site_power_columns build pass.
            powers_row = (
                state.tx_power_dbm[row] + state.site_tx_gain_db + state.site_rx_gain_db
            ) - state.loss_db[row]
            state.powers_dbm[row] = powers_row
            floor = SX1276_DEMOD_SNR_FLOOR_DB[int(state.spreading_factor[row])]
            state.in_range[row] = (powers_row - state.site_noise) >= floor
        pending = self._fopts_len.get(row, 0)
        if pending + _LINK_ADR_ANS_BYTES <= _FOPTS_CAPACITY:
            self._fopts_len[row] = pending + _LINK_ADR_ANS_BYTES

    def _flush_counters(self, now_s: float) -> None:
        """Resolve one window's staged frames straight into counters.

        Classification mirrors the events-mode delivery exactly: frames
        in range of no gateway are low-SNR losses; attacked frames in
        range are suppressed by the jammer and their recordings replayed
        (they still interfere as colliders); the rest deliver if they
        survive capture at any in-range site and collide otherwise.

        With an ADR controller attached, delivered frames then feed it
        -- a server-side mirror of ``NetworkServer.resolve`` without
        frames or keys: SNR evidence is the link-budget power column
        minus the site noise floor, and observations arrive in the
        deduplicator's ``(first arrival, DevAddr, FCnt)`` order with the
        fused (earliest surviving-site) timestamp.  Suppressed frames
        never feed the controller (the replay detector is assumed to
        catch their replays).  Queued commands ship off each device's
        last delivered uplink.
        """
        if not self._pend_emission:
            return
        state = self._state
        emission = np.concatenate(self._pend_emission)
        devices = np.concatenate(self._pend_device)
        air = np.concatenate(self._pend_air)
        sf = np.concatenate(self._pend_sf)
        fcnt = np.concatenate(self._pend_fcnt)
        ans = np.concatenate(self._pend_ans)
        powers = np.vstack(self._pend_powers)
        in_range = np.vstack(self._pend_in_range)
        delays = np.vstack(self._pend_delays)
        self._pend_emission, self._pend_device, self._pend_air = [], [], []
        self._pend_sf, self._pend_fcnt, self._pend_ans = [], [], []
        self._pend_powers, self._pend_in_range, self._pend_delays = [], [], []
        survives = window_survival(emission, air, delays, powers, sf, self._table)
        attacked = self._attacked_rows[devices]
        reachable = in_range.any(axis=1)
        ok = in_range & survives
        delivered = ok.any(axis=1) & ~attacked
        suppressed = attacked & reachable
        n_low = int((~reachable).sum())
        n_suppressed = int(suppressed.sum())
        n_delivered = int(delivered.sum())
        n_collided = emission.size - n_low - n_suppressed - n_delivered
        self._counts += (n_delivered, n_collided, n_low, n_suppressed, n_suppressed)
        adr = self._adr
        if adr is None:
            return
        idx = np.flatnonzero(delivered)
        addrs = state.dev_addr[devices[idx]]
        if idx.size:
            arrivals = np.where(ok[idx], emission[idx, None] + delays[idx], np.inf).min(axis=1)
            snrs = np.where(
                ok[idx], powers[idx] - state.site_noise[None, :], -np.inf
            ).max(axis=1)
            order = np.lexsort((fcnt[idx], addrs, arrivals))
            for k in order.tolist():
                frame = int(idx[k])
                if ans[frame]:
                    adr.acknowledge(int(addrs[k]), LinkADRAns(True, True, True))
                adr.observe(
                    int(addrs[k]), float(snrs[k]), int(sf[frame]), time_s=float(arrivals[k])
                )
        commands = adr.take_pending()
        if not commands:
            return
        last_frame = dict(zip(addrs.tolist(), idx.tolist()))
        anchors = {}
        for command in commands:
            frame = last_frame.get(command.dev_addr)
            if frame is not None:
                anchors[command.dev_addr] = (
                    int(devices[frame]),
                    float(emission[frame] + air[frame]),
                    int(sf[frame]),
                    np.flatnonzero(ok[frame]).tolist(),
                )
        self._ship_adr(commands, anchors, now_s)
