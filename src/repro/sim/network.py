"""Frame-level world simulation: devices, SoftLoRa gateways, attacker.

This layer runs fleets of devices against one or more gateways over
link-budget channels, with an optional frame delay attacker.  Signal
processing is abstracted by
:class:`~repro.server.fusion.FbMeasurementModel` -- a calibrated
noise model of the paper's FB estimator (Fig. 14) -- so thousands of
frames simulate in milliseconds while preserving exactly the quantities
the defense sees: arrival times and measured FBs.  Waveform-level
experiments bypass this module and run the real DSP.

Every world judges through one :class:`repro.server.NetworkServer`.
Each transmission routes to every in-range gateway in one batched step.
Each gateway measures its own FB (noise drawn at its own link SNR) and
forwards it; the server deduplicates, fuses, and issues the verdict
carried in ``WorldEvent.verdict``.  By default the server runs on the
primary gateway's commodity chip with best-SNR fusion, which is the
paper's one-gateway setup: the detector sees that gateway's FB
unchanged.  :meth:`LoRaWanWorld.add_gateway` places more
:class:`GatewaySite` instances and :meth:`LoRaWanWorld.attach_server`
swaps in another server.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.attack.delay_attack import FrameDelayAttack
from repro.constants import SX1276_DEMOD_SNR_FLOOR_DB
from repro.core.softlora import SoftLoRaGateway
from repro.errors import ConfigurationError
from repro.lorawan.device import EndDevice, UplinkTransmission
from repro.radio.channel import (
    LinkBudget,
    noise_floor_dbm,
    site_power_columns,
    window_survival,
)
from repro.radio.geometry import Position
from repro.server.forwarding import GatewayForward
from repro.server.fusion import FbMeasurementModel, FusionPolicy
from repro.server.network_server import NetworkServer, ServerVerdict


class EventKind(enum.Enum):
    """What happened to one uplink on the air."""

    DELIVERED = "delivered"
    LOST_LOW_SNR = "lost_low_snr"
    LOST_COLLISION = "lost_collision"
    SUPPRESSED_BY_JAMMING = "suppressed_by_jamming"
    REPLAY_DELIVERED = "replay_delivered"


@dataclass
class WorldEvent:
    """One thing that happened on the simulated air interface.

    Attributes:
        kind: What happened.
        time_s: When it reached the earliest gateway that heard it.
        device_name: The transmitting device.
        snr_db: Best link SNR over the gateway sites.
        transmission: The device's uplink.
        detail: Why a frame was lost or suppressed.
        metadata: The server's ``"verdict"`` and the ``"gateway_ids"``
            that heard the frame, plus the attack outcome of suppressed
            and replayed frames under ``"attack"``.
    """

    kind: EventKind
    time_s: float
    device_name: str
    snr_db: float
    transmission: UplinkTransmission | None = None
    detail: str = ""
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def verdict(self) -> ServerVerdict | None:
        """The network server's verdict, for delivered and replayed frames."""
        return self.metadata.get("verdict")


@dataclass
class GatewaySite:
    """One gateway placement: identity, position, and its own link budget."""

    gateway_id: str
    position: Position
    link: LinkBudget


@dataclass(frozen=True)
class StagedTransmission:
    """A MAC-layer-complete uplink awaiting channel resolution.

    The MAC layer (frame assembly, counters, duty-cycle accounting, the
    radio-latency draw) has already run; the channel -- contention,
    per-gateway SNR, delivery -- has not.  The event-driven runtime
    stages these as device traffic fires and delivers each event window
    in one batch (:meth:`LoRaWanWorld.deliver_staged`).
    """

    device_name: str
    transmission: UplinkTransmission


@dataclass
class LoRaWanWorld:
    """Devices, SoftLoRa gateways, their network server, channel, attacker.

    Attributes:
        gateway: The primary gateway's SDR front end and commodity chip.
        gateway_position: Where the primary gateway stands.
        link: The primary gateway's link budget.
        devices: Every device, by name.
        fb_model: Calibrated FB-estimation noise of the frame-level path.
        rng: Draws the FB-estimation noise.
        now_s: The world clock in simulated seconds.  Each runtime
            phase starts here and leaves it at the phase end; callers
            may move it forward between phases.
        events: Every event so far, in delivery order.
        attack: The armed frame delay attack, if any.
        attack_targets: Names of the attacked devices.
        attack_delay_s: How long the attacker holds each frame.
        primary_gateway_id: The primary gateway's id in forwards.
        extra_gateways: Further gateway placements.
        server: The network server issuing every verdict.  ``None``
            builds the default: best-SNR fusion over the primary
            gateway's commodity chip.
    """

    gateway: SoftLoRaGateway
    gateway_position: Position
    link: LinkBudget
    devices: dict[str, EndDevice] = field(default_factory=dict)
    fb_model: FbMeasurementModel = field(default_factory=FbMeasurementModel)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    now_s: float = field(init=False, default=0.0)
    events: list[WorldEvent] = field(default_factory=list)
    attack: FrameDelayAttack | None = None
    attack_targets: set[str] = field(default_factory=set)
    attack_delay_s: float = 10.0
    primary_gateway_id: str = "gw-0"
    extra_gateways: list[GatewaySite] = field(default_factory=list)
    server: NetworkServer = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        """Build the default network server when none was given."""
        if self.server is None:
            self.server = NetworkServer(mac=self.gateway.commodity, fusion=FusionPolicy.BEST_SNR)
        self._dev_addrs = {device.dev_addr for device in self.devices.values()}

    def add_device(self, device: EndDevice) -> None:
        """Add a device (unique name and DevAddr) and provision its keys on the server."""
        if device.name in self.devices:
            raise ConfigurationError(f"duplicate device name {device.name!r}")
        if device.dev_addr in self._dev_addrs:
            raise ConfigurationError(f"duplicate DevAddr {device.dev_addr:08x}")
        self.devices[device.name] = device
        self._dev_addrs.add(device.dev_addr)
        self.server.register_device(device.dev_addr, device.keys)

    # -- gateway topology -------------------------------------------------------

    @property
    def sites(self) -> list[GatewaySite]:
        """Every gateway placement, the paper's primary gateway first."""
        primary = GatewaySite(
            gateway_id=self.primary_gateway_id,
            position=self.gateway_position,
            link=self.link,
        )
        return [primary, *self.extra_gateways]

    def site_columns(self) -> tuple[list[GatewaySite], np.ndarray]:
        """Sites plus their positions stacked as one ``(n_sites, 3)`` array.

        The :attr:`sites` property rebuilds its list on every access;
        hot paths needing every gateway placement at once (the
        vectorized collision sweep, the columnar engine) grab the list
        and the coordinate columns in one call.
        """
        sites = self.sites
        xyz = np.array(
            [[site.position.x, site.position.y, site.position.z] for site in sites],
            dtype=float,
        )
        return sites, xyz

    def add_gateway(
        self,
        position: Position,
        link: LinkBudget | None = None,
        gateway_id: str | None = None,
    ) -> GatewaySite:
        """Place an additional gateway with its own position and link budget.

        Args:
            position: Where the gateway stands.
            link: Its link budget; ``None`` reuses the primary gateway's.
            gateway_id: Its id in forwards; ``None`` numbers it ``gw-<n>``.

        Returns:
            The new site.  Uplinks route to it from the next delivery on.

        Raises:
            ConfigurationError: When the id is already taken.
        """
        if gateway_id is None:
            gateway_id = f"gw-{1 + len(self.extra_gateways)}"
        taken = {site.gateway_id for site in self.sites}
        if gateway_id in taken:
            raise ConfigurationError(f"duplicate gateway id {gateway_id!r}")
        site = GatewaySite(
            gateway_id=gateway_id,
            position=position,
            link=self.link if link is None else link,
        )
        self.extra_gateways.append(site)
        return site

    def attach_server(self, server: NetworkServer | None = None) -> NetworkServer:
        """Replace the world's network server.

        Every already-known device's session keys are provisioned on the
        new server; devices added later are provisioned automatically.

        Args:
            server: The new server; ``None`` builds a default
                :class:`NetworkServer` (inverse-variance fusion).

        Returns:
            The attached server.
        """
        if server is None:
            server = NetworkServer()
        self.server = server
        for device in self.devices.values():
            server.register_device(device.dev_addr, device.keys)
        return server

    def arm_attack(self, attack: FrameDelayAttack, targets: list[str], delay_s: float) -> None:
        """Enable the frame delay attack against the named devices."""
        unknown = [t for t in targets if t not in self.devices]
        if unknown:
            raise ConfigurationError(f"unknown attack targets: {unknown}")
        if delay_s <= 0:
            raise ConfigurationError(f"attack delay must be positive, got {delay_s}")
        self.attack = attack
        self.attack_targets = set(targets)
        self.attack_delay_s = delay_s

    def disarm_attack(self) -> None:
        """Stop attacking; later uplinks travel untouched."""
        self.attack = None
        self.attack_targets = set()

    # -- uplink processing ----------------------------------------------------

    def uplink(self, device_name: str, request_time_s: float) -> WorldEvent:
        """Run one uplink through the channel (and attacker) synchronously.

        A one-device :meth:`uplink_batch`: the frame is staged and
        delivered through the same path as a fleet step.
        """
        return self.deliver_staged(self.stage_uplinks([device_name], request_time_s))[0]

    def uplink_batch(
        self, device_names: list[str] | None = None, request_time_s: float = 0.0
    ) -> list[WorldEvent]:
        """One fleet step: run many uplinks through the channel at once.

        Every device is staged at ``request_time_s`` (the MAC layer stays
        per-device -- counters and buffers are stateful) and the whole
        step is delivered in one :meth:`deliver_staged` call.

        Args:
            device_names: Devices to step; ``None`` steps the whole fleet.
            request_time_s: When every device is asked to transmit.

        Returns:
            One primary event per device, aligned with ``device_names``
            (``[]`` for an empty batch).  Jam-suppression events of
            attacked devices are appended to :attr:`events` too.
        """
        names = list(self.devices) if device_names is None else list(device_names)
        return self.deliver_staged(self.stage_uplinks(names, request_time_s))

    def stage_uplinks(
        self, device_names: list[str], request_time_s: float
    ) -> list[StagedTransmission]:
        """Run the MAC layer only: one frame per device, nothing delivered.

        The event-driven runtime stages each device at its *own* request
        time (one call per traffic event) and later hands a whole event
        window to :meth:`deliver_staged`; the caller-stepped
        :meth:`uplink_batch` stages every device at one shared time.
        """
        return [
            StagedTransmission(name, self.devices[name].transmit(request_time_s))
            for name in device_names
        ]

    def deliver_staged(
        self,
        staged: list[StagedTransmission],
        threshold_table: np.ndarray | None = None,
    ) -> list[WorldEvent]:
        """Route one staged batch through every in-range gateway to the server.

        The MAC layer has already run per device; everything after it is
        batched: one :func:`~repro.radio.channel.site_power_columns` call
        gives every (frame, gateway) SNR and delay -- the link columns
        the counters mode reads too -- then one vectorized FB-measurement
        draw over every delivery in staged order (each gateway's
        estimate carries noise at its own SNR), one
        :class:`~repro.server.GatewayForward` per delivery, and a single
        :meth:`NetworkServer.process_step` that deduplicates, fuses, and
        issues one verdict per transmission (``event.verdict``).

        The frame delay attack jams at the device side, so the original
        is suppressed at *every* gateway; the replay is modeled as heard
        by the same in-range set (the replayer's placement is not
        tracked at frame level), which keeps multi-gateway detection a
        question of FB evidence rather than replay coverage.

        Args:
            staged: The transmissions to deliver.
            threshold_table: Contend the batch as one event window: the
                6x6 grid of
                :meth:`~repro.radio.channel.InterSfCaptureMatrix.threshold_table`
                with which :func:`~repro.radio.channel.window_survival`
                resolves every (frame, gateway) reception on the same
                columns.  A transmission that survives at none of its
                in-range sites becomes a :attr:`EventKind.LOST_COLLISION`
                event.  Attacked devices bypass contention: the jammer
                suppresses the original regardless, and the attacker
                replays into a clear window of its choosing.  ``None``
                (:meth:`uplink`, :meth:`uplink_batch`) delivers without
                contention.

        Returns:
            One primary event per staged transmission, in staged order.
        """
        if not staged:
            return []
        sites, site_xyz = self.site_columns()
        devices = [self.devices[item.device_name] for item in staged]
        txs = [item.transmission for item in staged]
        powers, delays = site_power_columns(
            sites,
            site_xyz,
            devices,
            np.array([[d.position.x, d.position.y, d.position.z] for d in devices]),
            np.array([tx.tx_power_dbm for tx in txs]),
        )
        noise = np.array(
            [noise_floor_dbm(site.link.bandwidth_hz, site.link.noise_figure_db) for site in sites]
        )
        if threshold_table is None:
            survives = None
        else:
            survives = window_survival(
                np.array([tx.emission_time_s for tx in txs]),
                np.array([tx.airtime_s for tx in txs]),
                delays,
                powers,
                np.array([tx.spreading_factor for tx in txs], dtype=np.int64),
                threshold_table,
            ).tolist()
        primary: dict[int, WorldEvent] = {}
        suppressed: dict[int, WorldEvent] = {}
        # (tx, fb_true, site_index, snr, arrival) per gateway delivery.
        deliveries: list[tuple[UplinkTransmission, float, int, float, float]] = []
        heard: dict[int, WorldEvent] = {}
        rows = zip((powers - noise).tolist(), delays.tolist())
        for index, (item, tx, (snrs, delays_s)) in enumerate(zip(staged, txs, rows)):
            name = item.device_name
            # The frame's own SF/power, not the device's current ones: an
            # ADR downlink may have retuned the device since this frame
            # was staged.
            floor = SX1276_DEMOD_SNR_FLOOR_DB[tx.spreading_factor]
            in_range = [i for i, snr in enumerate(snrs) if snr >= floor]
            best_snr = max(snrs)
            if not in_range:
                where = f" at all {len(sites)} gateways" if len(sites) > 1 else ""
                primary[index] = WorldEvent(
                    kind=EventKind.LOST_LOW_SNR,
                    time_s=tx.emission_time_s + min(delays_s),
                    device_name=name,
                    snr_db=best_snr,
                    transmission=tx,
                    detail=f"SNR {best_snr:.1f} dB below SF{tx.spreading_factor} "
                    f"floor {floor:.1f} dB{where}",
                )
                continue
            attacked = self.attack is not None and name in self.attack_targets
            if not attacked and survives is not None:
                surviving = [i for i in in_range if survives[index][i]]
                if not surviving:
                    primary[index] = WorldEvent(
                        kind=EventKind.LOST_COLLISION,
                        time_s=tx.emission_time_s + min(delays_s[i] for i in in_range),
                        device_name=name,
                        snr_db=best_snr,
                        transmission=tx,
                        detail="lost in co-SF collision at every in-range gateway",
                    )
                    continue
                in_range = surviving
            if attacked:
                outcome = self.attack.execute(tx, self.attack_delay_s)
                suppressed[index] = WorldEvent(
                    kind=EventKind.SUPPRESSED_BY_JAMMING,
                    time_s=tx.emission_time_s + delays_s[in_range[0]],
                    device_name=name,
                    snr_db=best_snr,
                    transmission=tx,
                    detail=f"jam outcome: {outcome.jam_outcome.value}",
                    metadata={"attack": outcome},
                )
                fb_true = outcome.replayed.fb_hz
                kind = EventKind.REPLAY_DELIVERED
                metadata: dict[str, Any] = {"attack": outcome}
                emission = outcome.replayed.arrival_time_s
            else:
                fb_true = tx.fb_hz
                kind = EventKind.DELIVERED
                metadata = {}
                emission = tx.emission_time_s
            for i in in_range:
                deliveries.append((tx, fb_true, i, snrs[i], emission + delays_s[i]))
            metadata["gateway_ids"] = tuple(sites[i].gateway_id for i in in_range)
            heard[index] = WorldEvent(
                kind=kind,
                time_s=emission + min(delays_s[i] for i in in_range),
                device_name=name,
                snr_db=best_snr,
                transmission=tx,
                metadata=metadata,
            )

        if deliveries:
            fbs = self.fb_model.measure_batch(
                np.array([fb_true for _, fb_true, _, _, _ in deliveries]),
                np.array([snr for _, _, _, snr, _ in deliveries]),
                self.rng,
                spreading_factors=np.array([tx.spreading_factor for tx, *_ in deliveries]),
            )
            forwards = [
                GatewayForward(
                    gateway_id=sites[i].gateway_id,
                    mac_bytes=tx.mac_bytes,
                    arrival_time_s=arrival,
                    fb_hz=float(fb),
                    snr_db=snr,
                    spreading_factor=tx.spreading_factor,
                )
                for (tx, _, i, snr, arrival), fb in zip(deliveries, fbs)
            ]
            verdicts = {(v.dev_addr, v.fcnt): v for v in self.server.process_step(forwards)}
            for index, event in heard.items():
                tx = event.transmission
                event.metadata["verdict"] = verdicts.get((tx.dev_addr, tx.fcnt))
                primary[index] = event

        ordered = []
        for index in range(len(staged)):
            if index in suppressed:
                self.events.append(suppressed[index])
            event = primary[index]
            self.events.append(event)
            ordered.append(event)
        return ordered

    # -- queries ----------------------------------------------------------------

    def events_of(self, kind: EventKind) -> list[WorldEvent]:
        """Every recorded event of one kind, in delivery order."""
        return [e for e in self.events if e.kind is kind]
