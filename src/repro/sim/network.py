"""Frame-level world simulation: devices, SoftLoRa gateway(s), attacker.

This layer runs fleets of devices against one or more gateways over
link-budget channels, with an optional frame delay attacker.  Signal
processing is abstracted by
:class:`~repro.server.fusion.FbMeasurementModel` -- a calibrated
noise model of the paper's FB estimator (Fig. 14) -- so thousands of
frames simulate in milliseconds while preserving exactly the quantities
the defense sees: arrival times and measured FBs.  Waveform-level
experiments bypass this module and run the real DSP.

Two topologies:

* **single gateway** (the paper's setup): every uplink lands at
  :attr:`LoRaWanWorld.gateway` and the verdict is the gateway's own --
  the original code path, bit-for-bit;
* **multi-gateway**: :meth:`LoRaWanWorld.add_gateway` places additional
  :class:`GatewaySite`\\ s and :meth:`LoRaWanWorld.attach_server` puts a
  :class:`repro.server.NetworkServer` above them.  Each transmission
  then routes to *every* in-range gateway in one batched step; each
  gateway measures its own FB (noise drawn at its own link SNR) and
  forwards; the server deduplicates, fuses, and issues the single
  verdict carried in ``WorldEvent.verdict``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.attack.delay_attack import FrameDelayAttack
from repro.constants import SX1276_DEMOD_SNR_FLOOR_DB
from repro.core.softlora import SoftLoRaGateway, SoftLoRaReception
from repro.errors import ConfigurationError
from repro.lorawan.device import EndDevice, UplinkTransmission
from repro.radio.channel import LinkBudget, propagation_delay_s
from repro.radio.geometry import Position
from repro.server.fusion import FbMeasurementModel
from repro.sim.events import Simulator

if TYPE_CHECKING:
    from repro.server.network_server import NetworkServer, ServerVerdict


class EventKind(enum.Enum):
    DELIVERED = "delivered"
    LOST_LOW_SNR = "lost_low_snr"
    LOST_COLLISION = "lost_collision"
    SUPPRESSED_BY_JAMMING = "suppressed_by_jamming"
    REPLAY_DELIVERED = "replay_delivered"


@dataclass
class WorldEvent:
    """One thing that happened on the simulated air interface."""

    kind: EventKind
    time_s: float
    device_name: str
    snr_db: float
    transmission: UplinkTransmission | None = None
    reception: SoftLoRaReception | None = None
    detail: str = ""
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def verdict(self) -> "ServerVerdict | None":
        """The network server's fused verdict (multi-gateway worlds only)."""
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
    in one batch (:meth:`LoRaWanWorld.deliver_staged`)."""

    device_name: str
    transmission: UplinkTransmission


@dataclass
class LoRaWanWorld:
    """Devices + SoftLoRa gateway(s) + channel (+ optional attacker)."""

    gateway: SoftLoRaGateway
    gateway_position: Position
    link: LinkBudget
    devices: dict[str, EndDevice] = field(default_factory=dict)
    fb_model: FbMeasurementModel = field(default_factory=FbMeasurementModel)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    simulator: Simulator = field(default_factory=Simulator)
    events: list[WorldEvent] = field(default_factory=list)
    attack: FrameDelayAttack | None = None
    attack_targets: set[str] = field(default_factory=set)
    attack_delay_s: float = 10.0
    primary_gateway_id: str = "gw-0"
    extra_gateways: list[GatewaySite] = field(default_factory=list)
    server: "NetworkServer | None" = None

    def add_device(self, device: EndDevice) -> None:
        if device.name in self.devices:
            raise ConfigurationError(f"duplicate device name {device.name!r}")
        self.devices[device.name] = device
        self.gateway.commodity.register_device(device.dev_addr, device.keys)
        if self.server is not None:
            self.server.register_device(device.dev_addr, device.keys)

    # -- multi-gateway topology -------------------------------------------------

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
        """Place an additional gateway (its own position and link budget).

        ``link=None`` reuses the primary gateway's link budget.  Uplinks
        only route to the extra gateways once a network server is
        attached (:meth:`attach_server`) -- without one there is nothing
        to deduplicate the copies.
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

    def attach_server(self, server: "NetworkServer | None" = None) -> "NetworkServer":
        """Put a network server above the gateways and switch to fused routing.

        Every already-known device's session keys are provisioned on the
        server (gateways become keyless forwarders); devices added later
        are provisioned automatically.
        """
        if server is None:
            from repro.server.network_server import NetworkServer

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
        self.attack = None
        self.attack_targets = set()

    # -- uplink processing ----------------------------------------------------

    def _snr_for(self, device: EndDevice) -> float:
        return self.link.snr_db(device.tx_power_dbm, device.position, self.gateway_position)

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
        step is delivered in one :meth:`deliver_staged` call.  At a
        single gateway that is one vectorized FB-measurement draw for all
        direct deliveries and a single
        :meth:`SoftLoRaGateway.process_frame_batch` call in device order;
        attacked devices follow, matching the timeline (their replays
        arrive ``attack_delay_s`` later).  With a network server attached
        the step routes every uplink to all in-range gateways instead
        (see :meth:`attach_server`).

        ``device_names=None`` steps the whole fleet.  Returns one primary
        event per device, aligned with ``device_names``; jam-suppression
        events of attacked devices are appended to :attr:`events` too.
        An empty batch is a no-op returning ``[]``.
        """
        names = list(self.devices) if device_names is None else list(device_names)
        return self.deliver_staged(self.stage_uplinks(names, request_time_s))

    # -- staged delivery (the event-driven runtime's entry) -----------------------

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
        site_mask: dict[int, set[int]] | None = None,
    ) -> list[WorldEvent]:
        """Run already-staged transmissions through the channel + gateway(s).

        ``site_mask`` carries contention outcomes: it maps a *staged
        index* to the set of gateway-site indices (positions in
        :attr:`sites`) at which that transmission survived collision
        resolution.  Indices absent from the mask are unconstrained.  A
        transmission masked out of every in-range site becomes a
        :attr:`EventKind.LOST_COLLISION` event; attacked devices bypass
        the mask (the jammer suppresses the original regardless, and the
        attacker replays into a clear window of its choosing).
        """
        if self.server is not None:
            return self._deliver_fused(staged, site_mask)
        if self.extra_gateways:
            raise ConfigurationError(
                "extra gateways are placed but no network server is attached; "
                "call attach_server() to enable multi-gateway routing"
            )
        return self._deliver_single(staged, site_mask)

    def _deliver_single(
        self,
        staged: list[StagedTransmission],
        site_mask: dict[int, set[int]] | None = None,
    ) -> list[WorldEvent]:
        """Single-gateway delivery of one staged batch (the classic path)."""
        if not staged:
            return []
        primary: dict[int, WorldEvent] = {}
        direct = []
        attacked = []
        for index, item in enumerate(staged):
            name = item.device_name
            device = self.devices[name]
            tx = item.transmission
            snr = self.link.snr_db(tx.tx_power_dbm, device.position, self.gateway_position)
            delay = propagation_delay_s(device.position, self.gateway_position)
            # The frame's own SF/power, not the device's current ones: an
            # ADR downlink may have retuned the device since this frame
            # was staged.
            floor = SX1276_DEMOD_SNR_FLOOR_DB[tx.spreading_factor]
            arrival = tx.emission_time_s + delay
            if snr < floor:
                primary[index] = WorldEvent(
                    kind=EventKind.LOST_LOW_SNR,
                    time_s=arrival,
                    device_name=name,
                    snr_db=snr,
                    transmission=tx,
                    detail=f"SNR {snr:.1f} dB below SF{tx.spreading_factor} "
                    f"floor {floor:.1f} dB",
                )
            elif self.attack is not None and name in self.attack_targets:
                attacked.append((index, name, tx, snr, delay, arrival))
            elif site_mask is not None and 0 not in site_mask.get(index, {0}):
                primary[index] = WorldEvent(
                    kind=EventKind.LOST_COLLISION,
                    time_s=arrival,
                    device_name=name,
                    snr_db=snr,
                    transmission=tx,
                    detail="lost in co-SF collision at the gateway",
                )
            else:
                direct.append((index, name, tx, snr, arrival))

        if direct:
            fbs = self.fb_model.measure_batch(
                np.array([tx.fb_hz for _, _, tx, _, _ in direct]),
                np.array([snr for _, _, _, snr, _ in direct]),
                self.rng,
                spreading_factors=np.array(
                    [tx.spreading_factor for _, _, tx, _, _ in direct]
                ),
            )
            receptions = self.gateway.process_frame_batch(
                [
                    (tx.mac_bytes, arrival, float(fb))
                    for (_, _, tx, _, arrival), fb in zip(direct, fbs)
                ]
            )
            for (index, name, tx, snr, arrival), reception in zip(direct, receptions):
                primary[index] = WorldEvent(
                    kind=EventKind.DELIVERED,
                    time_s=arrival,
                    device_name=name,
                    snr_db=snr,
                    transmission=tx,
                    reception=reception,
                )

        suppressed_events: dict[int, WorldEvent] = {}
        if attacked:
            # One batched FB draw for the window's replays, mirroring the
            # direct path.  The attack rng is its own stream, so running
            # every execute() before the measurement batch keeps both
            # streams' draw orders: the world rng still sees the replays'
            # FB noise in staged order, and measure_batch is elementwise
            # identical to the per-frame measure calls it replaces.
            outcomes = [
                self.attack.execute(tx, self.attack_delay_s) for _, _, tx, _, _, _ in attacked
            ]
            replay_fbs = self.fb_model.measure_batch(
                np.array([outcome.replayed.fb_hz for outcome in outcomes]),
                np.array([snr for _, _, _, snr, _, _ in attacked]),
                self.rng,
                spreading_factors=np.array(
                    [tx.spreading_factor for _, _, tx, _, _, _ in attacked]
                ),
            )
            for (index, name, tx, snr, delay, arrival), outcome, fb_measured in zip(
                attacked, outcomes, replay_fbs
            ):
                suppressed_events[index] = WorldEvent(
                    kind=EventKind.SUPPRESSED_BY_JAMMING,
                    time_s=arrival,
                    device_name=name,
                    snr_db=snr,
                    transmission=tx,
                    detail=f"jam outcome: {outcome.jam_outcome.value}",
                    metadata={"attack": outcome},
                )
                replay_arrival = outcome.replayed.arrival_time_s + delay
                reception = self.gateway.process_frame(
                    outcome.replayed.mac_bytes, replay_arrival, float(fb_measured)
                )
                primary[index] = WorldEvent(
                    kind=EventKind.REPLAY_DELIVERED,
                    time_s=replay_arrival,
                    device_name=name,
                    snr_db=snr,
                    transmission=tx,
                    reception=reception,
                    metadata={"attack": outcome},
                )

        ordered = []
        for index in range(len(staged)):
            if index in suppressed_events:
                self.events.append(suppressed_events[index])
            event = primary[index]
            self.events.append(event)
            ordered.append(event)
        return ordered

    # -- multi-gateway fused path -------------------------------------------------

    def _deliver_fused(
        self,
        staged: list[StagedTransmission],
        site_mask: dict[int, set[int]] | None = None,
    ) -> list[WorldEvent]:
        """One staged batch routed through every in-range gateway.

        The MAC layer stays per-device; everything after it is batched
        per step: per-(device, gateway) SNRs from each site's link
        budget, one vectorized FB-measurement draw across the whole
        delivery matrix (each gateway's estimate carries noise at its
        own SNR), one :class:`~repro.server.GatewayForward` per
        delivery, then a single :meth:`NetworkServer.process_step` that
        deduplicates, fuses, and issues one verdict per transmission
        (``event.verdict``).

        The frame delay attack jams at the device side, so the original
        is suppressed at *every* gateway; the replay is modeled as heard
        by the same in-range set (the replayer's placement is not
        tracked at frame level), which keeps multi-gateway detection a
        question of FB evidence rather than replay coverage.  Attacked
        devices bypass ``site_mask`` for the same reason (see
        :meth:`deliver_staged`).
        """
        if not staged:
            return []
        sites = self.sites
        primary: dict[int, WorldEvent] = {}
        suppressed_events: dict[int, WorldEvent] = {}
        # (name, tx, fb_true, site_index, snr, arrival) per delivery.
        deliveries: list[tuple[str, UplinkTransmission, float, int, float, float]] = []
        delivered_meta: dict[int, dict[str, Any]] = {}
        for index, item in enumerate(staged):
            name = item.device_name
            device = self.devices[name]
            tx = item.transmission
            snrs = [
                site.link.snr_db(tx.tx_power_dbm, device.position, site.position)
                for site in sites
            ]
            delays = [propagation_delay_s(device.position, site.position) for site in sites]
            floor = SX1276_DEMOD_SNR_FLOOR_DB[tx.spreading_factor]
            in_range = [i for i, snr in enumerate(snrs) if snr >= floor]
            best_snr = max(snrs)
            if not in_range:
                primary[index] = WorldEvent(
                    kind=EventKind.LOST_LOW_SNR,
                    time_s=tx.emission_time_s + min(delays),
                    device_name=name,
                    snr_db=best_snr,
                    transmission=tx,
                    detail=f"SNR {best_snr:.1f} dB below SF{tx.spreading_factor} "
                    f"floor {floor:.1f} dB at all {len(snrs)} gateways",
                )
                continue
            attacked = self.attack is not None and name in self.attack_targets
            if not attacked and site_mask is not None and index in site_mask:
                surviving = [i for i in in_range if i in site_mask[index]]
                if not surviving:
                    primary[index] = WorldEvent(
                        kind=EventKind.LOST_COLLISION,
                        time_s=tx.emission_time_s + min(delays[i] for i in in_range),
                        device_name=name,
                        snr_db=best_snr,
                        transmission=tx,
                        detail="lost in co-SF collision at all "
                        f"{len(in_range)} in-range gateways",
                    )
                    continue
                in_range = surviving
            if attacked:
                outcome = self.attack.execute(tx, self.attack_delay_s)
                arrival = tx.emission_time_s + delays[in_range[0]]
                suppressed_events[index] = WorldEvent(
                    kind=EventKind.SUPPRESSED_BY_JAMMING,
                    time_s=arrival,
                    device_name=name,
                    snr_db=best_snr,
                    transmission=tx,
                    detail=f"jam outcome: {outcome.jam_outcome.value}",
                    metadata={"attack": outcome},
                )
                fb_true = outcome.replayed.fb_hz
                kind = EventKind.REPLAY_DELIVERED
                base_meta: dict[str, Any] = {"attack": outcome}
                emission = outcome.replayed.arrival_time_s
            else:
                fb_true = tx.fb_hz
                kind = EventKind.DELIVERED
                base_meta = {}
                emission = tx.emission_time_s
            for i in in_range:
                deliveries.append((name, tx, fb_true, i, snrs[i], emission + delays[i]))
            delivered_meta[index] = {
                "kind": kind,
                "meta": base_meta,
                "snr": best_snr,
                "time": emission + min(delays[i] for i in in_range),
                "tx": tx,
                "gateways": tuple(sites[i].gateway_id for i in in_range),
            }

        verdicts_by_key: dict[tuple[int, int], "ServerVerdict"] = {}
        if deliveries:
            from repro.server.forwarding import GatewayForward

            fbs = self.fb_model.measure_batch(
                np.array([fb_true for _, _, fb_true, _, _, _ in deliveries]),
                np.array([snr for _, _, _, _, snr, _ in deliveries]),
                self.rng,
                spreading_factors=np.array(
                    [tx.spreading_factor for _, tx, _, _, _, _ in deliveries]
                ),
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
                for (_, tx, _, i, snr, arrival), fb in zip(deliveries, fbs)
            ]
            for verdict in self.server.process_step(forwards):
                verdicts_by_key[(verdict.dev_addr, verdict.fcnt)] = verdict

        for index, info in delivered_meta.items():
            tx = info["tx"]
            verdict = verdicts_by_key.get((tx.dev_addr, tx.fcnt))
            metadata = dict(info["meta"])
            metadata["verdict"] = verdict
            metadata["gateway_ids"] = info["gateways"]
            primary[index] = WorldEvent(
                kind=info["kind"],
                time_s=info["time"],
                device_name=staged[index].device_name,
                snr_db=info["snr"],
                transmission=tx,
                metadata=metadata,
            )

        ordered = []
        for index in range(len(staged)):
            if index in suppressed_events:
                self.events.append(suppressed_events[index])
            event = primary[index]
            self.events.append(event)
            ordered.append(event)
        return ordered

    def schedule_uplink(self, device_name: str, request_time_s: float) -> None:
        """Queue an uplink on the discrete-event simulator."""
        self.simulator.schedule(request_time_s, self.uplink, device_name, request_time_s)

    def run(self) -> int:
        """Drain the event queue."""
        return self.simulator.run()

    # -- waveform-level path ------------------------------------------------------

    def uplink_with_capture(
        self,
        device_name: str,
        request_time_s: float,
        pad_samples: int = 1200,
        tail_samples: int = 1024,
    ) -> WorldEvent:
        """One uplink through the *full DSP pipeline*.

        Unlike :meth:`uplink`, this synthesizes the actual baseband
        waveform at the link-budget SNR and runs
        :meth:`SoftLoRaGateway.process_capture` -- onset detection, FB
        estimation, demodulation, MIC check, replay check -- end to end.
        Slower, but nothing is abstracted.
        """
        from repro.sdr.iq import IQTrace
        from repro.sdr.noise import complex_awgn, noise_power_for_snr

        device = self.devices[device_name]
        tx = device.transmit(request_time_s)
        snr = self._snr_for(device)
        floor = SX1276_DEMOD_SNR_FLOOR_DB[device.spreading_factor]
        delay = propagation_delay_s(device.position, self.gateway_position)
        if snr < floor:
            event = WorldEvent(
                kind=EventKind.LOST_LOW_SNR,
                time_s=tx.emission_time_s + delay,
                device_name=device_name,
                snr_db=snr,
                transmission=tx,
            )
            self.events.append(event)
            return event
        config = self.gateway.config
        waveform = device.modulate(tx, config)
        noise_power = noise_power_for_snr(1.0, snr)
        padded = np.concatenate(
            [
                np.zeros(pad_samples, dtype=complex),
                waveform,
                np.zeros(tail_samples, dtype=complex),
            ]
        )
        noisy = padded + complex_awgn(len(padded), noise_power, self.rng)
        capture = IQTrace(
            noisy,
            config.sample_rate_hz,
            start_time_s=tx.emission_time_s + delay - pad_samples / config.sample_rate_hz,
        )
        reception = self.gateway.process_capture(capture, noise_power=noise_power)
        event = WorldEvent(
            kind=EventKind.DELIVERED,
            time_s=reception.phy_timestamp_s,
            device_name=device_name,
            snr_db=snr,
            transmission=tx,
            reception=reception,
        )
        self.events.append(event)
        return event

    # -- queries ----------------------------------------------------------------

    def events_of(self, kind: EventKind) -> list[WorldEvent]:
        return [e for e in self.events if e.kind is kind]
