"""The LoRaWAN network server: the layer above N SoftLoRa gateways.

The paper evaluates one SoftLoRa gateway; a deployment hears every
uplink at several.  This module adds the resolution point such a
deployment needs (mirroring a real LoRaWAN network server, which is
where MIC checks, counter tracking, and dedup actually live):

1. **ingest** -- gateways forward :class:`repro.server.GatewayForward`
   records: raw PHYPayload + PHY timestamp + FB estimate + SNR;
2. **deduplicate** -- forwards group into uplinks by (DevAddr, FCnt)
   within an airtime window (:class:`repro.server.UplinkDeduplicator`);
3. **verify once** -- MIC + frame counter are checked a single time per
   uplink, against the *fused* (earliest) timestamp;
4. **fuse** -- per-gateway FB estimates combine under a
   :class:`repro.server.FusionPolicy`; per-gateway timestamps fuse to
   the earliest arrival;
5. **one verdict** -- the fused FB runs through one
   :class:`repro.core.detector.ReplayDetector` whose history is shared
   across gateways in one :class:`repro.core.detector.FbStore`, so a
   replay is flagged (and the benign drift tracked) exactly once per
   over-the-air transmission, with evidence from every receiving
   gateway.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.core.detector import DetectionResult, FbDatabase, ReplayDetector
from repro.errors import ConfigurationError, DecodeError
from repro.lorawan.gateway import CommodityGateway, GatewayReception, ReceiveStatus
from repro.lorawan.mac import LinkADRAns, parse_mac_commands
from repro.lorawan.security import SessionKeys
from repro.server.adr import AdrController
from repro.server.dedup import DeduplicatedUplink, UplinkDeduplicator
from repro.server.forwarding import GatewayForward
from repro.server.fusion import (
    FbMeasurementModel,
    FbNoiseModel,
    FusedFb,
    FusionPolicy,
    best_snr_contribution,
    fuse_fb,
    fuse_timestamp_s,
)

if TYPE_CHECKING:
    from repro.core.timestamping import TimestampedReading


class ServerStatus(enum.Enum):
    """Final disposition of one deduplicated uplink at the network server."""

    ACCEPTED = "accepted"
    REPLAY_DETECTED = "replay_detected"
    MAC_REJECTED = "mac_rejected"


@dataclass(frozen=True)
class ServerVerdict:
    """The single, fused outcome of one over-the-air transmission."""

    status: ServerStatus
    node_id: str
    dev_addr: int
    fcnt: int
    timestamp_s: float
    fused: FusedFb | None = None
    detection: DetectionResult | None = None
    reception: GatewayReception | None = None
    gateway_ids: tuple[str, ...] = ()
    gateway_fbs_hz: tuple[float, ...] = ()
    gateway_snrs_db: tuple[float, ...] = ()
    duplicates_dropped: int = 0
    detail: str = ""

    @property
    def accepted(self) -> bool:
        """True when the uplink passed MAC and replay checks."""
        return self.status is ServerStatus.ACCEPTED

    @property
    def attack_detected(self) -> bool:
        """True when the fused FB flagged the uplink as a replay."""
        return self.status is ServerStatus.REPLAY_DETECTED

    @property
    def n_gateways(self) -> int:
        """How many gateways contributed evidence to this verdict."""
        return len(self.gateway_ids)

    @property
    def fused_fb_hz(self) -> float | None:
        """The fused FB estimate, when the uplink got as far as fusion."""
        return None if self.fused is None else self.fused.fb_hz

    @property
    def readings(self) -> "list[TimestampedReading]":
        """Sync-free reconstructed sensor readings of the accepted frame.

        Empty for every other status: a flagged replay's readings carry
        the attacker's delay and are never used for data timestamping.
        """
        return self.reception.readings if self.accepted else []

    def as_dict(self) -> dict:
        """JSON-safe form of the verdict for the service control plane.

        Floats are carried verbatim (JSON round-trips Python floats
        exactly), so two verdict streams agree field for field iff they
        agree bit for bit -- the property the daemon's golden tests
        compare through.  The in-process-only ``reception`` object is
        reduced to its reconstructed reading timestamps.
        """
        return {
            "status": self.status.value,
            "node_id": self.node_id,
            "dev_addr": self.dev_addr,
            "fcnt": self.fcnt,
            "timestamp_s": self.timestamp_s,
            "fused": None if self.fused is None else self.fused.as_dict(),
            "detection": None if self.detection is None else self.detection.as_dict(),
            "gateway_ids": list(self.gateway_ids),
            "gateway_fbs_hz": list(self.gateway_fbs_hz),
            "gateway_snrs_db": list(self.gateway_snrs_db),
            "duplicates_dropped": self.duplicates_dropped,
            "detail": self.detail,
            "readings": [
                {"value": r.value, "timestamp_s": r.global_time_s} for r in self.readings
            ],
        }


def _gateway_copies(verdicts: Iterable[ServerVerdict]) -> int:
    """Gateway copies behind the verdicts, dropped duplicates included."""
    return sum(v.n_gateways + v.duplicates_dropped for v in verdicts)


@dataclass
class NetworkServer:
    """Deduplicating, FB-fusing resolution point for N SoftLoRa gateways.

    Attributes:
        mac: The MAC back end: session keys, MIC verification,
            per-device frame counters, and sync-free timestamp
            reconstruction.  One :meth:`CommodityGateway.receive_frame`
            call per *deduplicated* uplink, never per gateway copy.
        detector: The cross-gateway replay detector.  Defaults to an
            in-memory :class:`~repro.core.detector.FbDatabase`-backed
            detector; pass one over a :mod:`repro.server.store` backend
            for durable per-device FB state.
        fusion: FB fusion policy (best-SNR or inverse-variance
            weighting).
        fb_noise: Calibrated SNR -> sigma model used to weight (and
            report confidence for) per-gateway FB estimates.
        window_s: Dedup airtime window, see :class:`UplinkDeduplicator`.
        adr: Optional :class:`~repro.server.adr.AdrController`.  When
            set, every *accepted* uplink feeds its best-gateway
            (SNR, SF) evidence to the controller, LinkADRAns answers
            found in uplink FOpts close the loop, and retune commands
            queue on ``adr.pending`` for the runtime's class-A downlink
            path.
        verdicts: Every verdict issued so far, in resolution order.
    """

    mac: CommodityGateway = field(
        default_factory=lambda: CommodityGateway(name="network-server")
    )
    detector: ReplayDetector = field(
        default_factory=lambda: ReplayDetector(database=FbDatabase())
    )
    fusion: FusionPolicy = FusionPolicy.INVERSE_VARIANCE
    fb_noise: FbNoiseModel = field(default_factory=FbMeasurementModel)
    window_s: float = 2.0
    adr: AdrController | None = None
    verdicts: list[ServerVerdict] = field(default_factory=list)
    _dedup: UplinkDeduplicator = field(init=False)
    #: Gateway copies summed over ``verdicts``, kept by :meth:`resolve`.
    _copies: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        """Build the dedup stage from the configured airtime window."""
        self._dedup = UplinkDeduplicator(window_s=self.window_s)
        self._copies = _gateway_copies(self.verdicts)

    # -- provisioning -----------------------------------------------------------

    def register_device(self, dev_addr: int, keys: SessionKeys) -> None:
        """Provision a device's session keys (ABP)."""
        self.mac.register_device(dev_addr, keys)

    def bootstrap_fb_profile(self, dev_addr: int, fb_estimates: list[float]) -> None:
        """Load an offline FB profile for a device (paper Sec. 7.2)."""
        self.detector.bootstrap(f"{dev_addr:08x}", fb_estimates)

    # -- ingestion --------------------------------------------------------------

    def ingest(self, forward: GatewayForward) -> None:
        """Collect one gateway forward for the next resolution pass."""
        self._dedup.offer(forward)

    @property
    def malformed(self) -> int:
        """Forwards whose PHYPayload would not even parse."""
        return self._dedup.malformed

    # -- resolution -------------------------------------------------------------

    def resolve(self) -> list[ServerVerdict]:
        """Deduplicate, fuse, and judge every collected forward.

        Uplinks resolve in (fused timestamp, DevAddr, FCnt) order --
        independent of the order gateways delivered their forwards -- so
        the frame counters and the FB histories observe transmissions in
        air order.  Returns (and records) one verdict per uplink.
        """
        fresh = [self._judge(uplink) for uplink in self._dedup.resolve()]
        self.verdicts.extend(fresh)
        self._copies += _gateway_copies(fresh)
        return fresh

    def process_step(self, forwards: Iterable[GatewayForward]) -> list[ServerVerdict]:
        """Ingest one batch of forwards and resolve it: the fleet-step entry."""
        if self._dedup.pending:
            raise ConfigurationError(
                "process_step on a server with unresolved forwards; call resolve() first"
            )
        for forward in forwards:
            self.ingest(forward)
        return self.resolve()

    def _judge(self, uplink: DeduplicatedUplink) -> ServerVerdict:
        contributions = uplink.contributions
        timestamp = fuse_timestamp_s(contributions)
        best = best_snr_contribution(contributions)
        evidence = {
            "gateway_ids": uplink.gateway_ids,
            "gateway_fbs_hz": tuple(c.fb_hz for c in contributions),
            "gateway_snrs_db": tuple(c.snr_db for c in contributions),
            "duplicates_dropped": uplink.duplicates_dropped,
        }
        # MAC once per uplink, on the best copy's bytes (all copies carry
        # the same frame; a gateway-side corruption fails the MIC here).
        reception = self.mac.receive_frame(best.mac_bytes, timestamp)
        if reception.status is not ReceiveStatus.OK:
            return ServerVerdict(
                status=ServerStatus.MAC_REJECTED,
                node_id=f"{uplink.dev_addr:08x}",
                dev_addr=uplink.dev_addr,
                fcnt=uplink.fcnt,
                timestamp_s=timestamp,
                reception=reception,
                detail=f"MAC layer rejected: {reception.status.value}",
                **evidence,
            )
        fused = fuse_fb(contributions, self.fusion, self.fb_noise)
        node_id = f"{reception.mac_frame.dev_addr:08x}"
        check = self.detector.check(node_id, fused.fb_hz, time_s=timestamp)
        if self.adr is not None and not check.is_replay:
            self._feed_adr(uplink, best, reception, timestamp)
        return ServerVerdict(
            status=(
                ServerStatus.REPLAY_DETECTED if check.is_replay else ServerStatus.ACCEPTED
            ),
            node_id=node_id,
            dev_addr=uplink.dev_addr,
            fcnt=uplink.fcnt,
            timestamp_s=timestamp,
            fused=fused,
            detection=check,
            reception=reception,
            detail=check.reason,
            **evidence,
        )

    def _feed_adr(
        self,
        uplink: DeduplicatedUplink,
        best: GatewayForward,
        reception: GatewayReception,
        timestamp: float,
    ) -> None:
        """Close the ADR loop on one accepted uplink.

        LinkADRAns answers riding the frame's FOpts re-arm the
        controller first, then the uplink's best-gateway (SNR, SF)
        evidence feeds the margin rule (possibly queueing the next
        command).  Replays never reach here: an attacker's replay chain
        must not steer a victim's data rate.
        """
        fopts = reception.mac_frame.fopts if reception.mac_frame is not None else b""
        if fopts:
            try:
                answers = parse_mac_commands(fopts, uplink=True)
            except DecodeError:
                answers = []  # non-command FOpts: not ours to interpret
            for answer in answers:
                if isinstance(answer, LinkADRAns):
                    self.adr.acknowledge(uplink.dev_addr, answer)
        self.adr.observe(
            uplink.dev_addr, best.snr_db, best.spreading_factor, time_s=timestamp
        )

    # -- queries ----------------------------------------------------------------

    def verdicts_of(self, status: ServerStatus) -> list[ServerVerdict]:
        """Every recorded verdict with one final status."""
        return [v for v in self.verdicts if v.status is status]

    def device_state(self, dev_addr: int) -> dict | None:
        """One device's server-side state, JSON-safe (the REST ``/devices`` body).

        Collects the learned FB profile (sample count plus the guarded
        acceptance interval the detector currently enforces), the ADR
        loop's view of the device (last observed SF, commands issued)
        when a controller is attached, and the most recent verdict.
        Returns ``None`` for a device that was never registered.
        """
        if self.mac.keys_for(dev_addr) is None:
            return None
        node_id = f"{dev_addr:08x}"
        # One store read: the interval carries its sample count, and a
        # store returns None exactly when the node has no samples.
        interval = self.detector.database.interval(node_id, self.detector.guard_hz)
        last = next((v for v in reversed(self.verdicts) if v.dev_addr == dev_addr), None)
        state: dict = {
            "dev_addr": dev_addr,
            "node_id": node_id,
            "fb_profile": {
                "sample_count": 0 if interval is None else interval.samples,
                "guard_hz": self.detector.guard_hz,
                "interval": None if interval is None else interval.as_dict(),
            },
            "last_verdict": None if last is None else last.as_dict(),
        }
        if self.adr is not None:
            state["adr"] = {
                "last_sf": self.adr.last_sf(dev_addr),
                "commands_issued": self.adr.commands_issued(dev_addr),
                "converged": self.adr.converged(dev_addr),
            }
        return state

    @property
    def dedup_rate(self) -> float:
        """Mean gateway copies per resolved uplink (1.0 = no diversity)."""
        if not self.verdicts:
            return 0.0
        return self._copies / len(self.verdicts)
