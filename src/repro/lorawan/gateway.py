"""A commodity LoRaWAN gateway (RN2483/SX1276 class).

This is the *undefended* baseline of the paper: it demodulates frames in
hardware, checks MIC and frame counter, and timestamps arrivals with its
GPS-disciplined clock.  It has no PHY-layer visibility, which is what
makes the frame delay attack invisible to it -- and what the SoftLoRa
design adds back via the SDR receiver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.clock.clocks import GpsClock, PerfectClock
from repro.core.timestamping import ElapsedTimeCodec, SyncFreeTimestamper, TimestampedReading
from repro.errors import DecodeError, MicError
from repro.lorawan.device import decode_sensor_payload
from repro.lorawan.mac import FrameCounterValidator, MacFrame, verify_and_decrypt
from repro.lorawan.security import SessionKeys


class ReceiveStatus(enum.Enum):
    """What the gateway's stack reported for one reception attempt."""

    OK = "ok"
    SILENT_DROP = "silent_drop"  # preamble/header corrupted; no OS alert
    CRC_ALERT = "crc_alert"  # payload corrupted; stack raises a warning
    MIC_FAILURE = "mic_failure"
    COUNTER_REJECT = "counter_reject"
    UNKNOWN_DEVICE = "unknown_device"


@dataclass
class GatewayReception:
    """A frame as accepted (or rejected) by the gateway."""

    status: ReceiveStatus
    arrival_time_s: float
    mac_frame: MacFrame | None = None
    readings: list[TimestampedReading] = field(default_factory=list)
    detail: str = ""
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        return self.status is ReceiveStatus.OK


@dataclass
class CommodityGateway:
    """MIC-checking, counter-tracking, arrival-timestamping gateway."""

    name: str = "gateway"
    clock: GpsClock | PerfectClock = field(default_factory=PerfectClock)
    codec: ElapsedTimeCodec = field(default_factory=ElapsedTimeCodec)
    tx_latency_compensation_s: float = 0.0
    _keys: dict[int, SessionKeys] = field(default_factory=dict)
    _counter: FrameCounterValidator = field(default_factory=FrameCounterValidator)

    def register_device(self, dev_addr: int, keys: SessionKeys) -> None:
        """Provision a device's session keys (ABP)."""
        self._keys[dev_addr] = keys

    def known_devices(self) -> list[int]:
        return sorted(self._keys)

    def keys_for(self, dev_addr: int) -> SessionKeys | None:
        """A registered device's session keys (``None`` if unknown)."""
        return self._keys.get(dev_addr)

    def _timestamper(self) -> SyncFreeTimestamper:
        return SyncFreeTimestamper(
            codec=self.codec, tx_latency_s=self.tx_latency_compensation_s
        )

    def receive_frame(self, mac_bytes: bytes, arrival_global_time_s: float) -> GatewayReception:
        """Process a demodulated frame arriving at a global instant.

        ``arrival_global_time_s`` is the true arrival; the gateway reads
        it through its GPS clock, then runs MIC, counter, and sync-free
        timestamp reconstruction.
        """
        arrival = self.clock.read(arrival_global_time_s)
        try:
            frame = verify_and_decrypt(mac_bytes, self._lookup_keys(mac_bytes))
        except KeyError:
            return GatewayReception(
                status=ReceiveStatus.UNKNOWN_DEVICE,
                arrival_time_s=arrival,
                detail="no session keys for the claimed DevAddr",
            )
        except MicError as exc:
            return GatewayReception(
                status=ReceiveStatus.MIC_FAILURE, arrival_time_s=arrival, detail=str(exc)
            )
        if not self._counter.validate(frame.dev_addr, frame.fcnt):
            return GatewayReception(
                status=ReceiveStatus.COUNTER_REJECT,
                arrival_time_s=arrival,
                mac_frame=frame,
                detail=f"frame counter {frame.fcnt} not after "
                f"{self._counter.last_seen(frame.dev_addr)}",
            )
        return GatewayReception(
            status=ReceiveStatus.OK,
            arrival_time_s=arrival,
            mac_frame=frame,
            readings=self._reconstruct(frame, arrival),
        )

    def _lookup_keys(self, mac_bytes: bytes) -> SessionKeys:
        if len(mac_bytes) < 5:
            raise DecodeError("frame too short to carry a DevAddr")
        dev_addr = int.from_bytes(mac_bytes[1:5], "little")
        return self._keys[dev_addr]

    def _reconstruct(self, frame: MacFrame, arrival_s: float) -> list[TimestampedReading]:
        """Sync-free timestamp reconstruction from the decrypted payload."""
        try:
            values, ticks = decode_sensor_payload(frame.frm_payload, self.codec)
        except DecodeError:
            return []  # not a sensor payload; nothing to timestamp
        return self._timestamper().reconstruct(arrival_s, ticks, values)
