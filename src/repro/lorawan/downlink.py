"""Downlink frames and Class A receive windows.

Class A devices open two receive windows after each uplink (RX1 at
1 second, RX2 at 2 seconds); any downlink must be unicast and must
answer a preceding uplink (LoRaWAN 1.0.2).  This asymmetry is the heart
of the paper's Sec. 4.4 argument against round-trip-timing defenses: a
gateway can receive many uplinks concurrently (one per spreading
factor) but can transmit only one downlink at a time, and every
downlink burns the *gateway's* duty-cycle budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, DecodeError, MicError
from repro.lorawan.crypto.cmac import aes_cmac
from repro.lorawan.mac import MacFrame, MType
from repro.lorawan.security import (
    DOWNLINK_DIRECTION,
    SessionKeys,
    encrypt_frm_payload,
)

#: Class A receive window delays after the end of the uplink (seconds).
RX1_DELAY_S = 1.0
RX2_DELAY_S = 2.0

#: Length of each receive window: long enough to catch a preamble.
RX_WINDOW_LENGTH_S = 0.2


def compute_downlink_mic(nwk_skey: bytes, dev_addr: int, fcnt: int, msg: bytes) -> bytes:
    """Four-byte MIC over a downlink message."""
    b0 = bytes(
        [0x49, 0, 0, 0, 0, DOWNLINK_DIRECTION]
        + list(dev_addr.to_bytes(4, "little"))
        + list(fcnt.to_bytes(4, "little"))
        + [0x00, len(msg)]
    )
    return aes_cmac(nwk_skey, b0 + msg)[:4]


def build_downlink(
    keys: SessionKeys,
    dev_addr: int,
    fcnt: int,
    payload: bytes = b"",
    fport: int = 0,
    confirmed: bool = False,
    ack: bool = False,
) -> bytes:
    """Build a downlink PHYPayload (encrypt + MIC).

    ``ack=True`` sets the FCtrl ACK bit, answering a confirmed uplink.
    """
    mtype = MType.CONFIRMED_DOWN if confirmed else MType.UNCONFIRMED_DOWN
    mhdr = (int(mtype) << 5) & 0xFF
    fctrl = 0x20 if ack else 0x00
    fhdr = (
        dev_addr.to_bytes(4, "little")
        + bytes([fctrl])
        + (fcnt & 0xFFFF).to_bytes(2, "little")
    )
    encrypted = encrypt_frm_payload(keys.app_skey, dev_addr, fcnt, DOWNLINK_DIRECTION, payload)
    msg = bytes([mhdr]) + fhdr + bytes([fport]) + encrypted
    mic = compute_downlink_mic(keys.nwk_skey, dev_addr, fcnt, msg)
    return msg + mic


def parse_downlink(raw: bytes, keys: SessionKeys) -> MacFrame:
    """Parse and verify a downlink; returns the decrypted frame.

    Raises :class:`MicError` on verification failure.
    """
    if len(raw) < 12:
        raise DecodeError(f"downlink too short: {len(raw)} bytes")
    mhdr = raw[0]
    mtype_bits = mhdr >> 5
    try:
        mtype = MType(mtype_bits)
    except ValueError:
        raise DecodeError(f"unknown MType {mtype_bits:#05b}") from None
    if mtype not in (MType.UNCONFIRMED_DOWN, MType.CONFIRMED_DOWN):
        raise DecodeError(f"not a downlink data frame: {mtype.name}")
    dev_addr = int.from_bytes(raw[1:5], "little")
    fctrl = raw[5]
    fcnt = int.from_bytes(raw[6:8], "little")
    fport = raw[8]
    frm_payload = raw[9:-4]
    mic = raw[-4:]
    msg = raw[:-4]
    expected = compute_downlink_mic(keys.nwk_skey, dev_addr, fcnt, msg)
    if expected != mic:
        raise MicError(
            f"downlink MIC mismatch for {dev_addr:#010x}: "
            f"expected {expected.hex()}, got {mic.hex()}"
        )
    plaintext = encrypt_frm_payload(
        keys.app_skey, dev_addr, fcnt, DOWNLINK_DIRECTION, frm_payload
    )
    return MacFrame(
        mtype=mtype,
        dev_addr=dev_addr,
        fcnt=fcnt,
        fport=fport,
        frm_payload=plaintext,
        fctrl=fctrl,
        mic=mic,
    )


@dataclass(frozen=True)
class ReceiveWindow:
    """One Class A receive window in global time."""

    opens_at_s: float
    closes_at_s: float
    which: str  # "RX1" or "RX2"

    def contains(self, time_s: float) -> bool:
        return self.opens_at_s <= time_s <= self.closes_at_s


def class_a_windows(uplink_end_s: float) -> tuple[ReceiveWindow, ReceiveWindow]:
    """The two receive windows following an uplink ending at a time."""
    rx1 = ReceiveWindow(
        opens_at_s=uplink_end_s + RX1_DELAY_S,
        closes_at_s=uplink_end_s + RX1_DELAY_S + RX_WINDOW_LENGTH_S,
        which="RX1",
    )
    rx2 = ReceiveWindow(
        opens_at_s=uplink_end_s + RX2_DELAY_S,
        closes_at_s=uplink_end_s + RX2_DELAY_S + RX_WINDOW_LENGTH_S,
        which="RX2",
    )
    return rx1, rx2


@dataclass
class DownlinkScheduler:
    """The gateway's single downlink chain: one transmission at a time.

    Models the uplink/downlink asymmetry of Sec. 4.4: downlinks queue
    behind each other and behind the gateway's own duty-cycle budget;
    each scheduled downlink returns the window it can actually hit (or
    None if it misses both).
    """

    duty_cycle: float = 0.10  # EU868 g3 downlink sub-band allows 10%
    _busy_until_s: float = 0.0
    _airtime_spent_s: float = 0.0
    scheduled: list[tuple[float, str]] = field(default_factory=list)

    def schedule(
        self, uplink_end_s: float, airtime_s: float, rx2_airtime_s: float | None = None
    ) -> ReceiveWindow | None:
        """Try to place a downlink into the device's RX1/RX2 window.

        ``airtime_s`` is the RX1 transmission time (RX1 mirrors the
        uplink data rate in EU868).  ``rx2_airtime_s``, when given, is
        the time the same frame takes in the RX2 window -- EU868 pins
        RX2 at DR0/SF12, up to ~32x longer -- so the duty-cycle budget
        is charged for what actually goes on the air; ``None`` keeps
        the single-airtime behavior.
        """
        if airtime_s <= 0:
            raise ConfigurationError(f"airtime must be positive, got {airtime_s}")
        if rx2_airtime_s is not None and rx2_airtime_s <= 0:
            raise ConfigurationError(f"RX2 airtime must be positive, got {rx2_airtime_s}")
        rx1, rx2 = class_a_windows(uplink_end_s)
        rx2_airtime = airtime_s if rx2_airtime_s is None else rx2_airtime_s
        for window, on_air in ((rx1, airtime_s), (rx2, rx2_airtime)):
            start = max(window.opens_at_s, self._busy_until_s)
            if window.contains(start):
                off_time = on_air * (1.0 / self.duty_cycle - 1.0)
                self._busy_until_s = start + on_air + off_time
                self._airtime_spent_s += on_air
                self.scheduled.append((start, window.which))
                return window
        return None

    @property
    def airtime_spent_s(self) -> float:
        return self._airtime_spent_s
