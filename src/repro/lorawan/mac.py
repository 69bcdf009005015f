"""LoRaWAN MAC frame construction and parsing (1.0.2 uplink subset).

Wire format::

    MHDR(1) | DevAddr(4, LE) | FCtrl(1) | FCnt(2, LE) | FOpts(0..15)
            | FPort(1) | FRMPayload(N) | MIC(4)

Only the pieces exercised by the paper are implemented: unconfirmed /
confirmed data uplinks with encrypted payloads and CMAC MICs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, DecodeError
from repro.lorawan.security import (
    SessionKeys,
    UPLINK_DIRECTION,
    compute_uplink_mic,
    encrypt_frm_payload,
    verify_uplink_mic,
)


class MType(enum.IntEnum):
    """LoRaWAN message types (MHDR bits 7..5)."""

    JOIN_REQUEST = 0b000
    JOIN_ACCEPT = 0b001
    UNCONFIRMED_UP = 0b010
    UNCONFIRMED_DOWN = 0b011
    CONFIRMED_UP = 0b100
    CONFIRMED_DOWN = 0b101


_UPLINK_TYPES = (MType.UNCONFIRMED_UP, MType.CONFIRMED_UP)


class MacCommandCid(enum.IntEnum):
    """MAC command identifiers (LoRaWAN 1.0.2 Sec. 5), uplink + downlink."""

    LINK_ADR = 0x03


#: All 16 EU868 channel-mask bits enabled (the repro models one sub-band).
LINK_ADR_ALL_CHANNELS = 0xFFFF


@dataclass(frozen=True)
class LinkADRReq:
    """The network server's ADR command: switch data rate and TX power.

    Wire format (LoRaWAN 1.0.2 Sec. 5.2)::

        CID(0x03) | DataRate_TXPower(1) | ChMask(2, LE) | Redundancy(1)

    ``data_rate_index`` addresses :class:`repro.lorawan.regional.EU868`'s
    DR table (DR0 = SF12 .. DR5 = SF7); ``tx_power_index`` steps the EIRP
    down from the regional maximum in 2 dB increments.
    """

    data_rate_index: int
    tx_power_index: int = 0
    ch_mask: int = LINK_ADR_ALL_CHANNELS
    nb_trans: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.data_rate_index <= 15:
            raise ConfigurationError(f"DataRate field is 4 bits, got {self.data_rate_index}")
        if not 0 <= self.tx_power_index <= 15:
            raise ConfigurationError(f"TXPower field is 4 bits, got {self.tx_power_index}")
        if not 0 <= self.ch_mask <= 0xFFFF:
            raise ConfigurationError(f"ChMask must fit 16 bits, got {self.ch_mask:#x}")
        if not 1 <= self.nb_trans <= 15:
            raise ConfigurationError(f"NbTrans must be in [1, 15], got {self.nb_trans}")

    def encode(self) -> bytes:
        """The five wire bytes of this command."""
        dr_power = ((self.data_rate_index & 0x0F) << 4) | (self.tx_power_index & 0x0F)
        return (
            bytes([MacCommandCid.LINK_ADR, dr_power])
            + self.ch_mask.to_bytes(2, "little")
            + bytes([self.nb_trans & 0x0F])
        )


@dataclass(frozen=True)
class LinkADRAns:
    """The device's answer to a :class:`LinkADRReq`.

    Wire format: ``CID(0x03) | Status(1)`` with status bits 0..2 set when
    the channel mask, data rate, and TX power were each acceptable.
    """

    channel_mask_ok: bool = True
    data_rate_ok: bool = True
    power_ok: bool = True

    @property
    def accepted(self) -> bool:
        """True when the device applied every field of the request."""
        return self.channel_mask_ok and self.data_rate_ok and self.power_ok

    def encode(self) -> bytes:
        """The two wire bytes of this answer."""
        status = (
            (0x01 if self.channel_mask_ok else 0)
            | (0x02 if self.data_rate_ok else 0)
            | (0x04 if self.power_ok else 0)
        )
        return bytes([MacCommandCid.LINK_ADR, status])


def parse_mac_commands(data: bytes, uplink: bool) -> list[LinkADRReq | LinkADRAns]:
    """Parse a FOpts / port-0 FRMPayload byte stream into MAC commands.

    ``uplink=True`` parses device-originated commands (answers),
    ``uplink=False`` server-originated ones (requests).  Raises
    :class:`DecodeError` on unknown CIDs or truncated commands.
    """
    commands: list[LinkADRReq | LinkADRAns] = []
    offset = 0
    while offset < len(data):
        cid = data[offset]
        if cid != MacCommandCid.LINK_ADR:
            raise DecodeError(f"unknown MAC command CID {cid:#04x} at offset {offset}")
        if uplink:
            if offset + 2 > len(data):
                raise DecodeError("truncated LinkADRAns")
            status = data[offset + 1]
            commands.append(
                LinkADRAns(
                    channel_mask_ok=bool(status & 0x01),
                    data_rate_ok=bool(status & 0x02),
                    power_ok=bool(status & 0x04),
                )
            )
            offset += 2
        else:
            if offset + 5 > len(data):
                raise DecodeError("truncated LinkADRReq")
            dr_power = data[offset + 1]
            commands.append(
                LinkADRReq(
                    data_rate_index=(dr_power >> 4) & 0x0F,
                    tx_power_index=dr_power & 0x0F,
                    ch_mask=int.from_bytes(data[offset + 2 : offset + 4], "little"),
                    # Wire NbTrans 0 means "keep the current value"
                    # (LoRaWAN 1.0.2 Sec. 5.2); the default of one
                    # transmission models exactly that.
                    nb_trans=(data[offset + 4] & 0x0F) or 1,
                )
            )
            offset += 5
    return commands


@dataclass(frozen=True)
class MacFrame:
    """A parsed (or to-be-built) LoRaWAN data frame."""

    mtype: MType
    dev_addr: int
    fcnt: int
    fport: int
    frm_payload: bytes
    fctrl: int = 0
    fopts: bytes = b""
    mic: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.dev_addr <= 0xFFFFFFFF:
            raise ConfigurationError(f"DevAddr must fit 32 bits, got {self.dev_addr:#x}")
        if not 0 <= self.fcnt <= 0xFFFF:
            raise ConfigurationError(f"FCnt (16-bit wire field) out of range: {self.fcnt}")
        if not 0 <= self.fport <= 255:
            raise ConfigurationError(f"FPort must fit a byte, got {self.fport}")
        if len(self.fopts) > 15:
            raise ConfigurationError(f"FOpts limited to 15 bytes, got {len(self.fopts)}")


def build_uplink(
    keys: SessionKeys,
    dev_addr: int,
    fcnt: int,
    payload: bytes,
    fport: int = 1,
    confirmed: bool = False,
    fopts: bytes = b"",
) -> bytes:
    """Build a complete uplink PHYPayload (encrypt + MIC)."""
    mtype = MType.CONFIRMED_UP if confirmed else MType.UNCONFIRMED_UP
    mhdr = (int(mtype) << 5) & 0xFF
    fctrl = len(fopts) & 0x0F
    fhdr = (
        dev_addr.to_bytes(4, "little")
        + bytes([fctrl])
        + (fcnt & 0xFFFF).to_bytes(2, "little")
        + fopts
    )
    encrypted = encrypt_frm_payload(keys.app_skey, dev_addr, fcnt, UPLINK_DIRECTION, payload)
    msg = bytes([mhdr]) + fhdr + bytes([fport]) + encrypted
    mic = compute_uplink_mic(keys.nwk_skey, dev_addr, fcnt, msg)
    return msg + mic


def parse_mac_frame(raw: bytes) -> MacFrame:
    """Parse an uplink PHYPayload without verifying crypto."""
    if len(raw) < 12:
        raise DecodeError(f"MAC frame too short: {len(raw)} bytes (minimum 12)")
    mhdr = raw[0]
    mtype_bits = mhdr >> 5
    try:
        mtype = MType(mtype_bits)
    except ValueError:
        raise DecodeError(f"unknown MType {mtype_bits:#05b}") from None
    if mtype not in _UPLINK_TYPES:
        raise DecodeError(f"not an uplink data frame: {mtype.name}")
    dev_addr = int.from_bytes(raw[1:5], "little")
    fctrl = raw[5]
    fcnt = int.from_bytes(raw[6:8], "little")
    fopts_len = fctrl & 0x0F
    fopts_end = 8 + fopts_len
    if len(raw) < fopts_end + 1 + 4:
        raise DecodeError("MAC frame truncated inside FOpts/FPort")
    fopts = raw[8:fopts_end]
    fport = raw[fopts_end]
    frm_payload = raw[fopts_end + 1 : -4]
    mic = raw[-4:]
    return MacFrame(
        mtype=mtype,
        dev_addr=dev_addr,
        fcnt=fcnt,
        fport=fport,
        frm_payload=frm_payload,
        fctrl=fctrl,
        fopts=fopts,
        mic=mic,
    )


def verify_and_decrypt(raw: bytes, keys: SessionKeys) -> MacFrame:
    """Parse, verify the MIC, and decrypt the payload.

    Raises :class:`MicError` on MIC failure.  Returns the frame with
    ``frm_payload`` replaced by the decrypted plaintext.
    """
    frame = parse_mac_frame(raw)
    msg, mic = raw[:-4], raw[-4:]
    verify_uplink_mic(keys.nwk_skey, frame.dev_addr, frame.fcnt, msg, mic)
    plaintext = encrypt_frm_payload(
        keys.app_skey, frame.dev_addr, frame.fcnt, UPLINK_DIRECTION, frame.frm_payload
    )
    return MacFrame(
        mtype=frame.mtype,
        dev_addr=frame.dev_addr,
        fcnt=frame.fcnt,
        fport=frame.fport,
        frm_payload=plaintext,
        fctrl=frame.fctrl,
        fopts=frame.fopts,
        mic=frame.mic,
    )


@dataclass
class FrameCounterValidator:
    """Tracks the last-seen FCnt per device, rejecting non-increasing ones.

    The paper stresses that frame counting does **not** stop the delay
    attack: the replayed frame carries the *next* counter value (the
    original never arrived), so this validator accepts it.
    """

    max_gap: int = 16384
    _last: dict[int, int] = field(default_factory=dict)

    def validate(self, dev_addr: int, fcnt: int) -> bool:
        """True if the counter is acceptable; updates state when it is."""
        last = self._last.get(dev_addr)
        if last is not None:
            if fcnt <= last or fcnt - last > self.max_gap:
                return False
        self._last[dev_addr] = fcnt
        return True

    def last_seen(self, dev_addr: int) -> int | None:
        return self._last.get(dev_addr)
