"""Semtech UDP packet-forwarder codec (protocol version 2).

Real LoRaWAN gateways run Semtech's reference ``packet_forwarder``: every
uplink a gateway hears is shipped to the network server as a ``PUSH_DATA``
UDP datagram carrying a JSON ``rxpk`` array, and the downlink path is
pulled by the gateway through ``PULL_DATA`` keep-alives answered with
``PULL_RESP`` datagrams.  This module implements the wire format the
:class:`~repro.service.daemon.NetworkServerDaemon` speaks::

    byte 0     protocol version (0x02)
    bytes 1-2  random token, echoed verbatim by the matching ACK
    byte 3     packet identifier (PUSH_DATA .. TX_ACK)
    bytes 4-11 gateway EUI (PUSH_DATA / PULL_DATA / TX_ACK only)
    bytes 12-  JSON object (PUSH_DATA / PULL_RESP / TX_ACK)

Two SoftLoRa extension fields ride inside each ``rxpk`` object so the
daemon reconstructs exactly the evidence an in-process
:class:`~repro.server.GatewayForward` carries:

* ``atime`` -- the gateway's sync-free PHY timestamp in float seconds
  (the standard ``tmst`` microsecond counter wraps at 2^32 and cannot
  round-trip a float timestamp bit-exactly);
* ``fbhz`` -- the gateway's own least-squares frequency-bias estimate.

JSON float literals round-trip Python floats exactly (``repr`` precision
both ways), so a forward encoded on the gateway side decodes to the very
same floats at the server -- the property the daemon's golden
bit-identical verdict tests rely on, pinned by the hypothesis round-trip
suite in ``tests/test_semtech_codec.py``.
"""

from __future__ import annotations

import base64
import binascii
import enum
import functools
import json
import math
import re
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, DecodeError
from repro.server.forwarding import GatewayForward

#: The protocol version every datagram opens with.
PROTOCOL_VERSION = 2

#: Smallest possible datagram: version + token + identifier.
_MIN_LEN = 4
_EUI_LEN = 8

#: EU868 default uplink channel reported in ``rxpk.freq`` (MHz).
DEFAULT_FREQ_MHZ = 868.1


class PacketType(enum.IntEnum):
    """Datagram identifiers of the Semtech UDP protocol (byte 3)."""

    PUSH_DATA = 0x00
    PUSH_ACK = 0x01
    PULL_DATA = 0x02
    PULL_RESP = 0x03
    PULL_ACK = 0x04
    TX_ACK = 0x05


def eui_from_gateway_id(gateway_id: str) -> bytes:
    """Encode a repo gateway id (``"gw-0"``) as an 8-byte EUI, losslessly.

    The UTF-8 bytes are zero-padded to eight; ids longer than eight bytes
    do not fit the wire field and are rejected rather than truncated
    (truncation would break the daemon's id round-trip and with it the
    bit-identical verdict guarantee).
    """
    raw = gateway_id.encode("utf-8")
    if not raw:
        raise ConfigurationError("gateway id must be non-empty")
    if len(raw) > _EUI_LEN:
        raise ConfigurationError(
            f"gateway id {gateway_id!r} exceeds the 8-byte EUI field"
        )
    if raw[-1] == 0:
        raise ConfigurationError("gateway id must not end in a NUL byte")
    return raw.ljust(_EUI_LEN, b"\x00")


def gateway_id_from_eui(eui: bytes) -> str:
    """Invert :func:`eui_from_gateway_id`; hex string for foreign EUIs.

    An EUI produced by a real gateway (raw MAC-derived bytes) is not
    valid padded UTF-8; those render as 16 hex digits, which is also the
    conventional LoRaWAN presentation.
    """
    if len(eui) != _EUI_LEN:
        raise DecodeError(f"gateway EUI must be 8 bytes, got {len(eui)}")
    stripped = eui.rstrip(b"\x00")
    try:
        decoded = stripped.decode("utf-8")
    except UnicodeDecodeError:
        return eui.hex()
    if decoded and decoded.isprintable() and "\x00" not in decoded:
        return decoded
    return eui.hex()


_DATR_RE = re.compile(r"^SF(?P<sf>\d+)BW(?P<bw>\d+)$")


def encode_datr(spreading_factor: int, bandwidth_khz: int = 125) -> str:
    """The ``rxpk.datr`` LoRa datarate string, e.g. ``"SF7BW125"``."""
    return f"SF{spreading_factor}BW{bandwidth_khz}"


@functools.lru_cache(maxsize=64)
def parse_datr(datr: str) -> int:
    """Spreading factor out of a ``datr`` string; raises on malformed input.

    A fleet sends a handful of distinct ``datr`` strings, so the parsed
    values are memoized; a rejected string raises again every time.
    """
    match = _DATR_RE.match(datr)
    if match is None:
        raise DecodeError(f"malformed datr {datr!r}")
    sf = int(match.group("sf"))
    if not 7 <= sf <= 12:
        raise DecodeError(f"spreading factor {sf} outside 7..12")
    return sf


def rxpk_from_forward(forward: GatewayForward) -> dict:
    """One ``rxpk`` JSON object for a gateway forward.

    Standard packet-forwarder fields (``tmst``, ``freq``, ``datr``,
    ``lsnr``, ``size``, ``data``) are filled for protocol fidelity; the
    ``atime``/``fbhz`` SoftLoRa extensions carry the float evidence
    exactly (see the module docstring).
    """
    micros = forward.arrival_time_s * 1e6
    rssi = forward.snr_db - 120.0
    return {
        # tmst/rssi are cosmetic protocol-fidelity fields; atime/lsnr
        # carry the authoritative floats, so extremes just clamp here.
        "tmst": int(micros) % 2**32 if math.isfinite(micros) else 0,
        "atime": forward.arrival_time_s,
        "chan": 0,
        "rfch": 0,
        "freq": DEFAULT_FREQ_MHZ,
        "stat": 1,
        "modu": "LORA",
        "datr": encode_datr(forward.spreading_factor),
        "codr": "4/5",
        "rssi": int(rssi) if math.isfinite(rssi) else -120,
        "lsnr": forward.snr_db,
        "fbhz": forward.fb_hz,
        "size": len(forward.mac_bytes),
        "data": base64.b64encode(forward.mac_bytes).decode("ascii"),
    }


def _require_number(rxpk: dict, key: str) -> float:
    """``rxpk[key]`` as a finite float.

    ``json.loads`` accepts ``NaN`` and ``Infinity``, and an integer can
    overflow a float; either is a :class:`DecodeError`, so the rxpk is
    dropped and counted as malformed instead of reaching the detector.
    """
    value = rxpk.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DecodeError(f"rxpk field {key!r} missing or non-numeric")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise DecodeError(f"rxpk field {key!r} is not a finite number")
    return number


def forward_from_rxpk(gateway_id: str, rxpk: dict) -> GatewayForward:
    """Rebuild the :class:`GatewayForward` a received ``rxpk`` describes.

    ``atime`` falls back to the wrapped ``tmst`` microsecond counter and
    ``fbhz`` to 0.0 when a non-SoftLoRa forwarder omits the extensions;
    a malformed ``data``/``datr`` field or a non-finite number raises
    :class:`DecodeError`.
    """
    if not isinstance(rxpk, dict):
        raise DecodeError("rxpk entry is not a JSON object")
    data = rxpk.get("data")
    if not isinstance(data, str) or not data:
        raise DecodeError("rxpk field 'data' missing or empty")
    try:
        mac_bytes = base64.b64decode(data, validate=True)
    except (binascii.Error, ValueError) as exc:
        raise DecodeError(f"rxpk field 'data' is not valid base64: {exc}") from None
    if not mac_bytes:
        raise DecodeError("rxpk field 'data' decodes to an empty payload")
    datr = rxpk.get("datr")
    if not isinstance(datr, str):
        raise DecodeError("rxpk field 'datr' missing")
    if "atime" in rxpk:
        arrival = _require_number(rxpk, "atime")
    else:
        arrival = _require_number(rxpk, "tmst") * 1e-6
    fb_hz = _require_number(rxpk, "fbhz") if "fbhz" in rxpk else 0.0
    return GatewayForward(
        gateway_id=gateway_id,
        mac_bytes=mac_bytes,
        arrival_time_s=arrival,
        fb_hz=fb_hz,
        snr_db=_require_number(rxpk, "lsnr") if "lsnr" in rxpk else 0.0,
        spreading_factor=parse_datr(datr),
    )


# -- datagram dataclasses ---------------------------------------------------------


@dataclass(frozen=True)
class PushData:
    """An uplink report: ``rxpk`` forwards and/or a ``stat`` beacon."""

    token: int
    gateway_eui: bytes
    rxpks: tuple[dict, ...] = ()
    stat: dict | None = None

    @property
    def gateway_id(self) -> str:
        """The forwarding gateway's repo-side identifier."""
        return gateway_id_from_eui(self.gateway_eui)

    def forwards(self) -> list[GatewayForward]:
        """Every rxpk decoded into a server forward (raises on malformed)."""
        gateway_id = self.gateway_id
        return [forward_from_rxpk(gateway_id, rxpk) for rxpk in self.rxpks]


@dataclass(frozen=True)
class PushAck:
    """Acknowledges a ``PUSH_DATA``, echoing its token."""

    token: int


@dataclass(frozen=True)
class PullData:
    """A gateway's downlink keep-alive: 'send my PULL_RESPs here'."""

    token: int
    gateway_eui: bytes

    @property
    def gateway_id(self) -> str:
        """The polling gateway's repo-side identifier."""
        return gateway_id_from_eui(self.gateway_eui)


@dataclass(frozen=True)
class PullAck:
    """Acknowledges a ``PULL_DATA``, echoing its token."""

    token: int


@dataclass(frozen=True)
class PullResp:
    """A downlink order: one ``txpk`` JSON object to put on the air."""

    token: int
    txpk: dict = field(default_factory=dict)

    def payload_bytes(self) -> bytes:
        """The raw downlink PHYPayload carried in ``txpk.data``."""
        data = self.txpk.get("data")
        if not isinstance(data, str) or not data:
            raise DecodeError("txpk field 'data' missing or empty")
        try:
            return base64.b64decode(data, validate=True)
        except (binascii.Error, ValueError) as exc:
            raise DecodeError(f"txpk field 'data' is not valid base64: {exc}") from None


@dataclass(frozen=True)
class TxAck:
    """The gateway's outcome report for one ``PULL_RESP``."""

    token: int
    gateway_eui: bytes
    error: str = "NONE"


Datagram = PushData | PushAck | PullData | PullAck | PullResp | TxAck


def txpk_for_downlink(raw: bytes, spreading_factor: int, *, immediate: bool = True) -> dict:
    """A minimal ``txpk`` object ordering one downlink transmission."""
    return {
        "imme": immediate,
        "freq": DEFAULT_FREQ_MHZ,
        "rfch": 0,
        "powe": 14,
        "modu": "LORA",
        "datr": encode_datr(spreading_factor),
        "codr": "4/5",
        "ipol": True,
        "size": len(raw),
        "data": base64.b64encode(raw).decode("ascii"),
    }


def _check_token(token: int) -> int:
    if not 0 <= token <= 0xFFFF:
        raise ConfigurationError(f"token must fit 16 bits, got {token}")
    return token


def _json_body(message: Datagram, body: dict) -> bytes:
    """``body`` as RFC 8259 JSON; a non-finite float is refused, not sent as ``NaN``."""
    try:
        return json.dumps(body, separators=(",", ":"), allow_nan=False).encode("utf-8")
    except ValueError as exc:
        raise ConfigurationError(f"cannot encode {type(message).__name__}: {exc}") from None


def encode_datagram(message: Datagram) -> bytes:
    """Serialize one protocol message to its UDP wire form.

    A non-finite float anywhere in the JSON body (a forward's ``fb_hz``,
    ``snr_db`` or ``arrival_time_s``) raises :class:`ConfigurationError`
    naming the message type: the daemon's decoder would count such a
    datagram as malformed.
    """
    head = bytes([PROTOCOL_VERSION]) + _check_token(message.token).to_bytes(2, "big")
    if isinstance(message, PushData):
        body: dict = {}
        if message.rxpks:
            body["rxpk"] = list(message.rxpks)
        if message.stat is not None:
            body["stat"] = message.stat
        return (
            head
            + bytes([PacketType.PUSH_DATA])
            + message.gateway_eui
            + _json_body(message, body)
        )
    if isinstance(message, PushAck):
        return head + bytes([PacketType.PUSH_ACK])
    if isinstance(message, PullData):
        return head + bytes([PacketType.PULL_DATA]) + message.gateway_eui
    if isinstance(message, PullAck):
        return head + bytes([PacketType.PULL_ACK])
    if isinstance(message, PullResp):
        return head + bytes([PacketType.PULL_RESP]) + _json_body(message, {"txpk": message.txpk})
    if isinstance(message, TxAck):
        body = {} if message.error == "NONE" else {"txpk_ack": {"error": message.error}}
        return (
            head
            + bytes([PacketType.TX_ACK])
            + message.gateway_eui
            + _json_body(message, body)
        )
    raise ConfigurationError(f"cannot encode {type(message).__name__}")


def _parse_json_object(raw: bytes, context: str) -> dict:
    try:
        parsed = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DecodeError(f"{context} carries invalid JSON: {exc}") from None
    if not isinstance(parsed, dict):
        raise DecodeError(f"{context} JSON is not an object")
    return parsed


def _split_eui(data: bytes, context: str) -> tuple[bytes, bytes]:
    if len(data) < _MIN_LEN + _EUI_LEN:
        raise DecodeError(f"{context} truncated before the gateway EUI")
    return data[_MIN_LEN : _MIN_LEN + _EUI_LEN], data[_MIN_LEN + _EUI_LEN :]


def decode_datagram(data: bytes) -> Datagram:
    """Parse one UDP datagram; raises :class:`DecodeError` on malformed input.

    Every reject path raises (never crashes): the daemon counts the
    rejects and keeps serving, which the hypothesis suite pins by
    feeding arbitrary byte strings through this function.
    """
    if len(data) < _MIN_LEN:
        raise DecodeError(f"datagram too short: {len(data)} bytes")
    if data[0] != PROTOCOL_VERSION:
        raise DecodeError(f"unsupported protocol version {data[0]}")
    token = int.from_bytes(data[1:3], "big")
    try:
        ptype = PacketType(data[3])
    except ValueError:
        raise DecodeError(f"unknown packet identifier {data[3]:#04x}") from None
    if ptype is PacketType.PUSH_DATA:
        eui, body = _split_eui(data, "PUSH_DATA")
        parsed = _parse_json_object(body, "PUSH_DATA")
        rxpk = parsed.get("rxpk", [])
        if not isinstance(rxpk, list) or not all(isinstance(p, dict) for p in rxpk):
            raise DecodeError("PUSH_DATA 'rxpk' is not an array of objects")
        stat = parsed.get("stat")
        if stat is not None and not isinstance(stat, dict):
            raise DecodeError("PUSH_DATA 'stat' is not an object")
        return PushData(token=token, gateway_eui=eui, rxpks=tuple(rxpk), stat=stat)
    if ptype is PacketType.PUSH_ACK:
        return PushAck(token=token)
    if ptype is PacketType.PULL_DATA:
        eui, trailing = _split_eui(data, "PULL_DATA")
        if trailing:
            raise DecodeError("PULL_DATA carries trailing bytes")
        return PullData(token=token, gateway_eui=eui)
    if ptype is PacketType.PULL_ACK:
        return PullAck(token=token)
    if ptype is PacketType.PULL_RESP:
        parsed = _parse_json_object(data[_MIN_LEN:], "PULL_RESP")
        txpk = parsed.get("txpk")
        if not isinstance(txpk, dict):
            raise DecodeError("PULL_RESP 'txpk' missing or not an object")
        return PullResp(token=token, txpk=txpk)
    eui, body = _split_eui(data, "TX_ACK")
    error = "NONE"
    if body:
        parsed = _parse_json_object(body, "TX_ACK")
        ack = parsed.get("txpk_ack", {})
        if not isinstance(ack, dict):
            raise DecodeError("TX_ACK 'txpk_ack' is not an object")
        value = ack.get("error", "NONE")
        if not isinstance(value, str):
            raise DecodeError("TX_ACK 'error' is not a string")
        error = value
    return TxAck(token=token, gateway_eui=eui, error=error)
