"""Property tests for the Semtech UDP packet-forwarder codec.

Pins the two guarantees the daemon's golden verdict check rests on:

* encode -> decode identity: a ``GatewayForward`` survives the rxpk
  JSON round trip *bit for bit* (floats via repr-exact JSON), and every
  datagram type survives ``encode_datagram``/``decode_datagram``;
* malformed input safety: arbitrary bytes and mangled JSON are rejected
  with :class:`~repro.errors.DecodeError` -- and the daemon's datagram
  handler survives them without crashing, only counting.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DecodeError
from repro.server.forwarding import GatewayForward
from repro.server.network_server import NetworkServer
from repro.service.config import ServiceConfig
from repro.service.daemon import NetworkServerDaemon
from repro.service.semtech import (
    PacketType,
    PullAck,
    PullData,
    PullResp,
    PushAck,
    PushData,
    TxAck,
    decode_datagram,
    encode_datagram,
    encode_datr,
    eui_from_gateway_id,
    forward_from_rxpk,
    gateway_id_from_eui,
    parse_datr,
    rxpk_from_forward,
    txpk_for_downlink,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
gateway_ids = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8
).filter(lambda s: len(s.encode()) <= 8)
tokens = st.integers(min_value=0, max_value=0xFFFF)
euis = st.binary(min_size=8, max_size=8)

forwards = st.builds(
    GatewayForward,
    gateway_id=gateway_ids,
    mac_bytes=st.binary(min_size=1, max_size=64),
    arrival_time_s=finite,
    fb_hz=finite,
    snr_db=finite,
    spreading_factor=st.integers(min_value=7, max_value=12),
)


@given(forward=forwards)
def test_rxpk_round_trip_is_bit_identical(forward):
    """A forward survives rxpk JSON encoding exactly, floats included."""
    rxpk = json.loads(json.dumps(rxpk_from_forward(forward)))
    assert forward_from_rxpk(forward.gateway_id, rxpk) == forward


@given(gateway_id=gateway_ids)
def test_gateway_eui_round_trip(gateway_id):
    """Gateway ids up to 8 UTF-8 bytes map losslessly onto wire EUIs."""
    eui = eui_from_gateway_id(gateway_id)
    assert len(eui) == 8
    assert gateway_id_from_eui(eui) == gateway_id


@given(token=tokens, eui=euis, forward_list=st.lists(forwards, max_size=4))
def test_push_data_datagram_round_trip(token, eui, forward_list):
    """PUSH_DATA encodes and decodes to the same message."""
    message = PushData(
        token=token,
        gateway_eui=eui,
        rxpks=tuple(rxpk_from_forward(f) for f in forward_list),
    )
    assert decode_datagram(encode_datagram(message)) == message


@given(token=tokens, eui=euis)
def test_ack_and_keepalive_round_trips(token, eui):
    """Every fixed-size datagram type round-trips with its token."""
    for message in (
        PushAck(token=token),
        PullData(token=token, gateway_eui=eui),
        PullAck(token=token),
        TxAck(token=token, gateway_eui=eui),
    ):
        assert decode_datagram(encode_datagram(message)) == message


@given(token=tokens, raw=st.binary(min_size=1, max_size=64), sf=st.integers(7, 12))
def test_pull_resp_round_trip(token, raw, sf):
    """PULL_RESP carries its downlink payload bytes through JSON intact."""
    message = PullResp(token=token, txpk=txpk_for_downlink(raw, sf))
    decoded = decode_datagram(encode_datagram(message))
    assert decoded == message
    assert decoded.payload_bytes() == raw


@given(sf=st.integers(min_value=7, max_value=12))
def test_datr_round_trip(sf):
    """SF encodes to LoRa datr strings and parses back."""
    assert parse_datr(encode_datr(sf)) == sf


@pytest.mark.parametrize("datr", ["SF6BW125", "SF13BW125", "FSK", "", "SF7"])
def test_bad_datr_rejected(datr):
    """Out-of-range or non-LoRa datr strings raise DecodeError."""
    with pytest.raises(DecodeError):
        parse_datr(datr)


def test_datr_parses_are_memoized_and_rejections_are_not():
    """A repeated datr string is parsed once; a bad one raises every time."""
    parse_datr.cache_clear()
    assert [parse_datr("SF9BW125") for _ in range(3)] == [9, 9, 9]
    assert parse_datr.cache_info().misses == 1
    for _ in range(2):
        with pytest.raises(DecodeError):
            parse_datr("SF6BW125")
    assert parse_datr.cache_info().currsize == 1


def _rxpk(**fields) -> dict:
    """A valid rxpk with ``fields`` replaced, as the daemon's ``json.loads`` sees it."""
    forward = GatewayForward(
        gateway_id="gw-0",
        mac_bytes=b"\x40" + bytes(11),
        arrival_time_s=1.25,
        fb_hz=-3.5,
        snr_db=7.0,
    )
    rxpk = dict(rxpk_from_forward(forward), **fields)
    return json.loads(json.dumps({k: v for k, v in rxpk.items() if v is not None}))


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", ["atime", "tmst", "fbhz", "lsnr"])
def test_non_finite_numbers_rejected(key, literal):
    """``json`` accepts NaN and ±Infinity; the rxpk decoder refuses them."""
    # tmst is read only when the atime extension is absent.
    rxpk = _rxpk(**{key: float(literal)}, **({"atime": None} if key == "tmst" else {}))
    assert not math.isfinite(rxpk[key])
    with pytest.raises(DecodeError, match=key):
        forward_from_rxpk("gw-0", rxpk)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["fb_hz", "snr_db", "arrival_time_s"])
def test_non_finite_forward_is_not_encoded(field, value):
    """The encoder refuses what the decoder would count as malformed."""
    forward = GatewayForward(
        gateway_id="gw-0",
        mac_bytes=b"\x40" + bytes(11),
        arrival_time_s=1.25,
        fb_hz=-3.5,
        snr_db=7.0,
    )
    forward = dataclasses.replace(forward, **{field: value})
    message = PushData(
        token=1, gateway_eui=eui_from_gateway_id("gw-0"), rxpks=(rxpk_from_forward(forward),)
    )
    with pytest.raises(ConfigurationError, match="PushData"):
        encode_datagram(message)


def test_overflowing_integer_rejected():
    """An integer beyond float range is malformed, not an OverflowError."""
    with pytest.raises(DecodeError, match="tmst"):
        forward_from_rxpk("gw-0", _rxpk(atime=None, tmst=10**400))


@pytest.mark.parametrize("gateway_id", ["", "nine-chars", "x\x00"])
def test_bad_gateway_ids_rejected(gateway_id):
    """Un-mappable gateway ids are a configuration error."""
    with pytest.raises(ConfigurationError):
        eui_from_gateway_id(gateway_id)


@given(data=st.binary(max_size=64))
@settings(max_examples=300)
def test_arbitrary_bytes_never_crash_the_decoder(data):
    """decode_datagram raises DecodeError or returns a datagram, only."""
    try:
        message = decode_datagram(data)
    except DecodeError:
        return
    assert decode_datagram(encode_datagram(message)) == message


@given(data=st.binary(max_size=64))
@settings(max_examples=200)
def test_daemon_handler_survives_arbitrary_datagrams(data):
    """The daemon counts malformed datagrams instead of crashing."""
    daemon = NetworkServerDaemon(server=NetworkServer(), config=ServiceConfig())
    before = daemon.metrics.get("repro_service_malformed_datagrams_total").total()
    daemon.handle_datagram(data, ("127.0.0.1", 9999))
    counted = daemon.metrics.get("repro_service_malformed_datagrams_total").total()
    seen = daemon.metrics.get("repro_service_datagrams_total").total()
    assert counted >= before
    assert counted + seen >= 1


def test_mangled_rxpk_counts_as_malformed_not_fatal():
    """A PUSH_DATA with a broken rxpk is counted, valid siblings survive."""
    daemon = NetworkServerDaemon(server=NetworkServer(), config=ServiceConfig())
    good = rxpk_from_forward(
        GatewayForward(
            gateway_id="gw-0",
            mac_bytes=b"\x40" + bytes(11),
            arrival_time_s=1.25,
            fb_hz=-3.5,
            snr_db=7.0,
        )
    )
    bad = dict(good, data="!!!not-base64!!!")
    message = PushData(token=1, gateway_eui=eui_from_gateway_id("gw-0"), rxpks=(bad, good))
    daemon.handle_datagram(encode_datagram(message), ("127.0.0.1", 9999))
    assert daemon.metrics.get("repro_service_malformed_datagrams_total").total() == 1
    assert daemon.metrics.get("repro_service_uplinks_total").total() == 1


def test_server_to_gateway_types_are_counted_as_misuse():
    """PUSH_ACK arriving at the daemon is protocol misuse, not a crash."""
    daemon = NetworkServerDaemon(server=NetworkServer(), config=ServiceConfig())
    daemon.handle_datagram(encode_datagram(PushAck(token=7)), ("127.0.0.1", 9999))
    assert daemon.metrics.get("repro_service_malformed_datagrams_total").total() == 1


@given(version=st.integers(min_value=0, max_value=255))
def test_wrong_protocol_version_rejected(version):
    """Only protocol version 2 datagrams decode."""
    raw = bytes([version, 0, 0, PacketType.PUSH_ACK])
    if version == 2:
        assert decode_datagram(raw) == PushAck(token=0)
    else:
        with pytest.raises(DecodeError):
            decode_datagram(raw)
