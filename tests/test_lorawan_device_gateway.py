"""Tests for the end device and commodity gateway (repro.lorawan)."""

import numpy as np
import pytest

from repro.clock.clocks import DriftingClock, PerfectClock
from repro.clock.oscillator import Oscillator
from repro.core.timestamping import ElapsedTimeCodec
from repro.errors import ConfigurationError, DecodeError, DutyCycleError
from repro.lorawan.device import (
    EndDevice,
    decode_sensor_payload,
    encode_sensor_payload,
)
from repro.lorawan.gateway import CommodityGateway, ReceiveStatus
from repro.lorawan.security import SessionKeys

DEV = 0x26014242


def make_device(drift_ppm=40.0, sf=7, seed=3, **kwargs) -> EndDevice:
    rng = np.random.default_rng(seed)
    return EndDevice(
        name="node",
        dev_addr=DEV,
        keys=SessionKeys.derive_for_test(DEV),
        radio_oscillator=Oscillator.lora_end_device(rng),
        clock=DriftingClock(drift_ppm=drift_ppm),
        spreading_factor=sf,
        rng=rng,
        **kwargs,
    )


def make_gateway(device: EndDevice) -> CommodityGateway:
    gateway = CommodityGateway()
    gateway.register_device(device.dev_addr, device.keys)
    return gateway


class TestSensorPayload:
    def test_roundtrip(self):
        codec = ElapsedTimeCodec()
        payload = encode_sensor_payload([100.0, -5.0, 32000.0], [1, 500, 262143], codec)
        values, ticks = decode_sensor_payload(payload, codec)
        assert values == [100.0, -5.0, 32000.0]
        assert ticks == [1, 500, 262143]

    def test_empty_reading_list(self):
        codec = ElapsedTimeCodec()
        payload = encode_sensor_payload([], [], codec)
        assert decode_sensor_payload(payload, codec) == ([], [])

    def test_mismatched_lengths(self):
        with pytest.raises(ConfigurationError):
            encode_sensor_payload([1.0], [], ElapsedTimeCodec())

    def test_value_out_of_int16(self):
        with pytest.raises(ConfigurationError):
            encode_sensor_payload([40000.0], [0], ElapsedTimeCodec())

    def test_truncated_payload_rejected(self):
        codec = ElapsedTimeCodec()
        payload = encode_sensor_payload([1.0, 2.0], [3, 4], codec)
        with pytest.raises(DecodeError):
            decode_sensor_payload(payload[:-1], codec)

    def test_empty_bytes_rejected(self):
        with pytest.raises(DecodeError):
            decode_sensor_payload(b"", ElapsedTimeCodec())

    def test_compactness(self):
        # Two readings: 1 + ceil(36/8) + 4 = 10 bytes, versus 2 readings x
        # (8-byte timestamp + 2-byte value) = 20 bytes sync-based.
        codec = ElapsedTimeCodec()
        payload = encode_sensor_payload([1.0, 2.0], [10, 20], codec)
        assert len(payload) == 10


class TestEndDevice:
    def test_fb_from_oscillator(self):
        device = make_device()
        assert -25e3 <= device.fb_hz <= -17e3

    def test_fb_tracks_temperature(self):
        device = make_device()
        cold = device.fb_hz
        device.temperature_c = 45.0
        assert device.fb_hz != cold

    def test_transmit_packs_buffered_readings(self):
        device = make_device()
        device.take_reading(21.0, 100.0)
        device.take_reading(22.0, 105.0)
        tx = device.transmit(110.0)
        assert tx.values == [21.0, 22.0]
        assert len(tx.elapsed_ticks) == 2
        assert tx.true_event_times_s == [100.0, 105.0]
        assert device.pending_readings == 0

    def test_elapsed_ticks_reflect_local_elapsed(self):
        device = make_device(drift_ppm=0.0)
        device.take_reading(1.0, 100.0)
        tx = device.transmit(160.0)
        assert device.codec.decode(tx.elapsed_ticks[0]) == pytest.approx(60.0, abs=1e-3)

    def test_frame_counter_increments(self):
        device = make_device()
        device.take_reading(1.0, 0.0)
        first = device.transmit(1.0)
        device.take_reading(2.0, 200.0)
        second = device.transmit(201.0)
        assert first.fcnt == 0
        assert second.fcnt == 1
        assert device.fcnt == 2

    def test_emission_follows_request_with_latency(self):
        device = make_device()
        device.take_reading(1.0, 0.0)
        tx = device.transmit(10.0)
        assert tx.emission_time_s > tx.request_time_s
        assert tx.emission_time_s - tx.request_time_s < 10e-3

    def test_duty_cycle_enforced(self):
        device = make_device(sf=12)
        device.take_reading(1.0, 0.0)
        device.transmit(1.0)
        device.take_reading(2.0, 2.0)
        with pytest.raises(DutyCycleError):
            device.transmit(3.0)

    def test_regional_payload_cap_enforced(self):
        device = make_device(sf=12)
        for i in range(30):
            device.take_reading(float(i), float(i))
        with pytest.raises(ConfigurationError):
            device.transmit(100.0)  # 30 readings exceed DR0's 51-byte cap

    def test_modulate_requires_matching_sf(self, fast_config):
        device = make_device(sf=8)
        device.take_reading(1.0, 0.0)
        tx = device.transmit(1.0)
        with pytest.raises(ConfigurationError):
            device.modulate(tx, fast_config)  # fast_config is SF7

    def test_modulated_waveform_length_matches_airtime(self, fast_config):
        device = make_device(sf=7)
        device.take_reading(1.0, 0.0)
        tx = device.transmit(1.0)
        wave = device.modulate(tx, fast_config)
        duration = len(wave) / fast_config.sample_rate_hz
        assert duration == pytest.approx(tx.airtime_s, rel=0.05)


class TestCommodityGateway:
    def test_accepts_valid_frame_and_reconstructs(self):
        device = make_device(drift_ppm=0.0, tx_latency_mean_s=0.0, tx_latency_jitter_s=0.0)
        gateway = make_gateway(device)
        device.take_reading(42.0, 100.0)
        tx = device.transmit(150.0)
        reception = gateway.receive_frame(tx.mac_bytes, tx.emission_time_s)
        assert reception.status is ReceiveStatus.OK
        assert reception.mac_frame.dev_addr == DEV
        assert reception.readings[0].value == 42.0
        assert reception.readings[0].global_time_s == pytest.approx(100.0, abs=2e-3)

    def test_reconstruction_accuracy_with_drift_and_latency(self):
        # End-to-end sync-free accuracy: drift over the buffer window plus
        # ~3 ms radio latency (paper Sec. 3.2 budget).
        device = make_device(drift_ppm=40.0)
        gateway = make_gateway(device)
        device.take_reading(1.0, 1000.0)
        tx = device.transmit(1100.0)
        reception = gateway.receive_frame(tx.mac_bytes, tx.emission_time_s)
        error = abs(reception.readings[0].global_time_s - 1000.0)
        assert error < 10e-3

    def test_latency_compensation_improves_accuracy(self):
        device = make_device(drift_ppm=0.0, tx_latency_jitter_s=0.0)
        plain = make_gateway(device)
        compensated = CommodityGateway(tx_latency_compensation_s=3e-3)
        compensated.register_device(device.dev_addr, device.keys)
        device.take_reading(1.0, 100.0)
        tx = device.transmit(150.0)
        e_plain = abs(
            plain.receive_frame(tx.mac_bytes, tx.emission_time_s).readings[0].global_time_s
            - 100.0
        )
        device.take_reading(1.0, 300.0)
        tx2 = device.transmit(350.0)
        e_comp = abs(
            compensated.receive_frame(tx2.mac_bytes, tx2.emission_time_s)
            .readings[0]
            .global_time_s
            - 300.0
        )
        assert e_comp < e_plain

    def test_unknown_device_rejected(self):
        device = make_device()
        gateway = CommodityGateway()  # no registration
        device.take_reading(1.0, 0.0)
        tx = device.transmit(1.0)
        reception = gateway.receive_frame(tx.mac_bytes, tx.emission_time_s)
        assert reception.status is ReceiveStatus.UNKNOWN_DEVICE

    def test_tampered_frame_mic_failure(self):
        device = make_device()
        gateway = make_gateway(device)
        device.take_reading(1.0, 0.0)
        tx = device.transmit(1.0)
        tampered = bytearray(tx.mac_bytes)
        tampered[-5] ^= 0x01
        reception = gateway.receive_frame(bytes(tampered), tx.emission_time_s)
        assert reception.status is ReceiveStatus.MIC_FAILURE

    def test_repeated_frame_counter_rejected(self):
        device = make_device()
        gateway = make_gateway(device)
        device.take_reading(1.0, 0.0)
        tx = device.transmit(1.0)
        first = gateway.receive_frame(tx.mac_bytes, tx.emission_time_s)
        assert first.status is ReceiveStatus.OK
        replayed_same = gateway.receive_frame(tx.mac_bytes, tx.emission_time_s + 5.0)
        assert replayed_same.status is ReceiveStatus.COUNTER_REJECT

    def test_delayed_frame_passes_counter_check(self):
        # The attack's premise: the original never arrived, so the
        # replayed copy carries a fresh counter and is accepted.
        device = make_device()
        gateway = make_gateway(device)
        device.take_reading(1.0, 0.0)
        tx = device.transmit(1.0)
        # (original suppressed by jamming -- never delivered)
        delayed = gateway.receive_frame(tx.mac_bytes, tx.emission_time_s + 60.0)
        assert delayed.status is ReceiveStatus.OK

    def test_gps_clock_used_for_arrival(self):
        device = make_device()
        gateway = CommodityGateway(clock=PerfectClock())
        gateway.register_device(device.dev_addr, device.keys)
        device.take_reading(1.0, 0.0)
        tx = device.transmit(1.0)
        reception = gateway.receive_frame(tx.mac_bytes, 12345.678)
        assert reception.arrival_time_s == 12345.678
