"""Tests for the world simulator's full-DSP uplink path."""

import pytest

from repro.attack.delay_attack import FrameDelayAttack
from repro.attack.jammer import StealthyJammer
from repro.attack.replayer import Replayer
from repro.core.softlora import SoftLoRaGateway
from repro.errors import ConfigurationError
from repro.lorawan.gateway import CommodityGateway
from repro.phy.chirp import ChirpConfig
from repro.radio.channel import LinkBudget
from repro.radio.geometry import Position
from repro.radio.pathloss import LogDistancePathLoss
from repro.server import ServerStatus
from repro.sim.network import EventKind, LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.scenarios import build_fleet


@pytest.fixture
def world():
    streams = RngStreams(44)
    devices = build_fleet(n_devices=2, streams=streams)
    config = ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6)
    commodity = CommodityGateway()
    gateway = SoftLoRaGateway(
        config=config,
        commodity=commodity,
    )
    w = LoRaWanWorld(
        gateway=gateway,
        gateway_position=Position(0.0, 0.0, 1.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=2.0)),
        rng=streams.stream("world"),
    )
    for device in devices:
        w.add_device(device)
    return w


class TestWaveformUplink:
    def test_full_dsp_delivery(self, world):
        device = world.devices["node-0"]
        device.take_reading(7.0, 100.0)
        event = world.uplink_with_capture("node-0", 105.0)
        assert event.kind is EventKind.DELIVERED
        assert event.verdict.status is ServerStatus.ACCEPTED
        # The primary gateway's SDR chain forwarded its own measurements.
        assert event.verdict.gateway_ids == ("gw-0",)
        assert event.time_s == event.verdict.timestamp_s

    def test_phy_timestamp_accuracy(self, world):
        device = world.devices["node-0"]
        device.take_reading(7.0, 100.0)
        event = world.uplink_with_capture("node-0", 105.0)
        tx = event.transmission
        # Arrival = emission + propagation; both are sub-µs here.
        assert abs(event.verdict.timestamp_s - tx.emission_time_s) < 20e-6

    def test_fb_estimate_matches_device(self, world):
        device = world.devices["node-1"]
        device.take_reading(7.0, 100.0)
        event = world.uplink_with_capture("node-1", 105.0)
        # Within the sample-grid slicing bias at 0.5 Msps.
        assert event.verdict.fused_fb_hz == pytest.approx(device.fb_hz, abs=300.0)

    def test_reconstructed_reading_accuracy(self, world):
        device = world.devices["node-0"]
        device.take_reading(42.0, 200.0)
        event = world.uplink_with_capture("node-0", 260.0)
        reading = event.verdict.readings[0]
        assert reading.value == 42.0
        assert reading.global_time_s == pytest.approx(200.0, abs=10e-3)

    def test_low_snr_device_lost(self, world):
        device = world.devices["node-0"]
        device.position = Position(1000e3, 0.0, 1.0)
        device.take_reading(1.0, 10.0)
        event = world.uplink_with_capture("node-0", 11.0)
        assert event.kind is EventKind.LOST_LOW_SNR

    def test_frame_and_waveform_paths_agree(self, world):
        # Same device, consecutive uplinks through both paths: both must
        # accept and produce consistent FB pictures.
        device = world.devices["node-0"]
        device.take_reading(1.0, 10.0)
        fast = world.uplink("node-0", 12.0)
        device.take_reading(2.0, 300.0)
        full = world.uplink_with_capture("node-0", 302.0)
        assert fast.verdict.status is ServerStatus.ACCEPTED
        assert full.verdict.status is ServerStatus.ACCEPTED
        assert fast.verdict.fused_fb_hz == pytest.approx(full.verdict.fused_fb_hz, abs=400.0)

    def test_armed_attack_target_is_refused(self, world):
        # The waveform path has no jammer or replayer model: an attacked
        # device must not come back delivered and accepted untouched.
        attack = FrameDelayAttack(
            jammer=StealthyJammer(), replayer=Replayer.single_usrp(RngStreams(5).stream("r"))
        )
        world.arm_attack(attack, ["node-0"], delay_s=60.0)
        for name in ("node-0", "node-1"):
            world.devices[name].take_reading(7.0, 100.0)
        with pytest.raises(ConfigurationError, match="'node-0'"):
            world.uplink_with_capture("node-0", 105.0)
        assert world.events == []
        bystander = world.uplink_with_capture("node-1", 105.0)
        assert bystander.verdict.status is ServerStatus.ACCEPTED
        world.disarm_attack()
        event = world.uplink_with_capture("node-0", 105.0)
        assert event.verdict.status is ServerStatus.ACCEPTED
        assert event.transmission.fcnt == 0
