"""Tests for the SoftLoRa gateway pipeline (repro.core.softlora)."""

import numpy as np
import pytest

from repro.attack.delay_attack import FrameDelayAttack
from repro.attack.jammer import StealthyJammer
from repro.attack.replayer import Replayer
from repro.clock.clocks import DriftingClock
from repro.clock.oscillator import Oscillator
from repro.core.softlora import SoftLoRaGateway
from repro.lorawan.device import EndDevice
from repro.lorawan.gateway import CommodityGateway
from repro.lorawan.security import SessionKeys
from repro.sdr.iq import IQTrace
from repro.sdr.noise import complex_awgn, noise_power_for_snr
from repro.server import FusionPolicy, GatewayForward, NetworkServer, ServerStatus

DEV = 0x26015555


@pytest.fixture
def device():
    rng = np.random.default_rng(11)
    return EndDevice(
        name="node",
        dev_addr=DEV,
        keys=SessionKeys.derive_for_test(DEV),
        radio_oscillator=Oscillator.lora_end_device(rng),
        clock=DriftingClock(drift_ppm=40.0),
        spreading_factor=7,
        rng=rng,
    )


@pytest.fixture
def gateway(fast_config, device):
    return SoftLoRaGateway(config=fast_config, commodity=CommodityGateway())


@pytest.fixture
def server(gateway, device):
    """The one-gateway network server on the gateway's commodity chip."""
    server = NetworkServer(mac=gateway.commodity, fusion=FusionPolicy.BEST_SNR)
    server.register_device(device.dev_addr, device.keys)
    server.bootstrap_fb_profile(device.dev_addr, [device.fb_hz + e for e in (-30.0, 0.0, 30.0)])
    return server


def judge(server, mac_bytes, arrival_time_s, fb_hz):
    """The server's verdict on one frame forwarded by one gateway."""
    (verdict,) = server.process_step(
        [GatewayForward("gw-0", mac_bytes, arrival_time_s, fb_hz, snr_db=10.0)]
    )
    return verdict


def judge_capture(server, gateway, trace, noise_power):
    """Run a capture through the gateway, then its forward through the server."""
    forward = gateway.process_capture(trace, "gw-0", 15.0, noise_power=noise_power)
    (verdict,) = server.process_step([forward])
    return forward, verdict


def capture_of(device, tx, config, rng, snr_db=15.0, pad=1500):
    wave = device.modulate(tx, config)
    noise_power = noise_power_for_snr(1.0, snr_db)
    full = np.concatenate([np.zeros(pad, dtype=complex), wave])
    noisy = full + complex_awgn(len(full), noise_power, rng)
    start = tx.emission_time_s - pad / config.sample_rate_hz
    return IQTrace(noisy, config.sample_rate_hz, start_time_s=start), noise_power


class TestFullWaveformPath:
    def test_accepts_legitimate_capture(self, fast_config, device, gateway, server, rng):
        device.take_reading(25.0, 100.0)
        tx = device.transmit(110.0)
        trace, noise_power = capture_of(device, tx, fast_config, rng)
        forward, verdict = judge_capture(server, gateway, trace, noise_power)
        assert forward.mac_bytes == tx.mac_bytes
        assert verdict.status is ServerStatus.ACCEPTED
        assert verdict.readings[0].value == 25.0

    def test_phy_timestamp_microsecond_accurate(self, fast_config, device, gateway, rng):
        device.take_reading(1.0, 10.0)
        tx = device.transmit(20.0)
        trace, noise_power = capture_of(device, tx, fast_config, rng, snr_db=20.0)
        forward = gateway.process_capture(trace, "gw-0", 20.0, noise_power=noise_power)
        assert abs(forward.arrival_time_s - tx.emission_time_s) < 10e-6

    def test_fb_estimate_close_to_device_truth(self, fast_config, device, gateway, rng):
        device.take_reading(1.0, 10.0)
        tx = device.transmit(20.0)
        trace, noise_power = capture_of(device, tx, fast_config, rng, snr_db=20.0)
        forward = gateway.process_capture(trace, "gw-0", 20.0, noise_power=noise_power)
        # Slicing on the sample grid costs up to rate/(2·fs) ~ 120 Hz here.
        assert forward.fb_hz == pytest.approx(device.fb_hz, abs=250.0)

    def test_reconstructed_timestamps_accurate(self, fast_config, device, gateway, server, rng):
        device.take_reading(7.0, 500.0)
        device.take_reading(8.0, 520.0)
        tx = device.transmit(530.0)
        trace, noise_power = capture_of(device, tx, fast_config, rng)
        _, verdict = judge_capture(server, gateway, trace, noise_power)
        times = [r.global_time_s for r in verdict.readings]
        assert times[0] == pytest.approx(500.0, abs=10e-3)
        assert times[1] == pytest.approx(520.0, abs=10e-3)

    def test_replayed_capture_detected(self, fast_config, device, gateway, server, rng):
        device.take_reading(1.0, 10.0)
        tx = device.transmit(20.0)
        wave = device.modulate(tx, fast_config)
        replayer = Replayer.single_usrp(rng)
        trace = IQTrace(wave, fast_config.sample_rate_hz, start_time_s=tx.emission_time_s)
        replayed = replayer.replay(trace, delay_s=45.0)
        pad = 1500
        noise_power = noise_power_for_snr(1.0, 15.0)
        padded = np.concatenate([np.zeros(pad, dtype=complex), replayed.samples])
        noisy = padded + complex_awgn(len(padded), noise_power, rng)
        capture = IQTrace(
            noisy,
            fast_config.sample_rate_hz,
            start_time_s=replayed.start_time_s - pad / fast_config.sample_rate_hz,
        )
        _, verdict = judge_capture(server, gateway, capture, noise_power)
        assert verdict.status is ServerStatus.REPLAY_DETECTED
        assert verdict.readings == []

    def test_garbage_capture_fails_phy_decode(self, fast_config, gateway, rng):
        noise = complex_awgn(20 * fast_config.samples_per_chirp, 1.0, rng)
        trace = IQTrace(noise, fast_config.sample_rate_hz)
        assert gateway.process_capture(trace, "gw-0", 0.0) is None


class TestFrameLevelPath:
    def test_accepts_in_profile_fb(self, device, server):
        device.take_reading(1.0, 0.0)
        tx = device.transmit(1.0)
        verdict = judge(server, tx.mac_bytes, tx.emission_time_s, device.fb_hz)
        assert verdict.status is ServerStatus.ACCEPTED

    def test_flags_offset_fb(self, device, server):
        device.take_reading(1.0, 0.0)
        tx = device.transmit(1.0)
        verdict = judge(server, tx.mac_bytes, tx.emission_time_s + 60.0, device.fb_hz - 600.0)
        assert verdict.status is ServerStatus.REPLAY_DETECTED
        assert verdict.attack_detected

    def test_mac_rejection_propagates(self, device, server):
        device.take_reading(1.0, 0.0)
        tx = device.transmit(1.0)
        tampered = bytearray(tx.mac_bytes)
        tampered[-1] ^= 0xFF
        verdict = judge(server, bytes(tampered), tx.emission_time_s, device.fb_hz)
        assert verdict.status is ServerStatus.MAC_REJECTED

    def test_full_attack_cycle_frame_level(self, device, server, rng):
        attack = FrameDelayAttack(
            jammer=StealthyJammer(), replayer=Replayer.single_usrp(rng)
        )
        device.take_reading(1.0, 0.0)
        tx = device.transmit(1.0)
        outcome = attack.execute(tx, delay_s=120.0)
        verdict = judge(
            server,
            outcome.replayed.mac_bytes,
            outcome.replayed.arrival_time_s,
            outcome.replayed.fb_hz,
        )
        assert verdict.status is ServerStatus.REPLAY_DETECTED

    def test_replay_detection_blocks_timestamp_spoofing(self, device, server, rng):
        # The final defense property: attacked frames contribute no
        # (shifted) timestamps, legitimate frames keep working.
        attack = FrameDelayAttack(
            jammer=StealthyJammer(), replayer=Replayer.single_usrp(rng)
        )
        device.take_reading(1.0, 0.0)
        tx = device.transmit(1.0)
        outcome = attack.execute(tx, delay_s=600.0)
        flagged = judge(
            server,
            outcome.replayed.mac_bytes,
            outcome.replayed.arrival_time_s,
            outcome.replayed.fb_hz,
        )
        assert flagged.readings == []
        device.take_reading(2.0, 700.0)
        tx2 = device.transmit(710.0)
        ok = judge(server, tx2.mac_bytes, tx2.emission_time_s, device.fb_hz)
        assert ok.status is ServerStatus.ACCEPTED
        assert ok.readings[0].global_time_s == pytest.approx(700.0, abs=10e-3)

    def test_receptions_logged(self, device, server):
        device.take_reading(1.0, 0.0)
        tx = device.transmit(1.0)
        verdict = judge(server, tx.mac_bytes, tx.emission_time_s, device.fb_hz)
        assert server.verdicts == [verdict]
        assert verdict.accepted
