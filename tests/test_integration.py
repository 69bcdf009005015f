"""Cross-module integration tests: the paper's stories, end to end."""

import numpy as np
import pytest

from repro.attack.delay_attack import FrameDelayAttack
from repro.attack.eavesdropper import Eavesdropper
from repro.attack.jammer import StealthyJammer
from repro.attack.replayer import Replayer
from repro.clock.clocks import DriftingClock
from repro.clock.oscillator import Oscillator
from repro.core.softlora import SoftLoRaGateway
from repro.lorawan.device import EndDevice
from repro.lorawan.gateway import CommodityGateway, ReceiveStatus
from repro.lorawan.security import SessionKeys
from repro.phy.chirp import ChirpConfig
from repro.sdr.iq import IQTrace
from repro.sdr.noise import complex_awgn, noise_power_for_snr
from repro.sdr.receiver import SdrReceiver
from repro.server import FusionPolicy, GatewayForward, NetworkServer, ServerStatus
from repro.sim.rng import RngStreams

DEV = 0x26017777


def build_system(seed=21, sf=7, fs=0.5e6, drift_ppm=40.0):
    streams = RngStreams(seed)
    config = ChirpConfig(spreading_factor=sf, sample_rate_hz=fs)
    device = EndDevice(
        name="node",
        dev_addr=DEV,
        keys=SessionKeys.derive_for_test(DEV),
        radio_oscillator=Oscillator.lora_end_device(streams.stream("osc")),
        clock=DriftingClock(drift_ppm=drift_ppm),
        spreading_factor=sf,
        rng=streams.stream("dev"),
    )
    gateway = SoftLoRaGateway(config=config, commodity=CommodityGateway())
    server = NetworkServer(mac=gateway.commodity, fusion=FusionPolicy.BEST_SNR)
    server.register_device(device.dev_addr, device.keys)
    return config, device, gateway, server, streams


def judge_frame(server, mac_bytes, arrival_time_s, fb_hz):
    """The server's verdict on one frame-level forward from one gateway."""
    (verdict,) = server.process_step(
        [GatewayForward("gw-0", mac_bytes, arrival_time_s, fb_hz, snr_db=10.0)]
    )
    return verdict


def judge_capture(server, gateway, trace, noise_power):
    """Run a capture through the gateway, then its forward through the server."""
    forward = gateway.process_capture(trace, "gw-0", 15.0, noise_power=noise_power)
    (verdict,) = server.process_step([forward])
    return verdict


def noisy_capture(wave, emission_time_s, config, rng, snr_db=15.0, pad=1200, tail=1024):
    # Leading noise before the onset plus a trailing margin so a +/-1
    # sample onset estimate still leaves a full frame to demodulate.
    noise_power = noise_power_for_snr(1.0, snr_db)
    padded = np.concatenate([np.zeros(pad, dtype=complex), wave, np.zeros(tail, dtype=complex)])
    noisy = padded + complex_awgn(len(padded), noise_power, rng)
    start = emission_time_s - pad / config.sample_rate_hz
    return IQTrace(noisy, config.sample_rate_hz, start_time_s=start), noise_power


class TestNormalOperationStory:
    """Sec. 3.2: sync-free timestamping in benign conditions."""

    def test_continuous_monitoring_with_drifting_clock(self):
        config, device, gateway, server, streams = build_system()
        rng = streams.stream("noise")
        worst_error = 0.0
        # Learn the FB profile over the first three frames, then measure.
        for frame_index in range(6):
            base = 1000.0 + frame_index * 200.0
            event_times = [base, base + 30.0, base + 60.0]
            for i, t in enumerate(event_times):
                device.take_reading(100.0 + i, t)
            tx = device.transmit(base + 90.0)
            wave = device.modulate(tx, config)
            trace, noise_power = noisy_capture(wave, tx.emission_time_s, config, rng)
            verdict = judge_capture(server, gateway, trace, noise_power)
            assert verdict.status is ServerStatus.ACCEPTED
            for reading, truth in zip(verdict.readings, event_times):
                worst_error = max(worst_error, abs(reading.global_time_s - truth))
        # The paper's end-to-end budget: drift + latency + quantization,
        # all well under 10 ms.
        assert worst_error < 10e-3

    def test_fb_profile_converges(self):
        config, device, gateway, server, streams = build_system()
        rng = streams.stream("noise")
        for frame_index in range(4):
            device.take_reading(1.0, 100.0 * (frame_index + 1))
            tx = device.transmit(100.0 * (frame_index + 1) + 5.0)
            wave = device.modulate(tx, config)
            trace, noise_power = noisy_capture(wave, tx.emission_time_s, config, rng)
            judge_capture(server, gateway, trace, noise_power)
        node_id = f"{DEV:08x}"
        estimates = server.detector.database.estimates(node_id)
        assert len(estimates) == 4
        # At 0.5 Msps one sample of onset error biases the FB by
        # rate/fs ~ 244 Hz, which dominates the scatter here.
        assert np.std(estimates) < 600.0


class TestAttackStory:
    """Sec. 4 + Sec. 7.2: the frame delay attack and its detection."""

    def test_commodity_gateway_is_fooled_softlora_is_not(self):
        config, device, gateway, server, streams = build_system()
        rng = streams.stream("noise")
        # Warm-up traffic to learn the profile.
        for i in range(3):
            device.take_reading(1.0, 50.0 + 100.0 * i)
            tx = device.transmit(55.0 + 100.0 * i)
            judge_frame(server, tx.mac_bytes, tx.emission_time_s, device.fb_hz)

        # The attacked uplink, full waveform path through the chain.
        device.take_reading(7.7, 1000.0)
        tx = device.transmit(1005.0)
        wave = device.modulate(tx, config)
        attack = FrameDelayAttack(
            jammer=StealthyJammer(),
            replayer=Replayer.single_usrp(streams.stream("replayer")),
            eavesdropper=Eavesdropper(
                receiver=SdrReceiver(sample_rate_hz=config.sample_rate_hz)
            ),
            rng=streams.stream("attack"),
        )
        delay = 300.0
        outcome = attack.execute(tx, delay_s=delay, waveform=wave)
        assert outcome.stealthy

        # Plain commodity gateway: accepts and mis-timestamps by τ.
        naive = CommodityGateway()
        naive.register_device(device.dev_addr, device.keys)
        naive_view = naive.receive_frame(
            outcome.replayed.mac_bytes, outcome.replayed.arrival_time_s
        )
        assert naive_view.status is ReceiveStatus.OK
        spoofed_error = abs(naive_view.readings[0].global_time_s - 1000.0)
        assert spoofed_error == pytest.approx(delay, abs=0.1)

        # SoftLoRa: estimates the FB from the replayed waveform and flags.
        pad = 1200
        noise_power = noise_power_for_snr(1.0, 15.0)
        replay_samples = outcome.replayed_trace.samples
        padded = np.concatenate(
            [np.zeros(pad, dtype=complex), replay_samples, np.zeros(1024, dtype=complex)]
        )
        noisy = padded + complex_awgn(len(padded), noise_power, streams.stream("noise2"))
        capture = IQTrace(
            noisy,
            config.sample_rate_hz,
            start_time_s=outcome.replayed_trace.start_time_s - pad / config.sample_rate_hz,
        )
        softlora_view = judge_capture(server, gateway, capture, noise_power)
        assert softlora_view.status is ServerStatus.REPLAY_DETECTED
        assert softlora_view.readings == []

    def test_detection_across_delays(self):
        # Detection is delay-independent: any τ produces the same FB shift.
        config, device, gateway, server, streams = build_system()
        for i in range(3):
            device.take_reading(1.0, 10.0 + 100.0 * i)
            tx = device.transmit(12.0 + 100.0 * i)
            judge_frame(server, tx.mac_bytes, tx.emission_time_s, device.fb_hz)
        attack = FrameDelayAttack(
            jammer=StealthyJammer(), replayer=Replayer.single_usrp(streams.stream("r"))
        )
        for delay in (0.5, 10.0, 3600.0):
            device.take_reading(1.0, 2000.0 + delay)
            tx = device.transmit(2001.0 + delay)
            outcome = attack.execute(tx, delay_s=delay)
            verdict = judge_frame(
                server,
                outcome.replayed.mac_bytes,
                outcome.replayed.arrival_time_s,
                outcome.replayed.fb_hz,
            )
            assert verdict.status is ServerStatus.REPLAY_DETECTED


class TestTemperatureDriftStory:
    """Sec. 7.2: benign FB drift is tracked, attacks still detected."""

    def test_detector_follows_thermal_drift_and_catches_replay(self):
        config, device, gateway, server, streams = build_system()
        # Frames while the device warms from 25 to 33 degrees in half-
        # degree steps: the AT-cut parabola moves the FB a few hundred Hz
        # per frame at most, inside the guard band (the paper's premise
        # that run-time temperature drift is slow relative to traffic).
        for step in range(16):
            device.temperature_c = 25.0 + 0.5 * step
            device.take_reading(1.0, 100.0 * (step + 1))
            tx = device.transmit(100.0 * (step + 1) + 2.0)
            verdict = judge_frame(server, tx.mac_bytes, tx.emission_time_s, device.fb_hz)
            assert verdict.status is ServerStatus.ACCEPTED
        # Total drift so far is large, yet a replay at the *current*
        # temperature still stands out by the chain offset.
        attack = FrameDelayAttack(
            jammer=StealthyJammer(), replayer=Replayer.single_usrp(streams.stream("r"))
        )
        device.take_reading(1.0, 5000.0)
        tx = device.transmit(5001.0)
        outcome = attack.execute(tx, delay_s=60.0)
        verdict = judge_frame(
            server,
            outcome.replayed.mac_bytes,
            outcome.replayed.arrival_time_s,
            outcome.replayed.fb_hz,
        )
        assert verdict.status is ServerStatus.REPLAY_DETECTED


class TestMultiDeviceStory:
    def test_shared_fb_values_do_not_confuse_detection(self):
        # Two devices with nearly identical FBs (like nodes 3/8/14 in
        # Fig. 13): per-node change detection still works.
        streams = RngStreams(33)
        server = NetworkServer(fusion=FusionPolicy.BEST_SNR)
        devices = []
        for idx in range(2):
            dev_addr = 0x26020000 + idx
            device = EndDevice(
                name=f"twin-{idx}",
                dev_addr=dev_addr,
                keys=SessionKeys.derive_for_test(dev_addr),
                radio_oscillator=Oscillator(bias_ppm=-23.0 + 0.001 * idx),
                clock=DriftingClock(drift_ppm=30.0),
                rng=streams.stream(f"d{idx}"),
            )
            server.register_device(dev_addr, device.keys)
            devices.append(device)
        for device in devices:
            for i in range(3):
                device.take_reading(1.0, 10.0 + 100.0 * i)
                tx = device.transmit(11.0 + 100.0 * i)
                verdict = judge_frame(server, tx.mac_bytes, tx.emission_time_s, device.fb_hz)
                assert verdict.status is ServerStatus.ACCEPTED
        attack = FrameDelayAttack(
            jammer=StealthyJammer(), replayer=Replayer.single_usrp(streams.stream("r"))
        )
        devices[0].take_reading(1.0, 900.0)
        tx = devices[0].transmit(901.0)
        outcome = attack.execute(tx, delay_s=30.0)
        verdict = judge_frame(
            server,
            outcome.replayed.mac_bytes,
            outcome.replayed.arrival_time_s,
            outcome.replayed.fb_hz,
        )
        assert verdict.status is ServerStatus.REPLAY_DETECTED
