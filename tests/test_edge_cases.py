"""Edge-case and failure-injection tests across module boundaries."""

import numpy as np
import pytest

from repro.clock.clocks import GpsClock
from repro.core.softlora import SoftLoRaGateway
from repro.errors import DecodeError
from repro.lorawan.device import EndDevice
from repro.lorawan.gateway import CommodityGateway, ReceiveStatus
from repro.lorawan.mac import build_uplink
from repro.lorawan.security import SessionKeys
from repro.clock.oscillator import Oscillator
from repro.clock.clocks import DriftingClock
from repro.phy.chirp import ChirpConfig
from repro.phy.frame import PhyFrame, PhyReceiver, PhyTransmitter
from repro.sdr.iq import IQTrace
from repro.server import FusionPolicy, GatewayForward, NetworkServer, ServerStatus


class TestPhyReceiverEdgeCases:
    def test_wrong_onset_by_half_chirp_fails(self, fast_config):
        frame = PhyFrame(payload=b"alignment matters")
        wave = PhyTransmitter(fast_config).modulate(frame)
        padded = np.concatenate([np.zeros(1000, dtype=complex), wave])
        with pytest.raises(DecodeError):
            PhyReceiver(fast_config).decode(
                padded, onset_index=1000 + fast_config.samples_per_chirp // 2
            )

    def test_max_payload_frame(self, fast_config):
        frame = PhyFrame(payload=bytes(range(250)) + bytes(3), coding_rate=1)
        wave = PhyTransmitter(fast_config).modulate(frame)
        result = PhyReceiver(fast_config).decode(wave, onset_index=0)
        assert len(result.payload) == 253

    def test_single_byte_payload(self, fast_config):
        frame = PhyFrame(payload=b"\xff")
        wave = PhyTransmitter(fast_config).modulate(frame)
        assert PhyReceiver(fast_config).decode(wave, onset_index=0).payload == b"\xff"

    def test_long_preamble_frame(self, fast_config):
        frame = PhyFrame(payload=b"long preamble", n_preamble=16)
        wave = PhyTransmitter(fast_config).modulate(frame)
        result = PhyReceiver(fast_config).decode(wave, onset_index=0, n_preamble=16)
        assert result.payload == frame.payload

    def test_truncated_capture_raises_cleanly(self, fast_config):
        frame = PhyFrame(payload=b"cut off mid-frame")
        wave = PhyTransmitter(fast_config).modulate(frame)
        with pytest.raises(Exception) as excinfo:
            PhyReceiver(fast_config).decode(wave[: len(wave) // 2], onset_index=0)
        # Must be a library error, never an IndexError escape.
        assert not isinstance(excinfo.value, IndexError)


class TestGatewayEdgeCases:
    def _device(self, dev_addr=0x26040001, seed=9):
        rng = np.random.default_rng(seed)
        return EndDevice(
            name=f"d{dev_addr:x}",
            dev_addr=dev_addr,
            keys=SessionKeys.derive_for_test(dev_addr),
            radio_oscillator=Oscillator.lora_end_device(rng),
            clock=DriftingClock(drift_ppm=30.0),
            rng=rng,
        )

    def test_gps_jitter_stays_sub_microsecond(self):
        device = self._device()
        gateway = CommodityGateway(
            clock=GpsClock(jitter_s=50e-9, rng=np.random.default_rng(1))
        )
        gateway.register_device(device.dev_addr, device.keys)
        device.take_reading(1.0, 10.0)
        tx = device.transmit(11.0)
        reception = gateway.receive_frame(tx.mac_bytes, tx.emission_time_s)
        assert abs(reception.arrival_time_s - tx.emission_time_s) < 1e-6

    def test_independent_counters_per_device(self):
        a, b = self._device(0x26040001), self._device(0x26040002, seed=10)
        gateway = CommodityGateway()
        gateway.register_device(a.dev_addr, a.keys)
        gateway.register_device(b.dev_addr, b.keys)
        for device in (a, b):
            device.take_reading(1.0, 0.0)
            tx = device.transmit(1.0)
            assert gateway.receive_frame(tx.mac_bytes, tx.emission_time_s).accepted

    def test_non_sensor_payload_accepted_without_readings(self):
        dev_addr = 0x26040003
        keys = SessionKeys.derive_for_test(dev_addr)
        gateway = CommodityGateway()
        gateway.register_device(dev_addr, keys)
        raw = build_uplink(keys, dev_addr, 1, b"\x05opaque app bytes")
        reception = gateway.receive_frame(raw, 50.0)
        assert reception.status is ReceiveStatus.OK
        assert reception.readings == []

    def test_empty_frm_payload(self):
        dev_addr = 0x26040004
        keys = SessionKeys.derive_for_test(dev_addr)
        gateway = CommodityGateway()
        gateway.register_device(dev_addr, keys)
        raw = build_uplink(keys, dev_addr, 1, b"")
        reception = gateway.receive_frame(raw, 50.0)
        assert reception.status is ReceiveStatus.OK


class TestSoftLoRaEdgeCases:
    def _system(self, fast_config):
        dev_addr = 0x26040010
        keys = SessionKeys.derive_for_test(dev_addr)
        gateway = SoftLoRaGateway(config=fast_config, commodity=CommodityGateway())
        server = NetworkServer(mac=gateway.commodity, fusion=FusionPolicy.BEST_SNR)
        server.register_device(dev_addr, keys)
        return gateway, server, dev_addr, keys

    @staticmethod
    def _judge(server, raw, fb_hz):
        return server.process_step([GatewayForward("gw-0", raw, 10.0, fb_hz, snr_db=10.0)])

    def test_unknown_device_frame_is_mac_rejected(self, fast_config):
        _, server, _, _ = self._system(fast_config)
        stranger_keys = SessionKeys.derive_for_test(0xDEADBEEF)
        raw = build_uplink(stranger_keys, 0xDEADBEEF, 1, b"hello")
        (verdict,) = self._judge(server, raw, -20e3)
        assert verdict.status is ServerStatus.MAC_REJECTED

    def test_garbled_bytes_are_mac_rejected_not_crash(self, fast_config):
        # Bytes that do not even parse as a MAC frame never reach the MAC:
        # the server counts them as malformed and issues no verdict.
        _, server, _, _ = self._system(fast_config)
        assert self._judge(server, bytes(16), -20e3) == []
        assert server.malformed == 1

    def test_capture_too_short_for_estimation(self, fast_config, rng):
        gateway, _, _, _ = self._system(fast_config)
        # Barely longer than the AIC minimum but far too short for a
        # frame: the pipeline must fail cleanly, not crash.
        noise = rng.standard_normal(600) + 1j * rng.standard_normal(600)
        trace = IQTrace(noise, fast_config.sample_rate_hz)
        assert gateway.process_capture(trace, "gw-0", 0.0) is None

    def test_learning_phase_would_accept_first_replay(self, fast_config):
        # Documented limitation (paper Sec. 7.2): run-time profile
        # building assumes an attack-free learning phase.  A replay seen
        # *before* any history exists is accepted and poisons the profile
        # -- which is why offline bootstrapping is preferred.
        _, server, dev_addr, keys = self._system(fast_config)
        raw = build_uplink(keys, dev_addr, 1, b"")
        (verdict,) = self._judge(server, raw, -20e3 - 600.0)
        assert verdict.status is ServerStatus.ACCEPTED


class TestChirpConfigBoundaries:
    def test_sf6_supported_at_phy_level(self):
        config = ChirpConfig(spreading_factor=6, sample_rate_hz=0.5e6)
        assert config.n_symbols == 64
        assert config.chirp_time_s == pytest.approx(64 / 125e3)

    def test_very_high_sample_rate(self):
        config = ChirpConfig(spreading_factor=7, sample_rate_hz=10e6)
        assert config.samples_per_chirp == 10240

    def test_exact_nyquist_rate_allowed(self):
        config = ChirpConfig(spreading_factor=7, sample_rate_hz=125e3)
        assert config.samples_per_chirp == 128
