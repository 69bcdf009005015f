"""Tests for the network-server layer: dedup, fusion, verdicts."""

import numpy as np
import pytest

from repro.core.detector import FbDatabase, ReplayDetector
from repro.errors import ConfigurationError
from repro.lorawan.mac import build_uplink
from repro.lorawan.security import SessionKeys
from repro.server import (
    FusionPolicy,
    GatewayForward,
    NetworkServer,
    ServerStatus,
    UplinkDeduplicator,
    best_snr_contribution,
    fuse_fb,
    fuse_timestamp_s,
)
from repro.sim.network import FbMeasurementModel

DEV_ADDR = 0x26011BDA
KEYS = SessionKeys.derive_for_test(DEV_ADDR)


def frame(fcnt: int, payload: bytes = b"\x01\x02") -> bytes:
    return build_uplink(KEYS, DEV_ADDR, fcnt, payload)


def forward(
    gateway_id: str,
    fcnt: int = 0,
    arrival: float = 100.0,
    fb: float = -20e3,
    snr: float = 10.0,
    mac_bytes: bytes | None = None,
) -> GatewayForward:
    return GatewayForward(
        gateway_id=gateway_id,
        mac_bytes=frame(fcnt) if mac_bytes is None else mac_bytes,
        arrival_time_s=arrival,
        fb_hz=fb,
        snr_db=snr,
    )


class TestDeduplicator:
    def test_copies_of_one_uplink_group(self):
        dedup = UplinkDeduplicator()
        raw = frame(7)
        for gw in ("gw-0", "gw-1", "gw-2"):
            dedup.offer(forward(gw, fcnt=7, mac_bytes=raw))
        uplinks = dedup.resolve()
        assert len(uplinks) == 1
        assert uplinks[0].key == (DEV_ADDR, 7)
        assert uplinks[0].n_gateways == 3

    def test_distinct_fcnts_stay_distinct(self):
        dedup = UplinkDeduplicator()
        dedup.offer(forward("gw-0", fcnt=1))
        dedup.offer(forward("gw-0", fcnt=2, arrival=100.1))
        assert len(dedup.resolve()) == 2

    def test_same_gateway_duplicate_dropped(self):
        dedup = UplinkDeduplicator()
        dedup.offer(forward("gw-0", fcnt=3, arrival=100.0))
        dedup.offer(forward("gw-0", fcnt=3, arrival=100.2))
        (uplink,) = dedup.resolve()
        assert uplink.n_gateways == 1
        assert uplink.duplicates_dropped == 1
        assert uplink.first_arrival_s == 100.0

    def test_window_separates_counter_reuse(self):
        dedup = UplinkDeduplicator(window_s=2.0)
        dedup.offer(forward("gw-0", fcnt=5, arrival=100.0))
        dedup.offer(forward("gw-1", fcnt=5, arrival=5000.0))  # wrap, much later
        uplinks = dedup.resolve()
        assert len(uplinks) == 2
        assert [u.first_arrival_s for u in uplinks] == [100.0, 5000.0]

    def test_resolve_clears_state(self):
        dedup = UplinkDeduplicator()
        dedup.offer(forward("gw-0"))
        assert dedup.pending == 1
        dedup.resolve()
        assert dedup.pending == 0
        assert dedup.resolve() == []

    def test_unparseable_forward_counted(self):
        dedup = UplinkDeduplicator()
        assert dedup.offer(forward("gw-0", mac_bytes=b"\xff\x00\x01")) is None
        assert dedup.malformed == 1

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigurationError):
            UplinkDeduplicator(window_s=0.0)


class TestForwardConstructors:
    def test_forward_validation(self):
        with pytest.raises(ConfigurationError):
            GatewayForward(gateway_id="", mac_bytes=b"x", arrival_time_s=0, fb_hz=0, snr_db=0)
        with pytest.raises(ConfigurationError):
            GatewayForward(gateway_id="gw", mac_bytes=b"", arrival_time_s=0, fb_hz=0, snr_db=0)


class TestFusion:
    def setup_method(self):
        self.model = FbMeasurementModel()

    def test_best_snr_picks_strongest_link(self):
        contribs = [
            forward("gw-0", fb=-20100.0, snr=5.0),
            forward("gw-1", fb=-19900.0, snr=15.0),
        ]
        fused = fuse_fb(contribs, FusionPolicy.BEST_SNR, self.model)
        assert fused.fb_hz == -19900.0
        assert fused.best_gateway_id == "gw-1"
        assert fused.sigma_hz == self.model.sigma_hz(15.0)

    def test_best_snr_tie_breaks_by_gateway_id(self):
        contribs = [forward("gw-1", fb=1.0, snr=10.0), forward("gw-0", fb=2.0, snr=10.0)]
        assert best_snr_contribution(contribs).gateway_id == "gw-1"

    def test_inverse_variance_is_weighted_mean(self):
        contribs = [
            forward("gw-0", fb=-20000.0, snr=-20.0),
            forward("gw-1", fb=-19000.0, snr=-20.0),
        ]
        fused = fuse_fb(contribs, FusionPolicy.INVERSE_VARIANCE, self.model)
        assert fused.fb_hz == pytest.approx(-19500.0)
        # Equal sigmas: fused sigma shrinks by sqrt(2).
        assert fused.sigma_hz == pytest.approx(self.model.sigma_hz(-20.0) / np.sqrt(2))

    def test_inverse_variance_leans_toward_strong_link(self):
        contribs = [
            forward("gw-0", fb=-20000.0, snr=-25.0),
            forward("gw-1", fb=-19000.0, snr=30.0),
        ]
        fused = fuse_fb(contribs, FusionPolicy.INVERSE_VARIANCE, self.model)
        assert abs(fused.fb_hz - -19000.0) < 50.0

    def test_timestamp_is_earliest(self):
        contribs = [forward("gw-0", arrival=100.003), forward("gw-1", arrival=100.001)]
        assert fuse_timestamp_s(contribs) == 100.001

    def test_zero_contributions_rejected(self):
        with pytest.raises(ConfigurationError):
            fuse_fb([], FusionPolicy.BEST_SNR, self.model)
        with pytest.raises(ConfigurationError):
            fuse_timestamp_s([])


class TestNetworkServer:
    def make_server(self, **kwargs) -> NetworkServer:
        server = NetworkServer(**kwargs)
        server.register_device(DEV_ADDR, KEYS)
        return server

    def test_one_verdict_per_uplink(self):
        server = self.make_server()
        raw = frame(0)
        forwards = [
            forward(f"gw-{i}", fcnt=0, mac_bytes=raw, arrival=100.0 + i * 1e-4, snr=10.0 + i)
            for i in range(4)
        ]
        verdicts = server.process_step(forwards)
        assert len(verdicts) == 1
        verdict = verdicts[0]
        assert verdict.status is ServerStatus.ACCEPTED
        assert verdict.n_gateways == 4
        assert verdict.timestamp_s == 100.0
        assert verdict.fused.best_gateway_id == "gw-3"
        assert server.dedup_rate == 4.0

    def test_dedup_rate_running_count_equals_full_recount(self):
        server = self.make_server()
        assert server.dedup_rate == 0.0
        for step, n_gateways in enumerate((1, 3, 2, 4, 1, 2)):
            raw = frame(step)
            arrival = 100.0 + 10.0 * step
            forwards = [
                forward(f"gw-{i}", fcnt=step, mac_bytes=raw, arrival=arrival)
                for i in range(n_gateways)
            ]
            # A same-gateway repeat inside the window counts as a dropped copy.
            forwards.append(forward("gw-0", fcnt=step, mac_bytes=raw, arrival=arrival + 0.1))
            server.process_step(forwards)
            copies = sum(v.n_gateways + v.duplicates_dropped for v in server.verdicts)
            assert server.dedup_rate == copies / len(server.verdicts)
        assert server.dedup_rate == (13 + 6) / 6
        rebuilt = NetworkServer(verdicts=list(server.verdicts))
        assert rebuilt.dedup_rate == server.dedup_rate

    def test_mac_checked_once_per_uplink(self):
        server = self.make_server()
        calls = []
        receive_frame = server.mac.receive_frame

        def counting_receive_frame(mac_bytes, arrival_s):
            calls.append((mac_bytes, arrival_s))
            return receive_frame(mac_bytes, arrival_s)

        server.mac.receive_frame = counting_receive_frame
        raw = frame(0)
        server.process_step(
            [forward(f"gw-{i}", fcnt=0, mac_bytes=raw, arrival=100.0) for i in range(4)]
        )
        assert calls == [(raw, 100.0)]

    def test_unknown_device_rejected(self):
        server = NetworkServer()  # no keys provisioned
        (verdict,) = server.process_step([forward("gw-0")])
        assert verdict.status is ServerStatus.MAC_REJECTED

    def test_replay_fcnt_reuse_rejected_by_counter(self):
        server = self.make_server()
        raw = frame(0)
        server.process_step([forward("gw-0", fcnt=0, mac_bytes=raw, arrival=100.0)])
        (verdict,) = server.process_step(
            [forward("gw-0", fcnt=0, mac_bytes=raw, arrival=500.0)]
        )
        assert verdict.status is ServerStatus.MAC_REJECTED

    def test_fb_jump_flagged_with_cross_gateway_evidence(self):
        server = self.make_server()
        server.bootstrap_fb_profile(DEV_ADDR, [-20e3, -20.01e3, -19.99e3])
        (verdict,) = server.process_step(
            [forward(f"gw-{i}", fcnt=0, fb=-20.7e3, snr=20.0) for i in range(3)]
        )
        assert verdict.status is ServerStatus.REPLAY_DETECTED
        assert verdict.detection.is_replay
        assert verdict.n_gateways == 3

    def test_flagged_fb_never_trains_database(self):
        server = self.make_server()
        server.bootstrap_fb_profile(DEV_ADDR, [-20e3, -20.01e3, -19.99e3])
        before = server.detector.database.sample_count(f"{DEV_ADDR:08x}")
        server.process_step([forward("gw-0", fcnt=0, fb=-20.7e3)])
        assert server.detector.database.sample_count(f"{DEV_ADDR:08x}") == before

    def test_device_state_reads_the_store_once(self):
        class CountingStore:
            """Records every store method the server calls."""

            def __init__(self):
                self.inner = FbDatabase()
                self.calls = []

            def __getattr__(self, name):
                method = getattr(self.inner, name)

                def counted(*args, **kwargs):
                    self.calls.append(name)
                    return method(*args, **kwargs)

                return counted

        store = CountingStore()
        server = self.make_server(detector=ReplayDetector(database=store))
        store.calls.clear()
        empty = server.device_state(DEV_ADDR)
        assert store.calls == ["interval"]
        assert empty["fb_profile"]["sample_count"] == 0
        assert empty["fb_profile"]["interval"] is None

        server.bootstrap_fb_profile(DEV_ADDR, [-20e3, -20.01e3, -19.99e3])
        store.calls.clear()
        state = server.device_state(DEV_ADDR)
        assert store.calls == ["interval"]
        assert state["fb_profile"]["sample_count"] == 3
        assert state["fb_profile"]["interval"]["low_hz"] == -20.01e3 - server.detector.guard_hz

    def test_process_step_requires_clean_state(self):
        server = self.make_server()
        server.ingest(forward("gw-0"))
        with pytest.raises(ConfigurationError):
            server.process_step([forward("gw-1")])

    def test_forward_capture_feeds_server(self):
        """Waveform path: a keyless gateway forwards; the server judges."""
        import numpy as np

        from repro.clock.clocks import DriftingClock
        from repro.clock.oscillator import Oscillator
        from repro.core.softlora import SoftLoRaGateway
        from repro.lorawan.device import EndDevice
        from repro.lorawan.gateway import CommodityGateway
        from repro.phy.chirp import ChirpConfig
        from repro.sdr.iq import IQTrace
        from repro.sdr.noise import complex_awgn, noise_power_for_snr

        rng = np.random.default_rng(7)
        config = ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6)
        device = EndDevice(
            name="node",
            dev_addr=DEV_ADDR,
            keys=KEYS,
            radio_oscillator=Oscillator.lora_end_device(np.random.default_rng(1)),
            clock=DriftingClock(drift_ppm=20.0),
            rng=rng,
        )
        gateway = SoftLoRaGateway(config=config, commodity=CommodityGateway())
        tx = device.transmit(100.0)
        waveform = device.modulate(tx, config)
        snr_db = 20.0
        noise_power = noise_power_for_snr(1.0, snr_db)
        padded = np.concatenate(
            [np.zeros(1200, dtype=complex), waveform, np.zeros(1024, dtype=complex)]
        )
        trace = IQTrace(
            padded + complex_awgn(len(padded), noise_power, rng),
            config.sample_rate_hz,
            start_time_s=tx.emission_time_s - 1200 / config.sample_rate_hz,
        )
        fwd = gateway.process_capture(
            trace, gateway_id="gw-0", snr_db=snr_db, noise_power=noise_power
        )
        assert fwd is not None
        assert fwd.gateway_id == "gw-0"
        assert fwd.snr_db == snr_db
        assert fwd.mac_bytes == tx.mac_bytes
        assert fwd.fb_hz == pytest.approx(device.fb_hz, abs=300.0)

        server = self.make_server()
        (verdict,) = server.process_step([fwd])
        assert verdict.status is ServerStatus.ACCEPTED
        assert verdict.fused.fb_hz == fwd.fb_hz

    def test_readings_reconstructed_from_fused_timestamp(self):
        # A sensor payload reconstructs readings against the earliest arrival.
        from repro.core.timestamping import ElapsedTimeCodec
        from repro.lorawan.device import encode_sensor_payload

        codec = ElapsedTimeCodec()
        payload = encode_sensor_payload([21.0], [codec.encode(5.0)], codec)
        raw = build_uplink(KEYS, DEV_ADDR, 0, payload)
        server = self.make_server()
        (verdict,) = server.process_step(
            [
                forward("gw-0", mac_bytes=raw, arrival=105.002),
                forward("gw-1", mac_bytes=raw, arrival=105.000),
            ]
        )
        assert verdict.status is ServerStatus.ACCEPTED
        assert len(verdict.readings) == 1
        assert verdict.readings[0].global_time_s == pytest.approx(100.0, abs=1e-6)
