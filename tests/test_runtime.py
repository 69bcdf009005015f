"""Tests for the fleet runtime (repro.sim.columnar) and its parts (repro.sim.runtime)."""

import numpy as np
import pytest
from traffic_reference import reference_schedule

from repro.attack.delay_attack import FrameDelayAttack
from repro.attack.jammer import StealthyJammer
from repro.attack.replayer import Replayer
from repro.core.softlora import SoftLoRaGateway
from repro.errors import ConfigurationError
from repro.lorawan.gateway import CommodityGateway
from repro.phy.chirp import ChirpConfig
from repro.radio.channel import InterSfCaptureMatrix, LinkBudget
from repro.radio.geometry import Position
from repro.radio.pathloss import LogDistancePathLoss
from repro.server import NetworkServer
from repro.sim.columnar import ColumnarRuntime
from repro.sim.network import EventKind, LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.runtime import replay_detected
from repro.sim.scenarios import build_fleet
from repro.sim.traffic import PeriodicTrafficModel


def build_world(seed=0, n_devices=4, exponent=2.0):
    streams = RngStreams(seed)
    devices = build_fleet(n_devices=n_devices, streams=streams)
    config = ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6)
    gateway = SoftLoRaGateway(
        config=config,
        commodity=CommodityGateway(),
    )
    world = LoRaWanWorld(
        gateway=gateway,
        gateway_position=Position(0.0, 0.0, 1.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=exponent)),
        rng=streams.stream("world"),
    )
    for device in devices:
        world.add_device(device)
    return world, devices, streams


def make_runtime(world, seed=11, period_s=60.0, jitter_s=5.0, **kwargs):
    traffic = PeriodicTrafficModel(
        period_s=period_s, jitter_s=jitter_s, rng=np.random.default_rng(seed)
    )
    return ColumnarRuntime(world, traffic, **kwargs)


class TestGoldenDegenerate:
    """The no-contention 1-device schedule matches the classic path bit for bit."""

    def _event_signature(self, event):
        return (
            event.kind,
            event.time_s,
            event.device_name,
            event.snr_db,
            None if event.verdict is None else event.verdict.fused_fb_hz,
            None if event.verdict is None else event.verdict.status,
            None if event.transmission is None else event.transmission.fcnt,
        )

    def test_matches_caller_stepped_uplink(self):
        classic_world, classic_devices, _ = build_world(seed=9, n_devices=1)
        runtime_world, _, _ = build_world(seed=9, n_devices=1)
        schedule = reference_schedule(
            PeriodicTrafficModel(60.0, 5.0, rng=np.random.default_rng(11)),
            [classic_devices[0].name],
            600.0,
        )
        for uplink in schedule:
            classic_world.uplink(uplink.device_name, uplink.request_time_s)

        report = make_runtime(runtime_world, seed=11).run(600.0)

        assert report.attempts == len(schedule)
        assert len(runtime_world.events) == len(classic_world.events)
        for classic, runtime in zip(classic_world.events, runtime_world.events):
            assert self._event_signature(classic) == self._event_signature(runtime)
        assert not [e for e in runtime_world.events if e.kind is EventKind.LOST_COLLISION]

    def test_matches_caller_stepped_uplink_batch(self):
        classic_world, classic_devices, _ = build_world(seed=3, n_devices=1)
        runtime_world, _, _ = build_world(seed=3, n_devices=1)
        schedule = reference_schedule(
            PeriodicTrafficModel(120.0, 0.0, rng=np.random.default_rng(5)),
            [classic_devices[0].name],
            600.0,
        )
        for uplink in schedule:
            classic_world.uplink_batch([uplink.device_name], uplink.request_time_s)

        make_runtime(runtime_world, seed=5, period_s=120.0, jitter_s=0.0).run(600.0)

        for classic, runtime in zip(classic_world.events, runtime_world.events):
            assert self._event_signature(classic) == self._event_signature(runtime)


class TestCollisionChannel:
    """Contention inside ``deliver_staged``, given the capture threshold table."""

    TABLE = InterSfCaptureMatrix().threshold_table()

    def test_equal_power_overlap_lost_at_single_gateway(self):
        world, devices, _ = build_world(n_devices=2)
        # The fleet ring is symmetric: both devices sit 5 m from the
        # gateway, so neither clears the 6 dB capture margin.
        devices[1].position = Position(-devices[0].position.x, -devices[0].position.y, 1.0)
        staged = world.stage_uplinks([devices[0].name, devices[1].name], 10.0)
        events = world.deliver_staged(staged, threshold_table=self.TABLE)
        assert [e.kind for e in events] == [EventKind.LOST_COLLISION] * 2

    def test_capture_saves_the_stronger(self):
        world, devices, _ = build_world(n_devices=2)
        devices[0].position = Position(5.0, 0.0, 1.0)
        devices[1].position = Position(500.0, 0.0, 1.0)
        staged = world.stage_uplinks([devices[0].name, devices[1].name], 10.0)
        events = world.deliver_staged(staged, threshold_table=self.TABLE)
        assert events[0].kind is EventKind.DELIVERED
        assert events[0].metadata["gateway_ids"] == ("gw-0",)
        assert events[1].kind is EventKind.LOST_COLLISION

    def test_non_overlapping_frames_unaffected(self):
        world, devices, _ = build_world(n_devices=2)
        staged = world.stage_uplinks([devices[0].name], 10.0)
        staged += world.stage_uplinks([devices[1].name], 20.0)
        events = world.deliver_staged(staged, threshold_table=self.TABLE)
        assert [e.kind for e in events] == [EventKind.DELIVERED] * 2
        assert all(e.metadata["gateway_ids"] == ("gw-0",) for e in events)

    def test_second_gateway_rescues_captured_frame(self):
        world, devices, _ = build_world(n_devices=2)
        near, far = devices[0], devices[1]
        near.position = Position(100.0, 0.0, 1.0)
        far.position = Position(-100.0, 0.0, 1.0)
        # Equidistant from gw-0 at the origin-side placement: collide
        # there.  gw-1 sits next to `near`, which captures its copy.
        world.gateway_position = Position(0.0, 0.0, 1.0)
        world.add_gateway(Position(110.0, 0.0, 1.0))
        world.attach_server(NetworkServer())
        staged = world.stage_uplinks([near.name, far.name], 10.0)
        events = world.deliver_staged(staged, threshold_table=self.TABLE)
        assert events[0].kind is EventKind.DELIVERED
        assert events[0].verdict is not None
        assert events[0].metadata["gateway_ids"] == ("gw-1",)
        assert events[1].kind is EventKind.LOST_COLLISION

    def test_attacked_device_bypasses_collision_mask(self):
        world, devices, streams = build_world(n_devices=2)
        devices[1].position = Position(-devices[0].position.x, -devices[0].position.y, 1.0)
        attack = FrameDelayAttack(
            jammer=StealthyJammer(), replayer=Replayer.single_usrp(streams.stream("r"))
        )
        world.arm_attack(attack, [devices[0].name], delay_s=30.0)
        staged = world.stage_uplinks([devices[0].name, devices[1].name], 10.0)
        events = world.deliver_staged(staged, threshold_table=self.TABLE)
        assert events[0].kind is EventKind.REPLAY_DELIVERED
        assert events[1].kind is EventKind.LOST_COLLISION


class TestColumnarRuntime:
    def test_contention_partitions_attempts(self):
        world, _, _ = build_world(seed=4, n_devices=30)
        report = make_runtime(world, seed=2, period_s=5.0, jitter_s=4.0).run(60.0)
        stats = report.contention
        assert stats.collided > 0
        assert stats.attempts == (
            stats.delivered
            + stats.collided
            + stats.lost_low_snr
            + stats.replays_delivered
        )
        assert 0 < stats.collision_rate < 1
        assert report.goodput_fps == pytest.approx(stats.delivered / 60.0)

    def test_runtime_is_deterministic(self):
        reports = []
        for _ in range(2):
            world, _, _ = build_world(seed=4, n_devices=10)
            reports.append(make_runtime(world, seed=2, period_s=10.0, jitter_s=8.0).run(100.0))
        a, b = reports
        assert [e.time_s for e in a.events] == [e.time_s for e in b.events]
        assert [e.kind for e in a.events] == [e.kind for e in b.events]

    def test_duty_cycle_backoff_defers_not_errors(self):
        world, devices, _ = build_world(seed=1, n_devices=2)
        # Period far below the ETSI off-time: every cycle after the first
        # must defer, never raise DutyCycleError.
        report = make_runtime(world, seed=7, period_s=1.0, jitter_s=0.5).run(30.0)
        assert report.deferrals > 0
        for device in devices:
            emissions = sorted(
                e.transmission.emission_time_s
                for e in report.events
                if e.device_name == device.name and e.transmission is not None
            )
            airtime = report.events[0].transmission.airtime_s
            min_gap = airtime / device.duty_cycle.duty_cycle
            for earlier, later in zip(emissions, emissions[1:]):
                assert later - earlier >= min_gap * 0.99

    def test_phases_extend_one_timeline(self):
        world, devices, streams = build_world(seed=5, n_devices=8)
        for device in devices:
            world.server.bootstrap_fb_profile(
                device.dev_addr,
                [device.fb_hz + float(e) for e in streams.stream("p").normal(0, 15, 5)],
            )
        runtime = make_runtime(world, seed=3, period_s=30.0, jitter_s=10.0)
        clean = runtime.run(60.0)
        assert clean.contention.replays_delivered == 0
        armed_at = world.now_s
        assert armed_at >= 60.0
        attack = FrameDelayAttack(
            jammer=StealthyJammer(),
            replayer=Replayer.single_usrp(streams.stream("r")),
            rng=streams.stream("a"),
        )
        world.arm_attack(attack, [devices[0].name], delay_s=20.0)
        attacked = runtime.run(60.0)
        assert attacked.contention.replays_delivered >= 1
        assert attacked.contention.suppressed == attacked.contention.replays_delivered
        detections = attacked.replay_detection_times_s
        assert detections and min(detections) >= armed_at
        assert all(replay_detected(e) is False for e in clean.events)

    def test_multi_gateway_runtime_emits_verdicts(self):
        world, devices, streams = build_world(seed=6, n_devices=6)
        world.add_gateway(Position(50.0, 50.0, 1.0))
        world.attach_server(NetworkServer())
        report = make_runtime(world, seed=9, period_s=30.0, jitter_s=10.0).run(90.0)
        delivered = [e for e in report.events if e.kind is EventKind.DELIVERED]
        assert delivered
        assert all(e.verdict is not None for e in delivered)

    def test_invalid_parameters_rejected(self):
        world, _, _ = build_world(n_devices=1)
        with pytest.raises(ConfigurationError):
            make_runtime(world, window_s=0.0)
        with pytest.raises(ConfigurationError):
            make_runtime(world).run(0.0)
        with pytest.raises(ConfigurationError):
            make_runtime(world).run(10.0, device_names=["ghost"])
        (name,) = world.devices
        runtime = make_runtime(world)
        with pytest.raises(ConfigurationError, match=rf"repeated devices: \['{name}'\]"):
            runtime.run(600.0, device_names=[name, name])
        # A refused phase schedules nothing; the same name once still runs.
        assert runtime.attempts == 0
        assert runtime.run(600.0, device_names=[name]).attempts == 10

    def test_phase_starts_at_world_clock(self):
        # A caller may advance the world between phases; the next phase
        # must start at the world clock, not where the last one ended.
        world, _, _ = build_world(seed=4, n_devices=6)
        runtime = make_runtime(world)
        first = runtime.run(60.0)
        assert first.start_s == 0.0
        world.now_s = 500.0
        second = runtime.run(60.0)
        assert second.start_s == 500.0
        assert len(second.events) == 6
        assert min(e.time_s for e in second.events) >= 500.0
        # Values the original heap-driven runtime produced on this probe.
        assert second.events[0].time_s == 512.2214111475034
        assert world.now_s == 560.0
