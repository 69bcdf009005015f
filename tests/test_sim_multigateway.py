"""Tests for multi-gateway routing in LoRaWanWorld + the fused verdicts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.server import FusionPolicy, NetworkServer, ServerStatus
from repro.sim.columnar import ColumnarRuntime
from repro.sim.network import EventKind, LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.scenarios import build_fleet
from repro.sim.traffic import PeriodicTrafficModel


def build_multi_world(seed=0, n_devices=6, n_gateways=4, exponent=2.0, ring_m=60.0):
    streams = RngStreams(seed)
    devices = build_fleet(n_devices=n_devices, streams=streams, ring_radius_m=20.0)
    config = ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6)
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(config=config, commodity=CommodityGateway()),
        gateway_position=Position(ring_m, 0.0, 10.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=exponent)),
        rng=streams.stream("world"),
    )
    positions = [
        Position(0.0, ring_m, 10.0),
        Position(-ring_m, 0.0, 10.0),
        Position(0.0, -ring_m, 10.0),
        Position(ring_m, ring_m, 10.0),
        Position(-ring_m, -ring_m, 10.0),
        Position(2 * ring_m, 0.0, 10.0),
        Position(0.0, 2 * ring_m, 10.0),
    ]
    for index in range(n_gateways - 1):
        world.add_gateway(positions[index])
    for device in devices:
        world.add_device(device)
    return world, devices, streams


class TestTopology:
    def test_sites_include_primary_first(self):
        world, _, _ = build_multi_world(n_gateways=3)
        assert [site.gateway_id for site in world.sites] == ["gw-0", "gw-1", "gw-2"]

    def test_duplicate_gateway_id_rejected(self):
        world, _, _ = build_multi_world(n_gateways=2)
        with pytest.raises(ConfigurationError):
            world.add_gateway(Position(1.0, 1.0, 1.0), gateway_id="gw-0")

    def test_extra_gateways_route_through_the_default_server(self):
        world, devices, _ = build_multi_world(n_gateways=2)
        events = world.uplink_batch()
        assert [e.verdict.n_gateways for e in events] == [2] * len(devices)
        # The single-uplink entry routes the same way, not to the
        # primary gateway alone.
        event = world.uplink(devices[0].name, 300.0)
        assert sorted(event.verdict.gateway_ids) == ["gw-0", "gw-1"]
        assert world.server.verdicts[-1] is event.verdict

    def test_attach_server_provisions_existing_devices(self):
        world, devices, _ = build_multi_world(n_gateways=2)
        server = world.attach_server()
        assert sorted(server.mac.known_devices()) == sorted(
            d.dev_addr for d in devices
        )


class TestFusedUplinks:
    def test_each_uplink_heard_by_all_gateways(self):
        world, devices, _ = build_multi_world(n_gateways=4)
        server = world.attach_server()
        events = world.uplink_batch(request_time_s=10.0)
        assert len(events) == len(devices)
        assert len(server.verdicts) == len(devices)
        for event in events:
            assert event.kind is EventKind.DELIVERED
            assert event.verdict is not None
            assert event.verdict.n_gateways == 4
        assert server.dedup_rate == 4.0

    def test_exactly_one_verdict_per_transmission(self):
        world, devices, _ = build_multi_world(n_gateways=4)
        server = world.attach_server()
        for round_index in range(3):
            world.uplink_batch(request_time_s=10.0 + 60.0 * round_index)
        keys = [(v.dev_addr, v.fcnt) for v in server.verdicts]
        assert len(keys) == 3 * len(devices)
        assert len(set(keys)) == len(keys)

    def test_single_uplink_routes_through_server(self):
        world, devices, _ = build_multi_world(n_gateways=2)
        world.attach_server()
        event = world.uplink(devices[0].name, 5.0)
        assert event.kind is EventKind.DELIVERED
        assert event.verdict.status is ServerStatus.ACCEPTED
        assert event.verdict.n_gateways == 2

    def test_empty_batch_is_noop(self):
        world, _, _ = build_multi_world(n_gateways=2)
        world.attach_server()
        assert world.uplink_batch([]) == []
        assert world.events == []

    def test_out_of_range_device_lost_at_all_gateways(self):
        world, devices, _ = build_multi_world(n_gateways=3)
        world.attach_server()
        devices[0].position = Position(5000e3, 0.0, 1.0)
        events = world.uplink_batch(request_time_s=10.0)
        lost = next(e for e in events if e.device_name == devices[0].name)
        assert lost.kind is EventKind.LOST_LOW_SNR
        assert lost.verdict is None
        assert "all 3 gateways" in lost.detail

    def test_partial_coverage_counts_only_in_range_gateways(self):
        # A steep exponent shrinks each gateway's range: the device near
        # gw-0 is out of range of the far gateway at 2*ring.
        world, devices, _ = build_multi_world(
            seed=3, n_devices=1, n_gateways=7, exponent=4.5, ring_m=400.0
        )
        world.attach_server()
        devices[0].position = Position(380.0, 0.0, 1.0)  # next to gw-0
        events = world.uplink_batch(request_time_s=10.0)
        verdict = events[0].verdict
        assert verdict is not None
        assert 1 <= verdict.n_gateways < 7

    def test_fcnt_advances_across_rounds(self):
        world, devices, _ = build_multi_world(n_gateways=2, n_devices=2)
        server = world.attach_server()
        for round_index in range(3):
            world.uplink_batch(request_time_s=10.0 + 60.0 * round_index)
        fcnts = sorted(
            v.fcnt for v in server.verdicts if v.dev_addr == devices[0].dev_addr
        )
        assert fcnts == [0, 1, 2]


class TestFusedAttackDetection:
    def test_replay_flagged_once_with_evidence_from_all_gateways(self):
        world, devices, streams = build_multi_world(n_gateways=4)
        server = world.attach_server(
            NetworkServer(fusion=FusionPolicy.INVERSE_VARIANCE)
        )
        target = devices[0].name
        for round_index in range(4):  # learn profiles
            world.uplink_batch(request_time_s=10.0 + 60.0 * round_index)
        attack = FrameDelayAttack(
            jammer=StealthyJammer(), replayer=Replayer.single_usrp(streams.stream("r"))
        )
        world.arm_attack(attack, [target], delay_s=90.0)
        events = world.uplink_batch(request_time_s=10.0 + 60.0 * 4)

        replay = next(e for e in events if e.device_name == target)
        assert replay.kind is EventKind.REPLAY_DELIVERED
        assert replay.verdict.status is ServerStatus.REPLAY_DETECTED
        assert replay.verdict.n_gateways == 4
        replay_verdicts = server.verdicts_of(ServerStatus.REPLAY_DETECTED)
        assert len(replay_verdicts) == 1  # one verdict, not one per gateway

        # Jam suppression is still visible on the air interface.
        suppressed = [
            e for e in world.events if e.kind is EventKind.SUPPRESSED_BY_JAMMING
        ]
        assert len(suppressed) == 1

        clean = [e for e in events if e.device_name != target]
        assert all(e.verdict.status is ServerStatus.ACCEPTED for e in clean)

    def test_single_gateway_server_matches_topology_of_paper(self):
        # One gateway + server: same defense outcome as the classic world,
        # through the fused path.
        world, devices, streams = build_multi_world(n_gateways=1)
        world.attach_server()
        target = devices[0].name
        for round_index in range(4):
            world.uplink_batch(request_time_s=10.0 + 60.0 * round_index)
        attack = FrameDelayAttack(
            jammer=StealthyJammer(), replayer=Replayer.single_usrp(streams.stream("r"))
        )
        world.arm_attack(attack, [target], delay_s=90.0)
        events = world.uplink_batch(request_time_s=10.0 + 60.0 * 4)
        replay = next(e for e in events if e.device_name == target)
        assert replay.verdict.status is ServerStatus.REPLAY_DETECTED
        assert replay.verdict.n_gateways == 1


class TestFusedAccuracy:
    def test_fused_fb_error_beats_best_single_gateway_on_fleet_workload(self):
        """Acceptance: 4 gateways, fig13-style fleet, fused MAE <= best-GW MAE."""
        import numpy as np

        world, devices, _ = build_multi_world(seed=13, n_devices=16, n_gateways=4)
        server = world.attach_server(
            NetworkServer(fusion=FusionPolicy.INVERSE_VARIANCE)
        )
        true_fb = {f"{d.dev_addr:08x}": d.fb_hz for d in devices}
        for round_index in range(20):  # fig13 captures 20 frames per node
            world.uplink_batch(request_time_s=10.0 + 60.0 * round_index)

        fused_errors, best_errors = [], []
        for verdict in server.verdicts:
            assert verdict.status is ServerStatus.ACCEPTED
            truth = true_fb[verdict.node_id]
            fused_errors.append(abs(verdict.fused.fb_hz - truth))
            best_row = int(np.argmax(verdict.gateway_snrs_db))
            best_errors.append(abs(verdict.gateway_fbs_hz[best_row] - truth))
        assert len(fused_errors) == 16 * 20
        assert float(np.mean(fused_errors)) <= float(np.mean(best_errors))


def _deaf_gateway_run(seed, targets, deaf):
    """Clean then attacked events-mode phases; ``deaf`` adds an unreachable gateway."""
    streams = RngStreams(seed)
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(
            config=ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6),
            commodity=CommodityGateway(),
        ),
        gateway_position=Position(0.0, 0.0, 15.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=2.0)),
        rng=streams.stream("world"),
    )
    if deaf:
        world.add_gateway(Position(1e7, 0.0, 15.0))  # below every SF floor
    for device in build_fleet(n_devices=8, streams=streams, ring_radius_m=300.0):
        world.add_device(device)
    traffic = PeriodicTrafficModel(period_s=30.0, jitter_s=10.0, rng=streams.stream("traffic"))
    runtime = ColumnarRuntime(world, traffic, window_s=2.0, mode="events")
    events = runtime.run(90.0).events
    world.arm_attack(
        FrameDelayAttack(
            jammer=StealthyJammer(),
            replayer=Replayer.single_usrp(streams.stream("replayer")),
            rng=streams.stream("attack"),
        ),
        [f"node-{i}" for i in targets],
        delay_s=20.0,
    )
    events += runtime.run(120.0).events
    return [
        (
            e.kind.value,
            e.time_s,
            e.device_name,
            e.snr_db,
            None if e.transmission is None else e.transmission.fcnt,
            None
            if e.verdict is None
            else (
                e.verdict.status.value,
                e.verdict.fused_fb_hz,
                e.verdict.gateway_fbs_hz,
                e.verdict.timestamp_s,
                e.verdict.gateway_ids,
            ),
        )
        for e in events
    ]


class TestDeafGateway:
    """A gateway no device can reach changes no event and no verdict."""

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        targets=st.sets(st.integers(0, 7), min_size=1, max_size=8),
    )
    def test_unreachable_gateway_changes_nothing(self, seed, targets):
        alone = _deaf_gateway_run(seed, sorted(targets), deaf=False)
        assert _deaf_gateway_run(seed, sorted(targets), deaf=True) == alone
        kinds = {row[0] for row in alone}
        assert {"delivered", "replay_delivered"} <= kinds
