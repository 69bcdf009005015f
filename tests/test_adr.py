"""Closed-loop ADR: MAC commands, controller, downlink path, multi-SF fleets."""

import hashlib

import numpy as np
import pytest

from repro.core.softlora import SoftLoRaGateway
from repro.errors import ConfigurationError, DecodeError, FrameSizeError, MicError
from repro.lorawan.downlink import RX1_DELAY_S, build_downlink
from repro.lorawan.gateway import CommodityGateway
from repro.lorawan.mac import (
    LinkADRAns,
    LinkADRReq,
    parse_mac_commands,
    parse_mac_frame,
)
from repro.lorawan.regional import EU868
from repro.phy.airtime import airtime_s
from repro.phy.chirp import ChirpConfig
from repro.radio.channel import (
    InterSfCaptureMatrix,
    LinkBudget,
    Transmission,
    resolve_collisions,
)
from repro.radio.geometry import Position
from repro.radio.pathloss import LogDistancePathLoss
from repro.server import AdrController, NetworkServer
from repro.sim.columnar import ColumnarRuntime
from repro.sim.network import EventKind, FbMeasurementModel, LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.scenarios import build_fleet
from repro.sim.traffic import PeriodicTrafficModel


def build_world(seed=0, n_devices=4, exponent=2.0, ring_radius_m=5.0, spreading_factor=7):
    streams = RngStreams(seed)
    devices = build_fleet(
        n_devices=n_devices,
        streams=streams,
        ring_radius_m=ring_radius_m,
        spreading_factor=spreading_factor,
    )
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(
            config=ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6),
            commodity=CommodityGateway(),
        ),
        gateway_position=Position(0.0, 0.0, 1.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=exponent)),
        rng=streams.stream("world"),
    )
    for device in devices:
        world.add_device(device)
    return world, devices, streams


class TestLinkAdrCommands:
    def test_req_round_trip(self):
        req = LinkADRReq(data_rate_index=5, tx_power_index=2, ch_mask=0x00FF, nb_trans=3)
        wire = req.encode()
        assert len(wire) == 5 and wire[0] == 0x03
        (parsed,) = parse_mac_commands(wire, uplink=False)
        assert parsed == req

    def test_ans_round_trip(self):
        for accepted in (True, False):
            ans = LinkADRAns(data_rate_ok=accepted)
            (parsed,) = parse_mac_commands(ans.encode(), uplink=True)
            assert parsed == ans
            assert parsed.accepted is accepted

    def test_command_stream_parses_in_order(self):
        stream = LinkADRAns().encode() + LinkADRAns(power_ok=False).encode()
        first, second = parse_mac_commands(stream, uplink=True)
        assert first.accepted and not second.accepted

    def test_wire_nbtrans_zero_means_keep_current(self):
        # LoRaWAN 1.0.2: Redundancy NbTrans=0 is "keep the current
        # value"; it must parse (as the 1-transmission default), not
        # explode through the dataclass validator.
        (parsed,) = parse_mac_commands(bytes([0x03, 0x50, 0xFF, 0xFF, 0x00]), uplink=False)
        assert parsed.nb_trans == 1

    def test_truncated_and_unknown_cids_rejected(self):
        with pytest.raises(DecodeError):
            parse_mac_commands(b"\x03\x50\xff", uplink=False)  # truncated req
        with pytest.raises(DecodeError):
            parse_mac_commands(b"\x07\x00", uplink=True)  # unknown CID
        with pytest.raises(ConfigurationError):
            LinkADRReq(data_rate_index=16)


class TestAdrController:
    def test_wide_margin_commands_sf7_in_one_step(self):
        adr = AdrController(min_history=2)
        assert adr.observe(1, snr_db=30.0, spreading_factor=12, time_s=0.0) is None
        command = adr.observe(1, snr_db=30.0, spreading_factor=12, time_s=10.0)
        assert command is not None
        assert EU868.DATA_RATES[command.request.data_rate_index].spreading_factor == 7

    def test_negative_margin_steps_sf_up_once(self):
        adr = AdrController(min_history=1)
        command = adr.observe(1, snr_db=-9.0, spreading_factor=7, time_s=0.0)
        assert command is not None
        assert EU868.DATA_RATES[command.request.data_rate_index].spreading_factor == 8

    def test_single_command_in_flight(self):
        adr = AdrController(min_history=1)
        assert adr.observe(1, snr_db=30.0, spreading_factor=12, time_s=0.0) is not None
        # Still transmitting at SF12: the command is in flight, no re-issue.
        assert adr.observe(1, snr_db=30.0, spreading_factor=12, time_s=10.0) is None
        # A drop re-arms the loop for a retry.
        adr.command_dropped(1)
        assert adr.observe(1, snr_db=30.0, spreading_factor=12, time_s=20.0) is not None

    def test_observed_sf_change_clears_inflight_and_converges(self):
        adr = AdrController(min_history=1)
        adr.observe(1, snr_db=5.0, spreading_factor=8, time_s=0.0)
        assert not adr.converged(1)
        adr.observe(1, snr_db=5.0, spreading_factor=7, time_s=10.0)
        assert adr.last_sf(1) == 7
        assert adr.converged(1)
        assert adr.commands_issued(1) == 1

    def test_dropped_power_only_command_is_reissued(self):
        adr = AdrController(min_history=1, adjust_tx_power=True)
        first = adr.observe(1, snr_db=30.0, spreading_factor=7, time_s=0.0)
        assert first is not None and first.request.tx_power_index > 0
        # A same-SF uplink must NOT confirm a power-only command (the SF
        # was already the commanded one) ...
        assert adr.observe(1, snr_db=30.0, spreading_factor=7, time_s=10.0) is None
        # ... so a drop rolls the power back and the retune is retried.
        adr.command_dropped(1)
        retry = adr.observe(1, snr_db=30.0, spreading_factor=7, time_s=20.0)
        assert retry is not None
        assert retry.request.tx_power_index == first.request.tx_power_index

    def test_margin_optimal_sf_emits_nothing(self):
        adr = AdrController(min_history=1)
        # SF7 floor is -7.5 dB; 5 dB SNR gives margin within one step.
        assert adr.observe(1, snr_db=5.0, spreading_factor=7, time_s=0.0) is None
        assert adr.take_pending() == []


class TestDeviceSide:
    def test_apply_link_adr_retunes_and_answers(self):
        _, devices, _ = build_world(n_devices=1, spreading_factor=12)
        device = devices[0]
        ans = device.apply_link_adr(LinkADRReq(data_rate_index=5), at_time_s=42.0)
        assert ans.accepted
        assert device.spreading_factor == 7
        assert device.sf_changes == [(42.0, 7)]
        tx = device.transmit(50.0)
        frame = parse_mac_frame(tx.mac_bytes)
        (answer,) = parse_mac_commands(frame.fopts, uplink=True)
        assert answer.accepted
        assert device.pending_fopts == b""  # consumed by the uplink

    def test_fopts_overflow_drops_whole_commands(self):
        # 7 answers fill 14 of the 15 FOpts bytes; the 8th is dropped
        # whole, so the queued stream always parses cleanly.
        _, devices, _ = build_world(n_devices=1, spreading_factor=12)
        device = devices[0]
        for _ in range(8):
            device.apply_link_adr(LinkADRReq(data_rate_index=5))
        assert len(device.pending_fopts) == 14
        answers = parse_mac_commands(device.pending_fopts, uplink=True)
        assert len(answers) == 7

    def test_unknown_data_rate_answered_negatively(self):
        _, devices, _ = build_world(n_devices=1, spreading_factor=12)
        device = devices[0]
        ans = device.apply_link_adr(LinkADRReq(data_rate_index=9))
        assert not ans.accepted and not ans.data_rate_ok
        assert device.spreading_factor == 12

    def test_receive_downlink_applies_port0_commands(self):
        _, devices, _ = build_world(n_devices=1, spreading_factor=12)
        device = devices[0]
        raw = build_downlink(
            device.keys, device.dev_addr, 0, payload=LinkADRReq(5).encode(), fport=0
        )
        device.receive_downlink(raw, at_time_s=7.0)
        assert device.spreading_factor == 7

    def test_corrupt_downlink_leaves_device_untouched(self):
        _, devices, _ = build_world(n_devices=1, spreading_factor=12)
        device = devices[0]
        raw = build_downlink(
            device.keys, device.dev_addr, 0, payload=LinkADRReq(5).encode(), fport=0
        )
        with pytest.raises(MicError):
            device.receive_downlink(raw[:-1] + bytes([raw[-1] ^ 0xFF]))
        assert device.spreading_factor == 12


class TestFrameBuildValidation:
    def test_sf12_oversized_buffer_raises_before_mutation(self):
        _, devices, _ = build_world(n_devices=1, spreading_factor=12)
        device = devices[0]
        for i in range(20):  # 20 readings -> 86-byte FRMPayload > DR0's 51
            device.take_reading(float(i), float(i))
        fcnt_before, pending_before = device.fcnt, device.pending_readings
        with pytest.raises(FrameSizeError):
            device.transmit(100.0)
        assert device.fcnt == fcnt_before
        assert device.pending_readings == pending_before

    def test_same_payload_fine_after_retune_to_sf7(self):
        _, devices, _ = build_world(n_devices=1, spreading_factor=12)
        device = devices[0]
        for i in range(20):
            device.take_reading(float(i), float(i))
        device.apply_link_adr(LinkADRReq(data_rate_index=5))
        tx = device.transmit(100.0)
        assert tx.spreading_factor == 7
        assert len(tx.values) == 20


class TestInterSfCapture:
    def _tx(self, sf, power, name="a", start=0.0, airtime=1.0):
        return Transmission(
            sender=name,
            start_time_s=start,
            airtime_s=airtime,
            rx_power_dbm=power,
            spreading_factor=sf,
        )

    def test_cross_sf_orthogonal_without_matrix(self):
        outcomes = resolve_collisions([self._tx(7, -100.0), self._tx(12, -60.0, "b")])
        assert all(o.delivered for o in outcomes)

    def test_strong_cross_sf_rival_destroys_weak_frame(self):
        matrix = InterSfCaptureMatrix()
        weak = self._tx(7, -110.0)
        strong = self._tx(12, -60.0, "b")
        outcomes = resolve_collisions([weak, strong], capture_matrix=matrix)
        assert not outcomes[0].delivered
        assert outcomes[0].reason == "lost to inter-SF interference"
        assert outcomes[1].delivered  # SF12 holds -25 dB margin easily

    def test_quasi_orthogonality_headroom(self):
        # SF7 tolerates an SF12 rival up to 9 dB stronger (threshold -9).
        matrix = InterSfCaptureMatrix()
        outcomes = resolve_collisions(
            [self._tx(7, -100.0), self._tx(12, -92.0, "b")], capture_matrix=matrix
        )
        assert all(o.delivered for o in outcomes)

    def test_co_sf_matches_legacy_rule(self):
        matrix = InterSfCaptureMatrix()
        frames = [self._tx(7, -80.0), self._tx(7, -88.0, "b"), self._tx(7, -95.0, "c")]
        legacy = [o.delivered for o in resolve_collisions(frames)]
        with_matrix = [o.delivered for o in resolve_collisions(frames, capture_matrix=matrix)]
        assert legacy == with_matrix == [True, False, False]

    def test_out_of_range_sf_rejected(self):
        with pytest.raises(ConfigurationError):
            InterSfCaptureMatrix().threshold_db(6, 7)


class TestSfAwareFbSigma:
    def test_higher_sf_estimates_are_tighter(self):
        model = FbMeasurementModel()
        assert model.sigma_hz(-10.0, 12) < model.sigma_hz(-10.0, 7)
        assert model.sigma_hz(-10.0, 7) == model.sigma_hz(-10.0)

    def test_floor_still_clamps(self):
        model = FbMeasurementModel()
        assert model.sigma_hz(40.0, 12) == model.floor_hz

    def test_sf7_batch_is_bit_identical_to_untagged(self):
        model = FbMeasurementModel()
        fbs = np.linspace(-25e3, -17e3, 16)
        snrs = np.linspace(-20.0, 30.0, 16)
        a = model.measure_batch(fbs, snrs, np.random.default_rng(3))
        b = model.measure_batch(fbs, snrs, np.random.default_rng(3), np.full(16, 7))
        assert np.array_equal(a, b)


def make_adr_world(n_devices, seed=21, spreading_factor=12, ring_radius_m=50.0):
    world, devices, streams = build_world(
        seed=seed,
        n_devices=n_devices,
        ring_radius_m=ring_radius_m,
        spreading_factor=spreading_factor,
    )
    # Off-center gateway: ring devices land at distinct distances, so
    # co-SF overlaps capture-resolve instead of mutually annihilating.
    world.gateway_position = Position(ring_radius_m * 0.6, 0.0, 1.0)
    server = world.attach_server(NetworkServer(adr=AdrController(min_history=2)))
    return world, devices, streams, server


class TestRuntimeDownlinkPath:
    def test_rx1_window_scheduled_off_real_uplink_airtime(self):
        world, devices, streams, server = make_adr_world(1)
        device = devices[0]
        runtime = ColumnarRuntime(
            world,
            PeriodicTrafficModel(period_s=60.0, jitter_s=5.0, rng=streams.stream("t")),
            window_s=0.5,
        )
        report = runtime.run(300.0)
        assert report.adr_commands_sent == 1
        assert report.adr_commands_applied == 1
        assert device.spreading_factor == 7
        # The command rode the second uplink; its RX1 window opens exactly
        # one second after that frame's true end of airtime, and the
        # device acts once the 18-byte port-0 downlink (at the uplink's
        # data rate) has fully arrived.
        ((applied_at, _),) = device.sf_changes
        anchor = [e for e in report.events if e.kind is EventKind.DELIVERED][1]
        downlink_airtime = airtime_s(18, anchor.transmission.spreading_factor)
        assert applied_at == pytest.approx(
            anchor.transmission.end_time_s + RX1_DELAY_S + downlink_airtime, abs=1e-9
        )
        # The answer made it back to the controller on the next uplink.
        assert server.adr.converged(device.dev_addr)

    def test_duty_cycle_limited_downlinks_drop_and_device_keeps_sf(self):
        # Eight SF12 devices report within one flush window: their RX
        # windows pile onto one gateway's downlink chain, whose ETSI
        # off-time (10x a ~1 s SF12 downlink) admits only a couple.
        world, devices, streams, server = make_adr_world(8, seed=5)
        runtime = ColumnarRuntime(
            world,
            PeriodicTrafficModel(period_s=60.0, jitter_s=10.0, rng=streams.stream("t")),
            window_s=60.0,
        )
        first = runtime.run(180.0)
        assert first.adr_commands_dropped > 0
        kept = [d for d in devices if d.spreading_factor == 12]
        assert kept, "every device retuned despite the duty-cycle budget"
        # The controller re-arms dropped commands: later rounds finish the job.
        for _ in range(6):
            runtime.run(120.0)
        assert all(d.spreading_factor == 7 for d in devices)

    def test_adr_loop_reaches_steady_state_and_goes_quiet(self):
        world, devices, streams, _ = make_adr_world(4, seed=9)
        runtime = ColumnarRuntime(
            world,
            PeriodicTrafficModel(period_s=50.0, jitter_s=10.0, rng=streams.stream("t")),
            window_s=5.0,
        )
        for _ in range(4):
            runtime.run(150.0)
        assert all(d.spreading_factor == 7 for d in devices)
        quiet = runtime.run(150.0)
        assert quiet.adr_commands_sent == 0
        assert quiet.adr_commands_dropped == 0

    def test_mixed_sf_fleet_delivers_at_every_sf(self):
        world, devices, streams, _ = make_adr_world(6, seed=13)
        for device, sf in zip(devices, (7, 8, 9, 10, 11, 12)):
            device.spreading_factor = sf
        runtime = ColumnarRuntime(
            world,
            PeriodicTrafficModel(period_s=120.0, jitter_s=30.0, rng=streams.stream("t")),
            window_s=5.0,
        )
        report = runtime.run(120.0)
        delivered_sfs = {
            e.transmission.spreading_factor
            for e in report.events
            if e.kind is EventKind.DELIVERED
        }
        assert delivered_sfs == {7, 8, 9, 10, 11, 12}
        for event in report.events:
            if event.verdict is not None and event.verdict.fused is not None:
                assert event.verdict.fused.sigma_hz > 0


class TestGoldenPr3BitIdentity:
    """ADR-disabled single-SF runtime output pinned to the pre-ADR tree.

    The hashes were recorded on the PR 3 code base immediately before the
    ADR/multi-SF change set; matching them proves the refactor left the
    classic paths bit-identical.  The single-gateway hash reads events in
    verdict form, re-recorded while a lone gateway still judged frames
    itself; its network server must issue the same verdicts.
    """

    def _signature(self, events):
        h = hashlib.sha256()
        for e in events:
            verdict = (
                None if e.verdict is None else (e.verdict.status.value, e.verdict.fused_fb_hz)
            )
            h.update(
                repr(
                    (
                        e.kind.value,
                        e.time_s,
                        e.device_name,
                        e.snr_db,
                        None,  # the retired gateway-side FB slot
                        None if e.transmission is None else e.transmission.fcnt,
                        verdict,
                    )
                ).encode()
            )
        return h.hexdigest()

    def test_single_gateway_contention_run_pinned(self):
        world, _, _ = build_world(seed=4, n_devices=30, ring_radius_m=400.0)
        traffic = PeriodicTrafficModel(
            period_s=60.0, jitter_s=20.0, rng=np.random.default_rng(2)
        )
        report = ColumnarRuntime(world, traffic, window_s=2.0).run(300.0)
        assert len(report.events) == 150
        assert self._signature(report.events) == (
            "ae2fa3ffc2b2187cc17959ae7979ead8af4ad42c8724fe1149c434095232cefd"
        )

    def test_fused_multi_gateway_run_pinned(self):
        world, _, _ = build_world(seed=6, n_devices=12, ring_radius_m=200.0)
        world.add_gateway(Position(150.0, 150.0, 1.0))
        world.attach_server(NetworkServer())
        traffic = PeriodicTrafficModel(
            period_s=30.0, jitter_s=10.0, rng=np.random.default_rng(9)
        )
        report = ColumnarRuntime(world, traffic, window_s=2.0).run(120.0)
        assert len(report.events) == 48
        assert self._signature(report.events) == (
            "286afedd64e7198c1d5186e82da4dc270542cc81c2de666be58249b308efac25"
        )


#: SHA-256 over the cells' reprs, one per line with ``wall_s`` zeroed, of
#: a 1-2 gateway x 30-device ADR sweep from SF12 and mixed starts.
GOLDEN_ADR_SWEEP = "ea8d3110825993af26190603ac3d422a1810cb8f8a366f4315982e05bddedb3d"


class TestAdrConvergenceExperiment:
    def test_small_sweep_pinned(self):
        import dataclasses

        from repro.experiments.adr_convergence import run_adr_convergence

        result = run_adr_convergence(
            gateway_counts=(1, 2), fleet_sizes=(30,), sf_mixes=("sf12", "mixed"), max_adr_rounds=4
        )
        lines = [repr(dataclasses.replace(cell, wall_s=0.0)) for cell in result.cells]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_ADR_SWEEP

    @pytest.mark.slow
    def test_sf12_cell_converges_and_matches_sf7_detection(self):
        from repro.experiments.adr_convergence import run_adr_convergence

        result = run_adr_convergence(
            fleet_sizes=(100,), sf_mixes=("sf12", "sf7"), max_adr_rounds=8
        )
        retuned = result.cell(2, 100, "sf12")
        reference = result.cell(2, 100, "sf7")
        # The fleet converges: the median device reaches its margin-optimal SF.
        assert retuned.median_final_sf == reference.median_final_sf == 7
        assert retuned.converged_fraction > 0.5
        assert retuned.commands_sent >= 100
        # The loop pays off and detection quality survives the retune.
        assert retuned.goodput_gain > 1.0
        assert retuned.tpr_after == pytest.approx(reference.tpr_after, abs=0.1)
        assert retuned.fpr_after <= 0.01
