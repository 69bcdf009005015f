#!/usr/bin/env python3
"""Multi-gateway operation: N gateways, one network server, one verdict.

Architecture::

    device --++--> gateway gw-0 --+
             ++--> gateway gw-1 --+--> NetworkServer --> dedup --> MAC
             ++--> gateway gw-2 --+        |                        |
             ++--> gateway gw-3 --+        +--> FB fusion --> ReplayDetector
                                                (FbDatabase)

A 16-node fleet reports through four gateways placed around the cell.
Every uplink is heard (and FB-estimated) by each in-range gateway; the
network server deduplicates the copies by (DevAddr, FCnt), verifies the
MAC once, fuses the per-gateway FB estimates by inverse-variance
weighting, and issues a single replay verdict from cross-gateway
evidence.  A frame delay attacker then targets four nodes.

Run:  python examples/multi_gateway.py
"""

import numpy as np

from repro.attack import FrameDelayAttack, Replayer, StealthyJammer
from repro.core.softlora import SoftLoRaGateway
from repro.lorawan.gateway import CommodityGateway
from repro.phy.chirp import ChirpConfig
from repro.radio.channel import LinkBudget
from repro.radio.geometry import Position
from repro.radio.pathloss import LogDistancePathLoss
from repro.server import FusionPolicy, NetworkServer
from repro.sim.network import EventKind, LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.scenarios import build_fleet


def main() -> None:
    streams = RngStreams(42)
    devices = build_fleet(n_devices=16, streams=streams, ring_radius_m=120.0)
    config = ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6)
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(config=config, commodity=CommodityGateway()),
        gateway_position=Position(200.0, 0.0, 15.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=2.8)),
        rng=streams.stream("world"),
    )
    for index in range(1, 4):
        angle = 2 * np.pi * index / 4
        world.add_gateway(
            Position(200.0 * float(np.cos(angle)), 200.0 * float(np.sin(angle)), 15.0)
        )
    for device in devices:
        world.add_device(device)
    server = world.attach_server(NetworkServer(fusion=FusionPolicy.INVERSE_VARIANCE))
    print(f"topology: {len(devices)} devices -> {len(world.sites)} gateways -> "
          f"network server ({server.fusion.value} fusion)")

    # Phase 1: clean traffic -- the server learns fused FB profiles.
    period = 60.0
    for round_index in range(4):
        for device in devices:
            device.take_reading(100.0 + round_index, 5.0 + round_index * period)
        world.uplink_batch(request_time_s=6.0 + round_index * period)

    print(f"\nafter 4 clean rounds: {len(server.verdicts)} fused verdicts, "
          f"dedup rate {server.dedup_rate:.2f} copies/uplink, "
          f"{server.malformed} malformed forwards")
    db = server.detector.database
    print(f"FB database: {db.node_count()} nodes with learned profiles")
    sample = server.verdicts[-1]
    print(f"sample verdict: node {sample.node_id} heard by {sample.n_gateways} gateways, "
          f"fused FB {sample.fused.fb_hz / 1e3:+.2f} kHz "
          f"(sigma {sample.fused.sigma_hz:.1f} Hz, best link {sample.fused.best_gateway_id})")

    # Phase 2: frame delay attack against four nodes.
    attacked = [d.name for d in devices[:4]]
    attack = FrameDelayAttack(
        jammer=StealthyJammer(), replayer=Replayer.single_usrp(streams.stream("replayer"))
    )
    world.arm_attack(attack, attacked, delay_s=90.0)
    print(f"\nattack armed against {attacked} "
          f"(chain FB offset {attack.replayer.chain_fb_offset_hz:+.0f} Hz, tau = 90 s)")

    detected, missed, false_alarms, legit = 0, 0, 0, 0
    for round_index in range(4, 10):
        for device in devices:
            device.take_reading(100.0 + round_index, 5.0 + round_index * period)
        events = world.uplink_batch(request_time_s=6.0 + round_index * period)
        for event in events:
            verdict = event.verdict
            if verdict is None:
                continue
            if event.kind is EventKind.REPLAY_DELIVERED:
                detected += verdict.attack_detected
                missed += not verdict.attack_detected
            else:
                legit += 1
                false_alarms += verdict.attack_detected

    print(f"\nattacked frames : {detected + missed} ({detected} detected, {missed} missed)")
    print(f"false alarms    : {false_alarms} on {legit} legitimate fused verdicts")
    print("\nper-node fused verdicts in the last round:")
    for event in events:
        if event.verdict is not None:
            print(f"  {event.device_name:8s} -> {event.verdict.status.value:16s} "
                  f"({event.verdict.n_gateways} gateways)")


if __name__ == "__main__":
    main()
