#!/usr/bin/env python3
"""A 16-node fleet under attack: run-time FB learning and detection.

Simulates a monitoring deployment like the paper's Fig. 13 fleet: 16
devices report every minute; the network server behind the SoftLoRa
gateway learns each node's frequency-bias profile from clean traffic, then a frame delay attacker
starts targeting four of the nodes.  Prints the learned FB database and
the per-node detection outcome.

Run:  python examples/fleet_monitoring.py
"""

from repro.attack import FrameDelayAttack, Replayer, StealthyJammer
from repro.core.softlora import SoftLoRaGateway
from repro.lorawan.gateway import CommodityGateway
from repro.phy.chirp import ChirpConfig
from repro.radio.channel import LinkBudget
from repro.radio.geometry import Position
from repro.radio.pathloss import LogDistancePathLoss
from repro.sim.network import EventKind, LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.scenarios import build_fleet


def main() -> None:
    streams = RngStreams(16)
    devices = build_fleet(n_devices=16, streams=streams)
    config = ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6)
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(config=config, commodity=CommodityGateway()),
        gateway_position=Position(0.0, 0.0, 1.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=2.0)),
        rng=streams.stream("world"),
    )
    for device in devices:
        world.add_device(device)

    # Phase 1: four rounds of clean traffic -- the server learns profiles.
    period = 60.0
    for round_index in range(4):
        for device in devices:
            device.take_reading(100.0 + round_index, 5.0 + round_index * period)
            world.uplink(device.name, 6.0 + round_index * period)

    print("learned FB profiles after 4 clean rounds:")
    db = world.server.detector.database
    for node_id in db.known_nodes():
        estimates = db.estimates(node_id)
        print(f"  {node_id}: mean {sum(estimates) / len(estimates) / 1e3:+.2f} kHz "
              f"over {len(estimates)} frames")

    # Phase 2: the attacker targets four nodes.
    attacked = [d.name for d in devices[:4]]
    attack = FrameDelayAttack(
        jammer=StealthyJammer(), replayer=Replayer.single_usrp(streams.stream("replayer"))
    )
    world.arm_attack(attack, attacked, delay_s=90.0)
    print(f"\nattack armed against {attacked} "
          f"(chain FB offset {attack.replayer.chain_fb_offset_hz:+.0f} Hz, τ = 90 s)\n")

    detected, missed, false_alarms = 0, 0, 0
    for round_index in range(4, 10):
        for device in devices:
            device.take_reading(100.0 + round_index, 5.0 + round_index * period)
            event = world.uplink(device.name, 6.0 + round_index * period)
            if event.verdict is None:
                continue
            flagged = event.verdict.attack_detected
            if event.kind is EventKind.REPLAY_DELIVERED:
                detected += flagged
                missed += not flagged
            else:
                false_alarms += flagged

    total_attacks = detected + missed
    print(f"attacked frames : {total_attacks} ({detected} detected, {missed} missed)")
    print(f"false alarms    : {false_alarms} on "
          f"{sum(1 for e in world.events if e.kind is EventKind.DELIVERED)} legitimate frames")
    print("\nper-node verdicts in the last round:")
    for event in world.events[-16:]:
        if event.verdict is not None:
            print(f"  {event.device_name:8s} -> {event.verdict.status.value}")


if __name__ == "__main__":
    main()
