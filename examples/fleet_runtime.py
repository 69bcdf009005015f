#!/usr/bin/env python3
"""A 500-device fleet on the event-driven runtime: contention + attack.

Scales the fleet-monitoring story to a load where the ALOHA channel
matters: 500 devices report every minute at SF7, so the channel carries
a substantial offered load and concurrent transmissions collide at the
gateway (capture effect deciding the survivors).  The runtime schedules
every uplink on a time wheel, resolves each event
window's contention, and batches the survivors through the SoftLoRa
gateway.  After a clean phase, a frame delay attacker targets ten
devices; the FB check must still catch the replays.

Prints goodput, the measured collision rate against the pure-ALOHA
prediction, and the replay-detection TPR under attack.

Run:  python examples/fleet_runtime.py
"""

from repro.attack import FrameDelayAttack, Replayer, StealthyJammer
from repro.core.softlora import SoftLoRaGateway
from repro.lorawan.gateway import CommodityGateway
from repro.phy.chirp import ChirpConfig
from repro.radio.channel import LinkBudget
from repro.radio.geometry import Position
from repro.radio.pathloss import LogDistancePathLoss
from repro.sim.columnar import ColumnarRuntime
from repro.sim.network import EventKind, LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.runtime import replay_detected
from repro.sim.scenarios import build_fleet
from repro.sim.traffic import (
    PeriodicTrafficModel,
    offered_load_erlangs,
    pure_aloha_success_probability,
)

N_DEVICES = 500
PERIOD_S = 60.0
JITTER_S = 20.0
PHASE_S = 120.0  # two reporting periods per phase
N_ATTACKED = 10
ATTACK_DELAY_S = 30.0


def main() -> None:
    streams = RngStreams(500)
    devices = build_fleet(n_devices=N_DEVICES, streams=streams, ring_radius_m=400.0)
    config = ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6)
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(config=config, commodity=CommodityGateway()),
        gateway_position=Position(0.0, 0.0, 15.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=2.0)),
        rng=streams.stream("world"),
    )
    profile_rng = streams.stream("profiles")
    for device in devices:
        world.add_device(device)
        world.server.bootstrap_fb_profile(
            device.dev_addr,
            [device.fb_hz + float(e) for e in profile_rng.normal(0.0, 15.0, 5)],
        )

    runtime = ColumnarRuntime(
        world,
        PeriodicTrafficModel(period_s=PERIOD_S, jitter_s=JITTER_S, rng=streams.stream("traffic")),
        window_s=2.0,
    )

    print(f"fleet           : {N_DEVICES} devices, 1 gateway, SF7, "
          f"period {PERIOD_S:.0f} s (jitter {JITTER_S:.0f} s)")

    clean = runtime.run(PHASE_S)
    stats = clean.contention
    frame_airtime_s = clean.events[0].transmission.airtime_s
    load = offered_load_erlangs(N_DEVICES, PERIOD_S, frame_airtime_s)
    print(f"offered load    : G = {load:.2f} Erlang "
          f"(pure-ALOHA bound exp(-2G) = {pure_aloha_success_probability(load):.2f})")
    print(f"clean phase     : {stats.attempts} frames, "
          f"goodput {clean.goodput_fps:.2f} frames/s, "
          f"collision rate {stats.collision_rate:.2f}, "
          f"delivery {stats.delivery_rate:.2f}")

    attacked = [d.name for d in devices[:N_ATTACKED]]
    attack = FrameDelayAttack(
        jammer=StealthyJammer(),
        replayer=Replayer.single_usrp(streams.stream("replayer")),
    )
    world.arm_attack(attack, attacked, delay_s=ATTACK_DELAY_S)
    print(f"\nattack armed against {N_ATTACKED} devices "
          f"(chain FB offset {attack.replayer.chain_fb_offset_hz:+.0f} Hz, "
          f"τ = {ATTACK_DELAY_S:.0f} s)")

    attacked_phase = runtime.run(PHASE_S)
    astats = attacked_phase.contention
    replays = astats.replays_delivered
    hits = sum(
        1
        for e in attacked_phase.events
        if e.kind is EventKind.REPLAY_DELIVERED and replay_detected(e)
    )
    tpr = hits / replays if replays else float("nan")
    print(f"attack phase    : {astats.attempts} frames, "
          f"goodput {attacked_phase.goodput_fps:.2f} frames/s, "
          f"collision rate {astats.collision_rate:.2f}")
    print(f"replay-detection TPR : {tpr:.2f} ({hits}/{replays} replays flagged, "
          f"{astats.suppressed} originals suppressed)")


if __name__ == "__main__":
    main()
