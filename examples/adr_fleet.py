#!/usr/bin/env python3
"""Closed-loop ADR over a multi-SF fleet: watch SF12 converge to SF7.

A 120-device fleet cold-starts at SF12 (the LoRaWAN factory default for
maximum range) under two gateways.  The network server's
:class:`~repro.server.AdrController` tracks each device's SNR margin
across deduplicated uplinks and pushes ``LinkADRReq`` MAC commands
through the gateways' class-A downlink chain; each device applies the
commanded data rate mid-run and answers ``LinkADRAns`` on its next
uplink's FOpts.  As spreading factors drop, airtime shrinks ~32x and
the collision rate collapses -- after convergence, a frame-delay
attacker is unleashed to confirm the FB defense still catches every
replay on the retuned fleet.

Prints the per-round SF histogram, the LinkADRReq budget (sent /
duty-cycle-dropped), the goodput before vs after convergence, and the
replay-detection TPR on the converged multi-SF fleet.

Run:  python examples/adr_fleet.py
"""

from collections import Counter

from repro.attack import FrameDelayAttack, Replayer, StealthyJammer
from repro.core.softlora import SoftLoRaGateway
from repro.lorawan.gateway import CommodityGateway
from repro.phy.chirp import ChirpConfig
from repro.radio.channel import LinkBudget
from repro.radio.geometry import Position
from repro.radio.pathloss import LogDistancePathLoss
from repro.server import AdrController, NetworkServer
from repro.sim.columnar import ColumnarRuntime
from repro.sim.network import EventKind, LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.runtime import replay_detected
from repro.sim.scenarios import build_fleet
from repro.sim.traffic import PeriodicTrafficModel

N_DEVICES = 120
N_GATEWAYS = 2
PERIOD_S = 300.0
JITTER_S = 45.0
ADR_ROUNDS = 8
N_ATTACKED = 6
ATTACK_DELAY_S = 60.0


def sf_histogram(devices) -> str:
    """Compact ``SFx:n`` histogram of the fleet's current data rates."""
    counts = Counter(d.spreading_factor for d in devices)
    return " ".join(f"SF{sf}:{n}" for sf, n in sorted(counts.items()))


def main() -> None:
    streams = RngStreams(868)
    devices = build_fleet(n_devices=N_DEVICES, streams=streams, ring_radius_m=300.0)
    for device in devices:
        device.spreading_factor = 12  # factory default: maximum range
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(
            config=ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6),
            commodity=CommodityGateway(),
        ),
        gateway_position=Position(250.0, 0.0, 15.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=2.8)),
        rng=streams.stream("world"),
    )
    world.add_gateway(Position(-250.0, 0.0, 15.0))
    for device in devices:
        world.add_device(device)
    server = world.attach_server(NetworkServer(adr=AdrController()))

    runtime = ColumnarRuntime(
        world,
        PeriodicTrafficModel(period_s=PERIOD_S, jitter_s=JITTER_S, rng=streams.stream("traffic")),
        window_s=10.0,
    )

    print(f"fleet            : {N_DEVICES} devices, {N_GATEWAYS} gateways, all SF12, "
          f"period {PERIOD_S:.0f} s")
    print(f"round  0         : {sf_histogram(devices)}")

    baseline = runtime.run(2 * PERIOD_S)
    print(f"SF12 baseline    : goodput {baseline.goodput_fps:.3f} frames/s, "
          f"collision rate {baseline.contention.collision_rate:.2f}")

    sent = dropped = 0
    for round_index in range(1, ADR_ROUNDS + 1):
        report = runtime.run(PERIOD_S)
        sent += report.adr_commands_sent
        dropped += report.adr_commands_dropped
        print(f"round {round_index:2d}         : {sf_histogram(devices)}  "
              f"(+{report.adr_commands_sent} LinkADRReq, "
              f"{report.adr_commands_dropped} dropped)")
        if sent and not report.adr_commands_sent and not report.adr_commands_dropped:
            break

    converged = runtime.run(2 * PERIOD_S)
    print(f"\nLinkADRReq total : {sent} delivered into RX windows, {dropped} lost to "
          f"the gateways' duty cycle")
    print(f"converged fleet  : goodput {converged.goodput_fps:.3f} frames/s "
          f"({converged.goodput_fps / max(baseline.goodput_fps, 1e-9):.1f}x the SF12 "
          f"baseline), collision rate {converged.contention.collision_rate:.2f}")

    attack = FrameDelayAttack(
        jammer=StealthyJammer(),
        replayer=Replayer.single_usrp(streams.stream("replayer")),
    )
    heard = {v.node_id for v in server.verdicts}
    targets = [d.name for d in devices if f"{d.dev_addr:08x}" in heard][:N_ATTACKED]
    world.arm_attack(attack, targets, delay_s=ATTACK_DELAY_S)
    attacked = runtime.run(2 * PERIOD_S)
    replays = attacked.contention.replays_delivered
    hits = sum(
        1 for e in attacked.events
        if e.kind is EventKind.REPLAY_DELIVERED and replay_detected(e)
    )
    print(f"\nattack on converged fleet: {len(targets)} devices targeted, "
          f"TPR {hits / replays if replays else float('nan'):.2f} "
          f"({hits}/{replays} replays flagged)")


if __name__ == "__main__":
    main()
