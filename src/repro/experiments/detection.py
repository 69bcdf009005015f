"""Sec. 7.2: replay detection quality over a simulated fleet.

Runs the 16-node fleet through many uplink rounds with the frame delay
attack armed against a subset of nodes, and tallies detection statistics
at the network server.  With the paper's numbers -- estimation
resolution 0.14 ppm (120 Hz) versus replay offsets of at least 0.62 ppm
(543 Hz) -- detection should be perfect and false alarms absent, even
while benign temperature drift slowly moves every node's true FB.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import DetectionStats, detection_stats
from repro.analysis.report import format_table
from repro.attack.delay_attack import FrameDelayAttack
from repro.attack.jammer import StealthyJammer
from repro.attack.replayer import Replayer
from repro.core.softlora import SoftLoRaGateway
from repro.lorawan.gateway import CommodityGateway
from repro.phy.chirp import ChirpConfig
from repro.radio.channel import LinkBudget
from repro.radio.geometry import Position
from repro.radio.pathloss import LogDistancePathLoss
from repro.sim.network import EventKind, LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.scenarios import build_fleet


@dataclass
class DetectionResultSummary:
    stats: DetectionStats
    rounds: int
    n_devices: int
    attacked_devices: list[str]
    statuses: dict[str, int]

    def format(self) -> str:
        return format_table(
            ["metric", "paper expectation", "measured"],
            [
                [
                    "attacked frames detected",
                    "all",
                    f"{self.stats.true_positives}/"
                    f"{self.stats.true_positives + self.stats.false_negatives}",
                ],
                ["detection rate", 1.0, round(self.stats.detection_rate, 4)],
                ["false alarm rate", 0.0, round(self.stats.false_alarm_rate, 4)],
                ["legit frames accepted", "all", self.stats.true_negatives],
            ],
            title="Sec. 7.2 -- fleet replay detection",
        )


def run_detection(
    n_devices: int = 16,
    rounds: int = 12,
    attacked: int = 4,
    warmup_rounds: int = 4,
    attack_delay_s: float = 45.0,
    temperature_drift_c_per_round: float = 0.4,
    seed: int = 72,
) -> DetectionResultSummary:
    """Fleet simulation with attacks on a subset of devices.

    ``warmup_rounds`` of clean traffic let the gateway learn each node's
    FB profile at run time (the paper's online bootstrapping); attacks
    start afterwards.  Node temperatures drift each round, exercising the
    database's benign-drift tracking.
    """
    streams = RngStreams(seed)
    devices = build_fleet(n_devices=n_devices, streams=streams)
    config = ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6)
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(config=config, commodity=CommodityGateway()),
        gateway_position=Position(0.0, 0.0, 1.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=2.0)),
        rng=streams.stream("world"),
    )
    for device in devices:
        world.add_device(device)

    attack = FrameDelayAttack(
        jammer=StealthyJammer(),
        replayer=Replayer.single_usrp(streams.stream("replayer")),
        rng=streams.stream("attack"),
    )
    attacked_names = [d.name for d in devices[:attacked]]

    labels: list[bool] = []
    predictions: list[bool] = []
    period = 60.0
    for round_index in range(rounds):
        if round_index == warmup_rounds:
            world.arm_attack(attack, attacked_names, attack_delay_s)
        for device in devices:
            device.temperature_c = 25.0 + temperature_drift_c_per_round * round_index
            device.take_reading(
                float(100 + round_index), 10.0 + round_index * period
            )
            event = world.uplink(device.name, 12.0 + round_index * period)
            if event.verdict is None:
                continue
            is_attack = event.kind is EventKind.REPLAY_DELIVERED
            flagged = event.verdict.attack_detected
            # Only frames past the learning phase count toward the stats.
            if round_index >= warmup_rounds:
                labels.append(is_attack)
                predictions.append(flagged)

    statuses: dict[str, int] = {}
    for verdict in world.server.verdicts:
        statuses[verdict.status.value] = statuses.get(verdict.status.value, 0) + 1
    return DetectionResultSummary(
        stats=detection_stats(labels, predictions),
        rounds=rounds,
        n_devices=n_devices,
        attacked_devices=attacked_names,
        statuses=statuses,
    )
