"""Adversarial schedule tests: deterministic worst-case delay/jam plans.

Mirrors the reliability-repo idiom of driving the system with a *fixed*
adversarial schedule and asserting correctness exactly: a scripted fleet
of devices runs round after round through :class:`LoRaWanWorld` while the
frame delay attacker is armed against changing target sets with
worst-case delays (from just past benign jitter to a half-hour hold).
Every random draw comes from :class:`repro.sim.rng.RngStreams`, so the
whole run replays bit-for-bit and the per-round replay-detection verdicts
can be asserted verbatim.
"""

from repro.attack.delay_attack import FrameDelayAttack
from repro.attack.jammer import StealthyJammer
from repro.attack.replayer import Replayer
from repro.core.detector import FbDatabase, ReplayDetector
from repro.core.softlora import SoftLoRaGateway
from repro.lorawan.gateway import CommodityGateway
from repro.phy.chirp import ChirpConfig
from repro.radio.channel import LinkBudget
from repro.radio.geometry import Position
from repro.radio.pathloss import LogDistancePathLoss
from repro.server import FusionPolicy, NetworkServer, ServerStatus
from repro.sim.network import EventKind, LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.scenarios import build_fleet

#: Clean rounds first so the gateway finishes the FB learning phase
#: (``min_history=3``) for every node before the adversary wakes up.
WARMUP_ROUNDS = 3

#: The fixed worst-case plan: per round, which devices the attacker jams
#: and how long it holds their frames.  Covers a short just-noticeable
#: delay, a full-fleet round, a quiet round mid-attack, and a half-hour
#: hold -- the orderings that historically shook out state bugs.
ATTACK_SCHEDULE: dict[int, tuple[tuple[str, ...], float]] = {
    3: (("node-0", "node-1"), 45.0),
    4: (("node-2",), 240.0),
    5: (("node-0", "node-1", "node-2", "node-3"), 600.0),
    6: ((), 0.0),
    7: (("node-3",), 1800.0),
}

ROUNDS = 8
ROUND_PERIOD_S = 60.0


def build_world(seed: int = 4242, n_devices: int = 4) -> tuple[LoRaWanWorld, RngStreams]:
    streams = RngStreams(seed)
    devices = build_fleet(n_devices=n_devices, streams=streams)
    commodity = CommodityGateway()
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(
            config=ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6),
            commodity=commodity,
        ),
        gateway_position=Position(0.0, 0.0, 1.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=2.0)),
        rng=streams.stream("world"),
        server=NetworkServer(
            mac=commodity,
            detector=ReplayDetector(database=FbDatabase(), min_history=3),
            fusion=FusionPolicy.BEST_SNR,
        ),
    )
    for device in devices:
        world.add_device(device)
    return world, streams


def run_schedule(world: LoRaWanWorld, streams: RngStreams) -> list[list[str]]:
    """Drive the fixed plan; returns per-round server verdict lists."""
    attack = FrameDelayAttack(
        jammer=StealthyJammer(),
        replayer=Replayer.single_usrp(streams.stream("replayer")),
        rng=streams.stream("attack"),
    )
    verdicts: list[list[str]] = []
    for round_index in range(ROUNDS):
        targets, delay_s = ATTACK_SCHEDULE.get(round_index, ((), 0.0))
        if targets:
            world.arm_attack(attack, list(targets), delay_s)
        else:
            world.disarm_attack()
        base = 10.0 + round_index * ROUND_PERIOD_S
        for device in world.devices.values():
            device.take_reading(float(round_index), base)
        # Even rounds exercise the batched fleet step, odd rounds the
        # classic per-device path; verdicts must not depend on which.
        if round_index % 2 == 0:
            events = world.uplink_batch(request_time_s=base + 2.0)
        else:
            events = [
                world.uplink(name, base + 2.0) for name in list(world.devices)
            ]
        verdicts.append([event.verdict.status.value for event in events])
    return verdicts


class TestAdversarialSchedule:
    def test_verdicts_exactly_match_schedule(self):
        world, streams = build_world()
        verdicts = run_schedule(world, streams)

        def expected_round(round_index: int) -> list[str]:
            targets, _ = ATTACK_SCHEDULE.get(round_index, ((), 0.0))
            return [
                ServerStatus.REPLAY_DETECTED.value
                if f"node-{n}" in targets
                else ServerStatus.ACCEPTED.value
                for n in range(4)
            ]

        assert verdicts == [expected_round(r) for r in range(ROUNDS)]

    def test_schedule_replays_bit_for_bit(self):
        world_a, streams_a = build_world()
        world_b, streams_b = build_world()
        assert run_schedule(world_a, streams_a) == run_schedule(world_b, streams_b)
        fbs_a = [e.verdict.fused_fb_hz for e in world_a.events if e.verdict is not None]
        fbs_b = [e.verdict.fused_fb_hz for e in world_b.events if e.verdict is not None]
        assert fbs_a == fbs_b  # measured FBs, not just verdicts, replay exactly

    def test_no_false_alarms_and_no_misses(self):
        world, streams = build_world()
        run_schedule(world, streams)
        replays = world.events_of(EventKind.REPLAY_DELIVERED)
        delivered = world.events_of(EventKind.DELIVERED)
        n_attacked = sum(len(t) for t, _ in ATTACK_SCHEDULE.values())
        assert len(replays) == n_attacked
        assert all(e.verdict.status is ServerStatus.REPLAY_DETECTED for e in replays)
        assert all(e.verdict.status is ServerStatus.ACCEPTED for e in delivered)
        # Flagged frames never teach the FB database: every node's history
        # holds only its clean-round estimates.
        database = world.server.detector.database
        clean_rounds = ROUNDS - sum(
            1
            for r in range(ROUNDS)
            if ATTACK_SCHEDULE.get(r, ((), 0.0))[0]
            and "node-0" in ATTACK_SCHEDULE[r][0]
        )
        assert database.sample_count(f"{world.devices['node-0'].dev_addr:08x}") == clean_rounds

    def test_jamming_always_suppresses_original(self):
        world, streams = build_world()
        run_schedule(world, streams)
        suppressed = world.events_of(EventKind.SUPPRESSED_BY_JAMMING)
        assert len(suppressed) == sum(len(t) for t, _ in ATTACK_SCHEDULE.values())
