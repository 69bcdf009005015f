"""Sec. 8.1.1: the full frame delay attack, end to end, in the building.

End device in Section A / 3rd floor; gateway in Section C / 6th floor;
the link needs SF >= 8 (SF7 sits below its demodulation floor).  USRP
eavesdropper next to the device, USRP replayer next to the gateway.  The
driver demonstrates each claim:

1. the jamming onset falls in the stealthy window -> the gateway silently
   drops the original frame,
2. the jamming signal is weak at the eavesdropper after crossing the
   building, so its recording replays cleanly,
3. the replayed frame passes MIC and frame-counter checks at the
   commodity gateway (crypto does not help),
4. every timestamp reconstructed from the replayed frame is shifted by τ,
5. keeping the replayer's power low (<= 7 dBm in the paper) the replay
   reaches the gateway yet stays undetectable by more distant observers,
6. the SoftLoRa FB check flags the replay.

On top of the per-frame claims, the driver replays the scenario on the
event-driven :class:`~repro.sim.columnar.ColumnarRuntime`: the device keeps
reporting on its periodic schedule, the attack arms mid-run, and the
measured **detection latency** -- arming to the first flagged replay --
lands in :attr:`AttackE2EResult.detection_latency_s`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.metrics import detection_latency_s
from repro.analysis.report import format_table
from repro.attack.delay_attack import FrameDelayAttack
from repro.attack.jammer import JammingOutcome, StealthyJammer
from repro.attack.replayer import Replayer
from repro.clock.clocks import DriftingClock
from repro.clock.oscillator import Oscillator
from repro.constants import SX1276_DEMOD_SNR_FLOOR_DB
from repro.experiments.common import SweepPoint, run_sweep
from repro.lorawan.device import EndDevice
from repro.lorawan.gateway import CommodityGateway
from repro.lorawan.security import SessionKeys
from repro.radio.channel import noise_floor_dbm
from repro.radio.geometry import Position
from repro.server import FusionPolicy, GatewayForward, NetworkServer, ServerStatus
from repro.sim.columnar import ColumnarRuntime
from repro.sim.rng import RngStreams
from repro.sim.scenarios import build_pinned_link_world
from repro.sim.traffic import PeriodicTrafficModel


@dataclass
class AttackE2EResult:
    link_snr_db: float
    min_viable_sf: int
    jam_outcome: JammingOutcome
    commodity_accepted_replay: bool
    timestamp_shift_s: float
    injected_delay_s: float
    softlora_status: ServerStatus
    replay_rx_power_dbm: float
    replay_within_linear_range: bool
    replay_snr_at_monitor_db: float
    monitor_can_hear_replay: bool
    replay_power_dbm: float
    detection_latency_s: float

    def format(self) -> str:
        return format_table(
            ["claim", "paper", "measured"],
            [
                ["min SF for the A3F->C6F link", 8, self.min_viable_sf],
                ["jamming outcome", "silent drop", self.jam_outcome.value],
                [
                    "commodity gateway accepts replay",
                    "yes",
                    "yes" if self.commodity_accepted_replay else "no",
                ],
                [
                    "timestamp shift == injected τ (s)",
                    self.injected_delay_s,
                    round(self.timestamp_shift_s, 3),
                ],
                ["replay power (dBm)", "<= 7", self.replay_power_dbm],
                [
                    "replay RX power in gateway linear range",
                    "yes (no anomaly)",
                    "yes" if self.replay_within_linear_range else "no",
                ],
                [
                    "distant observers hear the replay",
                    "no",
                    "yes" if self.monitor_can_hear_replay else "no",
                ],
                ["SoftLoRa verdict", "replay detected", self.softlora_status.value],
                [
                    "detection latency after arming (s)",
                    "-",
                    round(self.detection_latency_s, 1),
                ],
            ],
            title="Sec. 8.1.1 -- full frame delay attack in the building",
        )


def min_viable_spreading_factor(link_snr_db: float) -> int:
    """Smallest LoRaWAN SF (7..12) whose demodulation floor the link clears."""
    for sf in range(7, 13):
        if link_snr_db >= SX1276_DEMOD_SNR_FLOOR_DB[sf]:
            return sf
    raise ValueError(f"link SNR {link_snr_db} dB is below even SF12's floor")


def run_attack_e2e(
    link_snr_db: float = -9.0,
    injected_delay_s: float = 60.0,
    replay_power_dbm: float = 7.0,
    replayer_to_gateway_loss_db: float = 31.6,
    monitor_loss_db: float = 150.0,
    sample_rate_hz: float = 0.5e6,
    seed: int = 81,
) -> AttackE2EResult:
    """Execute the complete Sec. 8.1.1 scenario.

    ``link_snr_db`` defaults to −9 dB: below SF7's −7.5 dB floor and
    above SF8's −10 dB floor, reproducing the paper's "minimum spreading
    factor of 8" observation for the cross-building link.

    The driver is a single-point, spec-less sweep: the scenario is
    frame-level end to end (no captures synthesized), so the sweep
    declares one point whose measurement executes the whole attack.
    """

    def measure(point, trial, capture, prng):
        return _execute_scenario(
            link_snr_db=link_snr_db,
            injected_delay_s=injected_delay_s,
            replay_power_dbm=replay_power_dbm,
            replayer_to_gateway_loss_db=replayer_to_gateway_loss_db,
            monitor_loss_db=monitor_loss_db,
            sample_rate_hz=sample_rate_hz,
            seed=seed,
        )

    return run_sweep([SweepPoint(key="sec811")], measure).first("sec811")


def _measure_detection_latency(
    streams: RngStreams,
    spreading_factor: int,
    link_snr_db: float,
    injected_delay_s: float,
    sample_rate_hz: float,
    period_s: float = 120.0,
    clean_periods: int = 3,
    attack_periods: int = 3,
) -> float:
    """Sec. 8.1.1 on the event-driven runtime: arming -> first detection.

    The cross-building link is pinned at the measured SNR
    (:func:`build_pinned_link_world`); the device reports every
    ``period_s`` on the runtime's traffic schedule, the attack arms
    after the clean phase, and the latency is the gap to the first
    replay the FB check flags.
    """
    world, device = build_pinned_link_world(
        streams,
        spreading_factor,
        link_snr_db,
        dev_addr=0x26011BDB,
        gateway_position=Position(190.0, 0.0, 18.0),
        sample_rate_hz=sample_rate_hz,
    )
    world.server.bootstrap_fb_profile(
        device.dev_addr,
        [device.fb_hz + float(e) for e in streams.stream("runtime-profile").normal(0, 15, 5)],
    )
    runtime = ColumnarRuntime(
        world,
        PeriodicTrafficModel(
            period_s=period_s, jitter_s=10.0, rng=streams.stream("runtime-traffic")
        ),
    )
    runtime.run(clean_periods * period_s)
    armed_at_s = world.now_s
    world.arm_attack(
        FrameDelayAttack(
            jammer=StealthyJammer(),
            replayer=Replayer.dual_usrp(streams.stream("runtime-replayer")),
            rng=streams.stream("runtime-attack"),
        ),
        [device.name],
        delay_s=injected_delay_s,
    )
    report = runtime.run(attack_periods * period_s)
    return detection_latency_s(armed_at_s, report.replay_detection_times_s)


def _execute_scenario(
    link_snr_db: float,
    injected_delay_s: float,
    replay_power_dbm: float,
    replayer_to_gateway_loss_db: float,
    monitor_loss_db: float,
    sample_rate_hz: float,
    seed: int,
) -> AttackE2EResult:
    """The Sec. 8.1.1 scenario body (one sweep-point measurement)."""
    streams = RngStreams(seed)
    sf = min_viable_spreading_factor(link_snr_db)

    dev_addr = 0x26011BDA
    keys = SessionKeys.derive_for_test(dev_addr)
    device = EndDevice(
        name="end-device",
        dev_addr=dev_addr,
        keys=keys,
        radio_oscillator=Oscillator.lora_end_device(streams.stream("osc")),
        clock=DriftingClock(drift_ppm=40.0),
        spreading_factor=sf,
        rng=streams.stream("device"),
    )
    server = NetworkServer(fusion=FusionPolicy.BEST_SNR)
    server.register_device(dev_addr, keys)
    server.bootstrap_fb_profile(
        dev_addr, [device.fb_hz + float(e) for e in streams.stream("profile").normal(0, 15, 5)]
    )

    attack = FrameDelayAttack(
        jammer=StealthyJammer(),
        replayer=Replayer.dual_usrp(streams.stream("replayer")),
        rng=streams.stream("attack"),
    )

    # One sensed reading, then the attacked uplink.
    t0 = 1000.0
    device.take_reading(215.0, t0)
    uplink = device.transmit(t0 + 3.0)
    outcome = attack.execute(uplink, delay_s=injected_delay_s)

    # The commodity gateway view: the replayed frame passes MIC + counter.
    plain_commodity = CommodityGateway()
    plain_commodity.register_device(dev_addr, keys)
    commodity_view = plain_commodity.receive_frame(
        outcome.replayed.mac_bytes, outcome.replayed.arrival_time_s
    )
    shift = 0.0
    if commodity_view.accepted and commodity_view.readings:
        shift = commodity_view.readings[0].global_time_s - t0

    # Replay power budget: the replayer sits ~1 m from the gateway
    # (free-space loss ~31.6 dB at 868 MHz).  Keeping its TX power at or
    # below 7 dBm (paper Sec. 8.1.1) holds the received power inside the
    # gateway's linear range -- well above sensitivity, below the
    # SX127x's ~0 dBm input ceiling, and not anomalously hot -- while a
    # distant observer (outside the building; ~150 dB total loss) stays
    # below even SF12's demodulation floor and never hears the replay.
    floor = noise_floor_dbm()
    replay_rx_power = replay_power_dbm - replayer_to_gateway_loss_db
    sensitivity = floor + SX1276_DEMOD_SNR_FLOOR_DB[sf]
    within_linear = sensitivity <= replay_rx_power <= 0.0
    monitor_snr = replay_power_dbm - monitor_loss_db - floor
    monitor_hears = monitor_snr >= SX1276_DEMOD_SNR_FLOOR_DB[12]

    # The SoftLoRa view: the gateway forwards the replay's measured FB
    # and the network server's FB check flags it.
    (softlora_view,) = server.process_step(
        [
            GatewayForward(
                gateway_id="gw-0",
                mac_bytes=outcome.replayed.mac_bytes,
                arrival_time_s=outcome.replayed.arrival_time_s,
                fb_hz=outcome.replayed.fb_hz,
                snr_db=replay_rx_power - floor,
                spreading_factor=sf,
            )
        ]
    )

    latency_s = _measure_detection_latency(
        streams, sf, link_snr_db, injected_delay_s, sample_rate_hz
    )

    return AttackE2EResult(
        link_snr_db=link_snr_db,
        min_viable_sf=sf,
        jam_outcome=outcome.jam_outcome,
        commodity_accepted_replay=commodity_view.accepted,
        timestamp_shift_s=shift,
        injected_delay_s=injected_delay_s,
        softlora_status=softlora_view.status,
        replay_rx_power_dbm=replay_rx_power,
        replay_within_linear_range=within_linear,
        replay_snr_at_monitor_db=monitor_snr,
        monitor_can_hear_replay=monitor_hears,
        replay_power_dbm=replay_power_dbm,
        detection_latency_s=latency_s,
    )
