"""Fleet scale: gateways × devices sweep over the event-driven runtime.

The paper evaluates one SoftLoRa gateway over 16 nodes; deployments run
thousands of devices heard by several gateways each.  This driver grows
the Fig. 13 fleet workload along both axes -- 1..8 gateways, 100..2000
devices -- with the devices scattered over a multi-kilometre cell so
coverage is partial and per-gateway SNRs differ.  Traffic is no longer
caller-stepped: each cell schedules periodic-with-jitter reporting on
the time-wheel :class:`~repro.sim.columnar.ColumnarRuntime`, so
concurrent transmissions contend (ALOHA + capture effect) at every
gateway before the surviving receptions reach the network server.  Per
(gateways, devices) cell it reports:

* **delivery / dedup / contention** -- fraction of transmitted frames
  resolved at all, mean gateway copies folded into each verdict, and
  the co-SF collision rate the ALOHA channel inflicted;
* **goodput** -- genuine deliveries per second of simulated time;
* **fused FB error vs best single gateway** -- the cross-gateway
  fingerprinting payoff: inverse-variance fusion should beat the best
  single link's estimate on average;
* **detection accuracy + latency** -- TPR/FPR of the fused replay
  verdict under the frame-delay attack against a slice of the fleet,
  and the delay from arming the attack to its first detection.

Cells are independent worlds derived from per-cell rng streams, so the
whole grid can fan out over worker processes:
``run_fleet_scale(n_workers=4)`` runs cells N-way parallel through
:class:`~repro.experiments.common.SweepExecutor` with results identical
to the serial walk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.analysis.metrics import detection_latency_s
from repro.analysis.report import format_table
from repro.attack.delay_attack import FrameDelayAttack
from repro.attack.jammer import StealthyJammer
from repro.attack.replayer import Replayer
from repro.core.softlora import SoftLoRaGateway
from repro.errors import ConfigurationError
from repro.experiments.common import SweepExecutor, SweepPoint
from repro.lorawan.gateway import CommodityGateway
from repro.phy.chirp import ChirpConfig
from repro.radio.channel import LinkBudget
from repro.radio.geometry import Position
from repro.radio.pathloss import LogDistancePathLoss
from repro.server import FusionPolicy, NetworkServer
from repro.sim.columnar import ColumnarRuntime
from repro.sim.network import EventKind, LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.scenarios import build_fleet
from repro.sim.traffic import PeriodicTrafficModel


@dataclass(frozen=True)
class FleetScaleCell:
    """Measurements for one (gateways, devices) sweep point."""

    n_gateways: int
    n_devices: int
    uplink_attempts: int
    resolved_uplinks: int
    delivery_rate: float
    dedup_rate: float
    collision_rate: float
    goodput_fps: float
    fused_fb_mae_hz: float
    best_single_fb_mae_hz: float
    detection_tpr: float
    detection_fpr: float
    detection_latency_s: float
    wall_s: float


@dataclass(frozen=True)
class FleetScaleParams:
    """Everything one cell measurement needs, picklable for spawn workers."""

    clean_rounds: int
    attack_rounds: int
    attack_fraction: float
    attack_delay_s: float
    fusion: FusionPolicy
    spreading_factor: int
    area_radius_m: float
    gateway_ring_m: float
    pathloss_exponent: float
    seed: int
    period_s: float
    jitter_s: float
    window_s: float
    mode: str = "events"


@dataclass
class FleetScaleResult:
    cells: list[FleetScaleCell]
    fusion: FusionPolicy

    def cell(self, n_gateways: int, n_devices: int) -> FleetScaleCell:
        for cell in self.cells:
            if (cell.n_gateways, cell.n_devices) == (n_gateways, n_devices):
                return cell
        raise KeyError((n_gateways, n_devices))

    def format(self) -> str:
        rows = []
        for c in self.cells:
            rows.append(
                [
                    c.n_gateways,
                    c.n_devices,
                    round(c.delivery_rate, 3),
                    round(c.collision_rate, 3),
                    round(c.goodput_fps, 2),
                    round(c.dedup_rate, 2),
                    round(c.fused_fb_mae_hz, 1),
                    round(c.best_single_fb_mae_hz, 1),
                    round(c.detection_tpr, 3),
                    round(c.detection_fpr, 4),
                    round(c.detection_latency_s, 1),
                    round(c.wall_s, 2),
                ]
            )
        return format_table(
            [
                "gateways",
                "devices",
                "delivery",
                "collisions",
                "goodput (f/s)",
                "copies/uplink",
                "fused MAE (Hz)",
                "best-GW MAE (Hz)",
                "TPR",
                "FPR",
                "latency (s)",
                "wall (s)",
            ],
            rows,
            title=f"Fleet scale -- event-driven multi-gateway sweep "
            f"({self.fusion.value} fusion)",
        )


def _build_cell_world(
    n_gateways: int,
    n_devices: int,
    streams: RngStreams,
    spreading_factor: int,
    area_radius_m: float,
    gateway_ring_m: float,
    pathloss_exponent: float,
) -> LoRaWanWorld:
    """One cell: devices scattered over a disk, gateways on an inner ring."""
    config = ChirpConfig(spreading_factor=spreading_factor, sample_rate_hz=0.5e6)
    devices = build_fleet(n_devices=n_devices, streams=streams, spreading_factor=spreading_factor)
    layout = streams.stream("layout")
    for device in devices:
        radius = area_radius_m * float(np.sqrt(layout.uniform(0.0, 1.0)))
        angle = float(layout.uniform(0.0, 2 * np.pi))
        device.position = Position(
            x=radius * float(np.cos(angle)), y=radius * float(np.sin(angle)), z=1.0
        )
    link = LinkBudget(pathloss=LogDistancePathLoss(exponent=pathloss_exponent))
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(config=config, commodity=CommodityGateway()),
        gateway_position=Position(gateway_ring_m, 0.0, 15.0),
        link=link,
        rng=streams.stream("world"),
    )
    for index in range(1, n_gateways):
        angle = 2 * np.pi * index / n_gateways
        world.add_gateway(
            Position(
                x=gateway_ring_m * float(np.cos(angle)),
                y=gateway_ring_m * float(np.sin(angle)),
                z=15.0,
            )
        )
    for device in devices:
        world.add_device(device)
    return world


def _measure_cell(
    world: LoRaWanWorld,
    server: NetworkServer,
    params: FleetScaleParams,
    streams: RngStreams,
) -> dict:
    """Run the cell's clean + attack phases and pull the evidence apart."""
    devices = list(world.devices.values())
    true_fb = {f"{d.dev_addr:08x}": d.fb_hz for d in devices}
    traffic = PeriodicTrafficModel(
        period_s=params.period_s,
        jitter_s=params.jitter_s,
        rng=streams.stream("traffic"),
    )
    runtime = ColumnarRuntime(world, traffic, window_s=params.window_s, mode=params.mode)

    t0 = time.perf_counter()
    clean_report = runtime.run(params.clean_rounds * params.period_s)

    n_attacked = max(1, int(round(params.attack_fraction * len(devices))))
    attack = FrameDelayAttack(
        jammer=StealthyJammer(),
        replayer=Replayer.single_usrp(streams.stream("replayer")),
        rng=streams.stream("attack"),
    )
    # The attacker eavesdrops real traffic, so it targets devices some
    # gateway actually hears; with partial coverage the unreachable ones
    # have nothing to jam or replay.  Counters cells never populate the
    # verdict log, so they read the same heard set off the runtime's
    # per-device delivery tally instead.
    if params.mode == "counters":
        heard_names = set(runtime.heard_names())
        reachable = [d for d in devices if d.name in heard_names] or devices
    else:
        heard = {verdict.node_id for verdict in server.verdicts}
        reachable = [d for d in devices if f"{d.dev_addr:08x}" in heard] or devices
    armed_at_s = world.now_s
    world.arm_attack(
        attack,
        [d.name for d in reachable[:n_attacked]],
        delay_s=params.attack_delay_s,
    )
    attack_report = runtime.run(params.attack_rounds * params.period_s)
    wall_s = time.perf_counter() - t0

    replays = hits = clean = false_alarms = 0
    replay_keys: set[tuple[int, int]] = set()
    for event in attack_report.events:
        verdict = event.verdict
        if verdict is None:
            continue
        if event.kind is EventKind.REPLAY_DELIVERED:
            replays += 1
            hits += verdict.attack_detected
            replay_keys.add((verdict.dev_addr, verdict.fcnt))
        elif event.kind is EventKind.DELIVERED:
            clean += 1
            false_alarms += verdict.attack_detected

    # FB error statistics cover genuine transmissions only: a replay's FB
    # carries the ~543 Hz chain offset whether or not the detector caught
    # it, and would swamp the few-Hz estimation errors being measured.
    fused_errors: list[float] = []
    best_errors: list[float] = []
    for verdict in server.verdicts:
        if verdict.fused is None or (verdict.dev_addr, verdict.fcnt) in replay_keys:
            continue
        truth = true_fb.get(verdict.node_id)
        if truth is None:
            continue
        fused_errors.append(abs(verdict.fused.fb_hz - truth))
        best_row = int(np.argmax(verdict.gateway_snrs_db))
        best_errors.append(abs(verdict.gateway_fbs_hz[best_row] - truth))

    attempts = clean_report.attempts + attack_report.attempts
    contention = [clean_report.contention, attack_report.contention]
    collided = sum(c.collided for c in contention)
    delivered = sum(c.delivered for c in contention)
    duration_s = clean_report.duration_s + attack_report.duration_s
    if params.mode == "counters":
        # Counter-only capacity run: the contention split is exact
        # (pinned counter-for-counter against events mode), but no frame
        # ever reaches the server, so the estimation/detection columns
        # are not measured.  Every delivered frame (and every replayed
        # one) would have produced exactly one server verdict.
        resolved = delivered + sum(c.replays_delivered for c in contention)
        unmeasured = float("nan")
        return {
            "uplink_attempts": attempts,
            "resolved_uplinks": resolved,
            "delivery_rate": resolved / attempts if attempts else 0.0,
            "dedup_rate": unmeasured,
            "collision_rate": collided / attempts if attempts else 0.0,
            "goodput_fps": delivered / duration_s,
            "fused_fb_mae_hz": unmeasured,
            "best_single_fb_mae_hz": unmeasured,
            "detection_tpr": unmeasured,
            "detection_fpr": unmeasured,
            "detection_latency_s": unmeasured,
            "wall_s": wall_s,
        }
    resolved = len(server.verdicts)
    return {
        "uplink_attempts": attempts,
        "resolved_uplinks": resolved,
        "delivery_rate": resolved / attempts if attempts else 0.0,
        "dedup_rate": server.dedup_rate,
        "collision_rate": collided / attempts if attempts else 0.0,
        "goodput_fps": delivered / duration_s,
        "fused_fb_mae_hz": float(np.mean(fused_errors)) if fused_errors else 0.0,
        "best_single_fb_mae_hz": float(np.mean(best_errors)) if best_errors else 0.0,
        "detection_tpr": hits / replays if replays else 0.0,
        "detection_fpr": false_alarms / clean if clean else 0.0,
        "detection_latency_s": detection_latency_s(
            armed_at_s, attack_report.replay_detection_times_s
        ),
        "wall_s": wall_s,
    }


def measure_fleet_cell(point, trial, captures, prng, params: FleetScaleParams):
    """One sweep-point measurement: build the cell world, run, score.

    Module-level (and driven purely by ``point.key`` + ``params``) so
    :class:`SweepExecutor` can ship it to spawn workers.  Keys are
    ``(n_gateways, n_devices)`` or ``(n_gateways, n_devices, replicate)``
    -- the replicate salt gives benchmark grids independent copies of
    one cell.
    """
    key = tuple(point.key)
    n_gateways, n_devices = int(key[0]), int(key[1])
    replicate = int(key[2]) if len(key) > 2 else 0
    streams = RngStreams(params.seed + 7919 * n_gateways + n_devices + 104_729 * replicate)
    world = _build_cell_world(
        n_gateways,
        n_devices,
        streams,
        params.spreading_factor,
        params.area_radius_m,
        params.gateway_ring_m,
        params.pathloss_exponent,
    )
    server = world.attach_server(NetworkServer(fusion=params.fusion))
    measured = _measure_cell(world, server, params, streams)
    return FleetScaleCell(n_gateways=n_gateways, n_devices=n_devices, **measured)


def run_fleet_scale(
    gateway_counts: tuple[int, ...] = (1, 2, 4, 8),
    device_counts: tuple[int, ...] = (100, 500, 2000),
    clean_rounds: int = 3,
    attack_rounds: int = 2,
    attack_fraction: float = 0.05,
    attack_delay_s: float = 120.0,
    fusion: FusionPolicy = FusionPolicy.INVERSE_VARIANCE,
    spreading_factor: int = 7,
    area_radius_m: float = 1500.0,
    gateway_ring_m: float = 700.0,
    pathloss_exponent: float = 3.4,
    seed: int = 2020,
    period_s: float = 600.0,
    jitter_s: float = 60.0,
    window_s: float = 30.0,
    n_workers: int = 1,
    replicates: int = 1,
    mode: str = "events",
) -> FleetScaleResult:
    """Sweep gateway count × fleet size through the event-driven stack.

    Each cell is an independent world (fresh devices, layout, server,
    traffic schedule) derived from per-cell rng streams, so cells are
    comparable, the grid can grow without perturbing existing cells, and
    ``n_workers > 1`` fans whole cells out, one task each, across a
    process pool opened for this call, with identical results.
    ``replicates > 1`` appends a salt to every key, yielding independent
    copies of each cell (benchmark workloads).
    ``mode`` is the :class:`~repro.sim.columnar.ColumnarRuntime` mode
    each cell runs in.  ``"events"`` delivers every frame to the server
    and measures every column.  ``"counters"`` runs the same cells as
    counters only: contention columns (attempts, collisions, goodput,
    delivery) are exact, while the estimation/detection columns are
    reported as NaN because counters cells never assemble frames for
    the server.
    """
    if mode not in ("events", "counters"):
        raise ConfigurationError(f"mode must be 'events' or 'counters', got {mode!r}")
    params = FleetScaleParams(
        clean_rounds=clean_rounds,
        attack_rounds=attack_rounds,
        attack_fraction=attack_fraction,
        attack_delay_s=attack_delay_s,
        fusion=fusion,
        spreading_factor=spreading_factor,
        area_radius_m=area_radius_m,
        gateway_ring_m=gateway_ring_m,
        pathloss_exponent=pathloss_exponent,
        seed=seed,
        period_s=period_s,
        jitter_s=jitter_s,
        window_s=window_s,
        mode=mode,
    )
    if replicates < 1:
        raise ConfigurationError(f"need >= 1 replicate, got {replicates}")
    keys: list[tuple] = [
        (n_gateways, n_devices) if replicates == 1 else (n_gateways, n_devices, rep)
        for n_gateways in gateway_counts
        for n_devices in device_counts
        for rep in range(replicates)
    ]
    sweep = SweepExecutor(n_workers=n_workers).run(
        [SweepPoint(key=key) for key in keys],
        partial(measure_fleet_cell, params=params),
    )
    return FleetScaleResult(cells=[sweep.first(key) for key in sweep.keys()], fusion=fusion)
