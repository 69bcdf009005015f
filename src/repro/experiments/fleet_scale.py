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
to the serial walk.  The cell harness here -- :func:`cell_seed`,
:func:`attack_phase` and :func:`sweep_cells`, around
:func:`~repro.sim.scenarios.build_cell_world` -- also runs the ADR
sweep (:mod:`repro.experiments.adr_convergence`).
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.analysis.metrics import detection_latency_s
from repro.analysis.report import format_table
from repro.attack.delay_attack import FrameDelayAttack
from repro.attack.jammer import StealthyJammer
from repro.attack.replayer import Replayer
from repro.errors import ConfigurationError
from repro.experiments.common import SweepExecutor, SweepPoint
from repro.server import FusionPolicy, NetworkServer
from repro.sim.columnar import ColumnarRuntime
from repro.sim.network import EventKind, LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.runtime import RuntimeReport
from repro.sim.scenarios import build_cell_world
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


def cell_seed(seed: int, key: tuple) -> int:
    """World seed of the cell keyed ``(n_gateways, n_devices, ..., replicate)``."""
    return seed + 7919 * int(key[0]) + int(key[1]) + 104_729 * int(key[-1])


def sweep_cells(cells: list[tuple], replicates: int, measure: Callable, n_workers: int) -> list:
    """Measure ``replicates`` copies of every cell; return them in declaration order.

    Each cell tuple starts ``(n_gateways, n_devices)`` and its keys append
    the replicate index.  Points go out sorted by ``n_gateways *
    n_devices``, descending and stable, so a parallel run starts its
    costliest cells first rather than leaving one worker alone with them.
    """
    if replicates < 1:
        raise ConfigurationError(f"need >= 1 replicate, got {replicates}")
    keys = [(*cell, rep) for cell in cells for rep in range(replicates)]
    heaviest_first = sorted(keys, key=lambda key: -key[0] * key[1])
    sweep = SweepExecutor(n_workers=n_workers).run(
        [SweepPoint(key=key) for key in heaviest_first], measure
    )
    return [sweep.first(key) for key in keys]


def attack_phase(
    world: LoRaWanWorld,
    runtime: ColumnarRuntime,
    streams: RngStreams,
    attack_fraction: float,
    attack_delay_s: float,
    duration_s: float,
) -> tuple[RuntimeReport, float, float, set[tuple[int, int]]]:
    """Attack a heard slice of the fleet for ``duration_s``, then disarm.

    The attacker eavesdrops real traffic, so it targets devices the
    server already holds verdicts for: with partial coverage the others
    have nothing to jam or replay.  Returns ``(report, tpr, fpr,
    replay_keys)``: the phase's report, the shares of delivered replays
    and of clean deliveries flagged, and each replay's (DevAddr, FCnt).
    """
    devices = list(world.devices.values())
    n_attacked = max(1, int(round(attack_fraction * len(devices))))
    heard = {verdict.node_id for verdict in world.server.verdicts}
    reachable = [d for d in devices if f"{d.dev_addr:08x}" in heard] or devices
    attack = FrameDelayAttack(
        jammer=StealthyJammer(),
        replayer=Replayer.single_usrp(streams.stream("replayer")),
        rng=streams.stream("attack"),
    )
    world.arm_attack(attack, [d.name for d in reachable[:n_attacked]], delay_s=attack_delay_s)
    report = runtime.run(duration_s)
    world.disarm_attack()
    replays = hits = clean = false_alarms = 0
    replay_keys: set[tuple[int, int]] = set()
    for event in report.events:
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
    tpr = hits / replays if replays else 0.0
    fpr = false_alarms / clean if clean else 0.0
    return report, tpr, fpr, replay_keys


def measure_fleet_cell(point, trial, captures, prng, params: FleetScaleParams):
    """One sweep-point measurement: build the cell world, run, score.

    Module-level (and driven purely by ``point.key`` + ``params``) so
    :class:`SweepExecutor` can ship it to spawn workers.  Keys are
    ``(n_gateways, n_devices, replicate)``.
    """
    n_gateways, n_devices = int(point.key[0]), int(point.key[1])
    streams = RngStreams(cell_seed(params.seed, point.key))
    world = build_cell_world(
        n_gateways,
        n_devices,
        streams,
        params.area_radius_m,
        params.gateway_ring_m,
        params.pathloss_exponent,
        spreading_factors=[params.spreading_factor] * n_devices,
    )
    server = world.attach_server(NetworkServer(fusion=params.fusion))
    true_fb = {f"{d.dev_addr:08x}": d.fb_hz for d in world.devices.values()}
    traffic = PeriodicTrafficModel(
        period_s=params.period_s, jitter_s=params.jitter_s, rng=streams.stream("traffic")
    )
    runtime = ColumnarRuntime(world, traffic, window_s=params.window_s)

    t0 = time.perf_counter()
    clean_report = runtime.run(params.clean_rounds * params.period_s)
    attack_s = params.attack_rounds * params.period_s
    attack_report, tpr, fpr, replay_keys = attack_phase(
        world, runtime, streams, params.attack_fraction, params.attack_delay_s, attack_s
    )
    wall_s = time.perf_counter() - t0

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
    resolved = len(server.verdicts)
    return FleetScaleCell(
        n_gateways=n_gateways,
        n_devices=n_devices,
        uplink_attempts=attempts,
        resolved_uplinks=resolved,
        delivery_rate=resolved / attempts if attempts else 0.0,
        dedup_rate=server.dedup_rate,
        collision_rate=collided / attempts if attempts else 0.0,
        goodput_fps=delivered / duration_s,
        fused_fb_mae_hz=float(np.mean(fused_errors)) if fused_errors else 0.0,
        best_single_fb_mae_hz=float(np.mean(best_errors)) if best_errors else 0.0,
        detection_tpr=tpr,
        detection_fpr=fpr,
        detection_latency_s=detection_latency_s(
            attack_report.start_s, attack_report.replay_detection_times_s
        ),
        wall_s=wall_s,
    )


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
) -> FleetScaleResult:
    """Sweep gateway count × fleet size through the event-driven stack.

    Each cell is an independent world (fresh devices, layout, server,
    traffic schedule) from the shared cell harness:
    :func:`~repro.sim.scenarios.build_cell_world` seeded by
    :func:`cell_seed`, attacked by :func:`attack_phase` and dispatched
    by :func:`sweep_cells`.  Cells are comparable, the grid can grow
    without perturbing existing cells, and ``n_workers > 1`` fans whole
    cells out, one task each, across a process pool opened for this
    call, with identical results.  ``replicates > 1`` runs independent
    copies of each cell (benchmark workloads).
    """
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
    )
    cells = sweep_cells(
        list(itertools.product(gateway_counts, device_counts)),
        replicates,
        partial(measure_fleet_cell, params=params),
        n_workers,
    )
    return FleetScaleResult(cells=cells, fusion=fusion)
