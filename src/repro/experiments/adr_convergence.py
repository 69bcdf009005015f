"""ADR convergence: closed-loop data-rate control over multi-SF fleets.

The paper evaluates the replay defense on fleets pinned at one data
rate; a real network server retunes every device's spreading factor via
ADR, changing airtime, collision odds, SNR margins, and FB-estimation
noise -- everything the defense feeds on.  This driver sweeps fleet
size x initial SF mix (x gateway count) through the closed loop of
:class:`~repro.server.adr.AdrController` +
:class:`~repro.sim.columnar.ColumnarRuntime` and reports, per cell:

* **convergence** -- median/max time from cold start to each device's
  last commanded SF change, the final SF histogram, and the LinkADRReq
  budget (sent / duty-cycle-dropped / applied);
* **throughput payoff** -- goodput and collision rate of the converged
  fleet against an ADR-disabled baseline fleet left at the initial mix
  (the acceptance bar: an all-SF12 start must at least double its
  goodput after converging);
* **detection quality** -- frame-delay-attack TPR/FPR measured on the
  ADR-disabled baseline (*before* convergence) and again on the
  converged heterogeneous fleet (*after*), so the loop's effect on the
  paper's defense is explicit.

Cells run on the fleet-scale sweep's cell harness
(:mod:`repro.experiments.fleet_scale`): each is an independent
:func:`~repro.sim.scenarios.build_cell_world` world seeded by
:func:`~repro.experiments.fleet_scale.cell_seed`, attacked by
:func:`~repro.experiments.fleet_scale.attack_phase` and dispatched by
:func:`~repro.experiments.fleet_scale.sweep_cells`, so the grid fans out
over :class:`~repro.experiments.common.SweepExecutor` workers unchanged.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.analysis.report import format_table
from repro.errors import ConfigurationError
from repro.experiments.fleet_scale import attack_phase, cell_seed, sweep_cells
from repro.server import AdrController, NetworkServer
from repro.sim.columnar import ColumnarRuntime
from repro.sim.network import LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.scenarios import build_cell_world
from repro.sim.traffic import PeriodicTrafficModel

#: Initial spreading-factor mixes a cell can start from.
SF_MIXES = ("sf12", "mixed", "sf7")


@dataclass(frozen=True)
class AdrConvergenceParams:
    """Everything one cell measurement needs, picklable for spawn workers."""

    baseline_rounds: int
    max_adr_rounds: int
    measure_rounds: int
    attack_rounds: int
    attack_fraction: float
    attack_delay_s: float
    adr_margin_db: float
    adr_min_history: int
    area_radius_m: float
    gateway_ring_m: float
    pathloss_exponent: float
    seed: int
    period_s: float
    jitter_s: float
    window_s: float


@dataclass(frozen=True)
class AdrConvergenceCell:
    """Measurements for one (gateways, devices, initial mix) sweep point."""

    n_gateways: int
    n_devices: int
    sf_mix: str
    median_initial_sf: float
    median_final_sf: float
    converged_fraction: float
    median_convergence_s: float
    max_convergence_s: float
    commands_sent: int
    commands_dropped: int
    commands_applied: int
    baseline_goodput_fps: float
    converged_goodput_fps: float
    baseline_collision_rate: float
    converged_collision_rate: float
    tpr_before: float
    fpr_before: float
    tpr_after: float
    fpr_after: float
    wall_s: float

    @property
    def goodput_gain(self) -> float:
        """Converged over baseline goodput (>1 means the loop paid off)."""
        if self.baseline_goodput_fps == 0:
            return float("inf")
        return self.converged_goodput_fps / self.baseline_goodput_fps


@dataclass
class AdrConvergenceResult:
    """All measured cells of one sweep, with the usual table formatter."""

    cells: list[AdrConvergenceCell]

    def cell(self, n_gateways: int, n_devices: int, sf_mix: str) -> AdrConvergenceCell:
        """Look up one cell by its (gateways, devices, mix) key."""
        for cell in self.cells:
            if (cell.n_gateways, cell.n_devices, cell.sf_mix) == (
                n_gateways,
                n_devices,
                sf_mix,
            ):
                return cell
        raise KeyError((n_gateways, n_devices, sf_mix))

    def format(self) -> str:
        """The sweep as an aligned text table (one row per cell)."""
        rows = []
        for c in self.cells:
            rows.append(
                [
                    c.n_gateways,
                    c.n_devices,
                    c.sf_mix,
                    c.median_initial_sf,
                    c.median_final_sf,
                    round(c.converged_fraction, 2),
                    round(c.median_convergence_s, 0),
                    f"{c.commands_sent}/{c.commands_dropped}",
                    round(c.baseline_goodput_fps, 3),
                    round(c.converged_goodput_fps, 3),
                    round(c.goodput_gain, 2),
                    round(c.converged_collision_rate, 3),
                    f"{c.tpr_before:.2f}/{c.fpr_before:.3f}",
                    f"{c.tpr_after:.2f}/{c.fpr_after:.3f}",
                ]
            )
        return format_table(
            [
                "gateways",
                "devices",
                "mix",
                "SF0",
                "SF*",
                "conv frac",
                "conv (s)",
                "cmds ok/drop",
                "base (f/s)",
                "adr (f/s)",
                "gain",
                "collisions",
                "TPR/FPR pre",
                "TPR/FPR post",
            ],
            rows,
            title="ADR convergence -- closed-loop multi-SF fleet sweep",
        )


def _initial_sfs(mix: str, n_devices: int, rng: np.random.Generator) -> list[int]:
    """Per-device starting spreading factors for one mix label."""
    if mix == "sf12":
        return [12] * n_devices
    if mix == "sf7":
        return [7] * n_devices
    if mix == "mixed":
        return [int(sf) for sf in rng.integers(7, 13, size=n_devices)]
    raise ConfigurationError(f"unknown SF mix {mix!r}; pick one of {SF_MIXES}")


def measure_adr_cell(point, trial, captures, prng, params: AdrConvergenceParams):
    """One sweep-point measurement: baseline world, ADR world, attack both.

    Module-level (driven purely by ``point.key`` + ``params``) so
    :class:`SweepExecutor` can ship it to spawn workers.  Keys are
    ``(n_gateways, n_devices, sf_mix, replicate)``.
    """
    n_gateways, n_devices, sf_mix = int(point.key[0]), int(point.key[1]), str(point.key[2])
    seed = cell_seed(params.seed, point.key)
    attack_s = params.attack_rounds * params.period_s
    t0 = time.perf_counter()

    def build(
        streams: RngStreams, adr: AdrController | None
    ) -> tuple[LoRaWanWorld, ColumnarRuntime]:
        # Both worlds draw from identical stream derivations (device FBs,
        # positions, initial SFs, traffic seeds), so their measurements
        # differ only by the control loop.
        world = build_cell_world(
            n_gateways,
            n_devices,
            streams,
            params.area_radius_m,
            params.gateway_ring_m,
            params.pathloss_exponent,
            spreading_factors=_initial_sfs(sf_mix, n_devices, streams.stream("sfmix")),
        )
        world.attach_server(NetworkServer(adr=adr))
        traffic = PeriodicTrafficModel(
            period_s=params.period_s, jitter_s=params.jitter_s, rng=streams.stream("traffic")
        )
        return world, ColumnarRuntime(world, traffic, window_s=params.window_s)

    # Baseline: identical fleet, ADR disabled, pinned at the initial mix.
    streams = RngStreams(seed)
    base_world, base_runtime = build(streams, adr=None)
    base_report = base_runtime.run(params.baseline_rounds * params.period_s)
    _, tpr_before, fpr_before, _ = attack_phase(
        base_world, base_runtime, streams, params.attack_fraction, params.attack_delay_s, attack_s
    )

    # The closed loop: same fleet derivation, ADR on.
    streams = RngStreams(seed)
    adr = AdrController(margin_db=params.adr_margin_db, min_history=params.adr_min_history)
    world, runtime = build(streams, adr=adr)
    devices = list(world.devices.values())
    start_s = world.now_s
    sent = dropped = applied = 0
    for _ in range(params.max_adr_rounds):
        report = runtime.run(params.period_s)
        sent += report.adr_commands_sent
        dropped += report.adr_commands_dropped
        applied += report.adr_commands_applied
        if report.adr_commands_sent == 0 and report.adr_commands_dropped == 0 and sent > 0:
            break  # the loop went quiet: nothing left to retune
    convergence_times = [
        (device.sf_changes[-1][0] - start_s) if device.sf_changes else 0.0
        for device in devices
    ]
    converged_fraction = float(
        np.mean([adr.converged(device.dev_addr) for device in devices])
    )
    post_report = runtime.run(params.measure_rounds * params.period_s)
    _, tpr_after, fpr_after, _ = attack_phase(
        world, runtime, streams, params.attack_fraction, params.attack_delay_s, attack_s
    )

    return AdrConvergenceCell(
        n_gateways=n_gateways,
        n_devices=n_devices,
        sf_mix=sf_mix,
        median_initial_sf=float(
            np.median(_initial_sfs(sf_mix, n_devices, RngStreams(seed).stream("sfmix")))
        ),
        median_final_sf=float(np.median([d.spreading_factor for d in devices])),
        converged_fraction=converged_fraction,
        median_convergence_s=float(np.median(convergence_times)),
        max_convergence_s=float(np.max(convergence_times)),
        commands_sent=sent,
        commands_dropped=dropped,
        commands_applied=applied,
        baseline_goodput_fps=base_report.goodput_fps,
        converged_goodput_fps=post_report.goodput_fps,
        baseline_collision_rate=base_report.contention.collision_rate,
        converged_collision_rate=post_report.contention.collision_rate,
        tpr_before=tpr_before,
        fpr_before=fpr_before,
        tpr_after=tpr_after,
        fpr_after=fpr_after,
        wall_s=time.perf_counter() - t0,
    )


def run_adr_convergence(
    gateway_counts: tuple[int, ...] = (2,),
    fleet_sizes: tuple[int, ...] = (100, 500),
    sf_mixes: tuple[str, ...] = SF_MIXES,
    baseline_rounds: int = 3,
    max_adr_rounds: int = 14,
    measure_rounds: int = 2,
    attack_rounds: int = 2,
    attack_fraction: float = 0.05,
    attack_delay_s: float = 120.0,
    adr_margin_db: float = 10.0,
    adr_min_history: int = 4,
    area_radius_m: float = 900.0,
    gateway_ring_m: float = 500.0,
    pathloss_exponent: float = 3.0,
    seed: int = 520,
    period_s: float = 600.0,
    jitter_s: float = 60.0,
    window_s: float = 30.0,
    n_workers: int = 1,
    replicates: int = 1,
) -> AdrConvergenceResult:
    """Sweep gateway count x fleet size x initial SF mix through the loop.

    Each cell builds two bit-identical fleets -- one pinned at the
    initial mix (baseline), one under the closed ADR loop -- runs both
    to steady state, and attacks both, so every row is a before/after
    pair.  Cells run on the fleet-scale sweep's harness
    (:func:`~repro.sim.scenarios.build_cell_world`,
    :func:`~repro.experiments.fleet_scale.attack_phase`,
    :func:`~repro.experiments.fleet_scale.sweep_cells`).
    ``n_workers > 1`` fans cells out, one task each, across a process
    pool opened for this call, with identical results;
    ``replicates > 1`` salts the keys for independent copies (benchmark
    workloads).
    """
    params = AdrConvergenceParams(
        baseline_rounds=baseline_rounds,
        max_adr_rounds=max_adr_rounds,
        measure_rounds=measure_rounds,
        attack_rounds=attack_rounds,
        attack_fraction=attack_fraction,
        attack_delay_s=attack_delay_s,
        adr_margin_db=adr_margin_db,
        adr_min_history=adr_min_history,
        area_radius_m=area_radius_m,
        gateway_ring_m=gateway_ring_m,
        pathloss_exponent=pathloss_exponent,
        seed=seed,
        period_s=period_s,
        jitter_s=jitter_s,
        window_s=window_s,
    )
    cells = sweep_cells(
        list(itertools.product(gateway_counts, fleet_sizes, sf_mixes)),
        replicates,
        partial(measure_adr_cell, params=params),
        n_workers,
    )
    return AdrConvergenceResult(cells=cells)


if __name__ == "__main__":
    print(run_adr_convergence(fleet_sizes=(100,), max_adr_rounds=6).format())
