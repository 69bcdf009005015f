"""Bench: runtime throughput (events vs counters mode) + parallel sweep speedup.

Three measurements land in ``benchmarks/BENCH_runtime.json``:

* **events-mode throughput** (section ``runtime``) -- a 500-device
  single-gateway fleet runs five minutes of periodic traffic through
  :class:`repro.sim.ColumnarRuntime` in events mode (scheduling,
  duty-cycle backoff, per-device MAC, per-gateway collision resolution,
  windowed batched delivery, a ``WorldEvent`` per frame); reported as
  time-wheel items per wall second, the median of
  ``EVENTS_MODE_REPEATS`` runs of the cell, each on a fresh world (one
  run lasts well under a second, so host load alone moves a single
  reading by 2x).  Every run's rate is recorded in ``events_per_s_runs``.
* **counters-mode throughput** (section ``columnar``) -- the scale cell: a full-mode
  **million-device** fleet is materialized straight from a
  :class:`repro.sim.FleetSpec` (batched column draws, chunked power
  matrix, no per-device objects; ``build_s`` must stay under 10 s) and
  runs one simulated hour through :class:`repro.sim.ColumnarRuntime` in
  counters mode (time-wheel scheduling, struct-of-arrays MAC,
  vectorized collision sweep, no per-frame event objects; the run must
  clear 200k ``events_per_s``).  Peak RSS is recorded alongside so the
  bounded-memory claim is visible in the artifact.
  ``speedup_vs_events`` is the same-run events-per-wall-second ratio
  between the two modes; it is recorded at both scales, and the tier-1
  smoke cell (200k devices x 10 minutes) must clear 10x.  At full scale
  CI gates the two absolute rates (``runtime.events_per_s`` and
  ``columnar.events_per_s``) instead of the ratio, which moves with
  either workload.
* **parallel sweep speedup** -- four independent replicates of one
  fleet_scale cell run through :class:`SweepExecutor` serially, then
  once in parallel (each parallel run spawns its own pool, so its time
  includes the spawn).  Both runs must produce identical measurements
  before any wall-clock number counts; the recorded section carries
  ``n_cpus`` alongside the gated ``speedup`` (serial over parallel).
  On a runner with >= 4 cores the speedup must reach 2x -- on smaller
  runners the gate is *skipped* (recording ``n_cpus``), not silently
  passed.

The default sizes are smoke sizes (written to the gitignored
``BENCH_runtime_smoke.json``) so tier-1 stays fast; CI's bench job sets
``BENCH_RUNTIME_FULL=1`` to run the paper-scale cells and refresh the
committed ``BENCH_runtime.json``.
"""

import json
import multiprocessing
import os
import resource
import time
from pathlib import Path

import pytest

from repro.core.softlora import SoftLoRaGateway
from repro.experiments.fleet_scale import run_fleet_scale
from repro.lorawan.gateway import CommodityGateway
from repro.phy.chirp import ChirpConfig
from repro.radio.channel import LinkBudget
from repro.radio.geometry import Position
from repro.radio.pathloss import LogDistancePathLoss
from repro.sim.columnar import ColumnarRuntime, FleetState
from repro.sim.network import LoRaWanWorld
from repro.sim.rng import RngStreams
from repro.sim.scenarios import build_fleet, build_fleet_spec
from repro.sim.traffic import PeriodicTrafficModel

FULL = os.environ.get("BENCH_RUNTIME_FULL") == "1"
#: Full-scale runs refresh the committed record; the tier-1 smoke run
#: writes a gitignored sibling so it never churns the committed numbers.
ARTIFACT = Path(__file__).resolve().parent / (
    "BENCH_runtime.json" if FULL else "BENCH_runtime_smoke.json"
)
#: The fleet_scale cell fanned out across workers: the paper-scale
#: 8 x 2000 cell in full mode, a fast miniature for the tier-1 smoke run.
SWEEP_CELL = (8, 2000) if FULL else (2, 100)
N_REPLICATES = 4
SWEEP_ROUNDS = {"clean_rounds": 2, "attack_rounds": 1}
N_DEVICES = 500
TRAFFIC_DURATION_S = 300.0
EVENTS_MODE_REPEATS = 3
#: The columnar scale cell: one million spec-built devices x 1 simulated
#: hour in full mode, a 200k-device x 10-minute variant for the smoke
#: run.  Each device reports roughly once per run, so the full cell
#: sweeps ~1M frames through ~3600 one-second collision windows.
COLUMNAR_N_DEVICES = 1_000_000 if FULL else 200_000
COLUMNAR_DURATION_S = 3600.0 if FULL else 600.0
COLUMNAR_PERIOD_S = 3600.0 if FULL else 600.0
COLUMNAR_JITTER_S = 60.0 if FULL else 30.0
COLUMNAR_WINDOW_S = 1.0
#: Gated ceilings/floors for the full-scale cell: the spec construction
#: must build the million-row world in bounded time, and the counters
#: sweep must sustain paper-scale throughput.
BUILD_S_CEILING = 10.0
EVENTS_PER_S_FLOOR = 200_000.0
#: Events-per-wall-second ratio the smoke counters-mode cell must clear
#: over the events-mode cell measured in the same process (smoke scale
#: only; full scale gates the absolute rates in CI).
SPEEDUP_FLOOR = 10.0

_COMPARED_FIELDS = (
    "uplink_attempts",
    "resolved_uplinks",
    "delivery_rate",
    "dedup_rate",
    "collision_rate",
    "goodput_fps",
    "fused_fb_mae_hz",
    "best_single_fb_mae_hz",
    "detection_tpr",
    "detection_fpr",
    "detection_latency_s",
)


def _build_bench_world(n_devices: int, seed: int) -> tuple[LoRaWanWorld, RngStreams]:
    streams = RngStreams(seed)
    devices = build_fleet(n_devices=n_devices, streams=streams, ring_radius_m=400.0)
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(
            config=ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6),
            commodity=CommodityGateway(),
        ),
        gateway_position=Position(0.0, 0.0, 15.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=2.0)),
        rng=streams.stream("world"),
    )
    for device in devices:
        world.add_device(device)
    return world, streams


def _measure_events_throughput() -> dict:
    """The events-mode cell's median run, with every run's rate beside it."""
    runs = [_run_events_cell() for _ in range(EVENTS_MODE_REPEATS)]
    median = sorted(runs, key=lambda run: run["events_per_s"])[len(runs) // 2]
    return {**median, "events_per_s_runs": [run["events_per_s"] for run in runs]}


def _run_events_cell() -> dict:
    world, streams = _build_bench_world(N_DEVICES, seed=1234)
    runtime = ColumnarRuntime(
        world,
        PeriodicTrafficModel(period_s=120.0, jitter_s=30.0, rng=streams.stream("traffic")),
        window_s=2.0,
    )
    report = runtime.run(TRAFFIC_DURATION_S)
    stats = report.contention
    return {
        "n_devices": N_DEVICES,
        "sim_duration_s": TRAFFIC_DURATION_S,
        "frames_transmitted": stats.attempts,
        "sim_events": report.sim_events,
        "wall_s": report.wall_s,
        "events_per_s": report.events_per_s,
        "frames_per_wall_s": stats.attempts / report.wall_s,
        "collision_rate": stats.collision_rate,
        "goodput_fps": report.goodput_fps,
    }


def _measure_counters_throughput() -> dict:
    streams = RngStreams(1234)
    # The build timer covers the whole world materialization: the spec,
    # the device-less world, and the columnar state (batched column
    # draws + chunked power matrix) -- no per-device objects anywhere.
    build0 = time.perf_counter()
    spec = build_fleet_spec(n_devices=COLUMNAR_N_DEVICES, seed=1234, ring_radius_m=400.0)
    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(
            config=ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6),
            commodity=CommodityGateway(),
        ),
        gateway_position=Position(0.0, 0.0, 15.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=2.0)),
        rng=streams.stream("world"),
    )
    state = FleetState.from_spec(spec, world)
    build_s = time.perf_counter() - build0
    runtime = ColumnarRuntime(
        world,
        PeriodicTrafficModel(
            period_s=COLUMNAR_PERIOD_S,
            jitter_s=COLUMNAR_JITTER_S,
            rng=streams.stream("traffic"),
        ),
        window_s=COLUMNAR_WINDOW_S,
        mode="counters",
        state=state,
    )
    report = runtime.run(COLUMNAR_DURATION_S)
    stats = report.contention
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "n_devices": COLUMNAR_N_DEVICES,
        "sim_duration_s": COLUMNAR_DURATION_S,
        "period_s": COLUMNAR_PERIOD_S,
        "window_s": COLUMNAR_WINDOW_S,
        "build_s": build_s,
        "peak_rss_mb": peak_rss_mb,
        "frames_transmitted": stats.attempts,
        "sim_events": report.sim_events,
        "wall_s": report.wall_s,
        "events_per_s": report.events_per_s,
        "frames_per_wall_s": stats.attempts / report.wall_s,
        "collision_rate": stats.collision_rate,
        "goodput_fps": report.goodput_fps,
    }


def _run_replicated_sweep(n_workers: int):
    n_gateways, n_devices = SWEEP_CELL
    start = time.perf_counter()
    result = run_fleet_scale(
        gateway_counts=(n_gateways,),
        device_counts=(n_devices,),
        replicates=N_REPLICATES,
        n_workers=n_workers,
        **SWEEP_ROUNDS,
    )
    return time.perf_counter() - start, result


def _merge_artifact(section: str, payload: dict) -> dict:
    """Fold one section into the artifact, keeping the others."""
    report = {}
    if ARTIFACT.exists():
        report = json.loads(ARTIFACT.read_text())
    report[section] = payload
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_runtime_vs_columnar_throughput():
    events = _measure_events_throughput()
    columnar = _measure_counters_throughput()
    speedup = columnar["events_per_s"] / events["events_per_s"]
    columnar["speedup_vs_events"] = speedup
    columnar["full_scale"] = FULL

    _merge_artifact("runtime", events)
    _merge_artifact("columnar", columnar)

    print()
    print(
        f"events mode: {events['events_per_s']:.0f} events/s "
        f"({events['n_devices']} devices, collision rate "
        f"{events['collision_rate']:.2f})"
    )
    print(
        f"counters mode: {columnar['events_per_s']:.0f} events/s "
        f"({columnar['n_devices']} devices x {columnar['sim_duration_s']:.0f}s, "
        f"{columnar['frames_transmitted']} frames, build {columnar['build_s']:.1f}s, "
        f"run {columnar['wall_s']:.1f}s, peak rss {columnar['peak_rss_mb']:.0f} MB) "
        f"-> {speedup:.0f}x events mode -> {ARTIFACT.name}"
    )

    assert events["events_per_s"] > 0
    assert columnar["frames_transmitted"] > 0
    if not FULL:
        assert speedup >= SPEEDUP_FLOOR, (
            f"counters mode only {speedup:.1f}x events mode "
            f"(floor {SPEEDUP_FLOOR:.0f}x at smoke scale)"
        )
    else:
        assert columnar["build_s"] <= BUILD_S_CEILING, (
            f"spec build took {columnar['build_s']:.1f}s "
            f"(ceiling {BUILD_S_CEILING:.0f}s at 1M devices)"
        )
        assert columnar["events_per_s"] >= EVENTS_PER_S_FLOOR, (
            f"counters sweep only {columnar['events_per_s']:.0f} events/s "
            f"(floor {EVENTS_PER_S_FLOOR:.0f} at 1M devices x 1h)"
        )


def test_parallel_sweep_speedup():
    n_cpus = multiprocessing.cpu_count()
    # Fan out across every available core; at least two workers so the
    # spawn pool is genuinely exercised even on a single-core runner
    # (where the speedup gate does not apply).
    n_workers = max(2, n_cpus)
    serial_s, serial = _run_replicated_sweep(n_workers=1)
    parallel_s, parallel = _run_replicated_sweep(n_workers=n_workers)

    # Correctness first: the worker count may not change a single
    # measurement before the wall-clock means anything.
    for cell_a, cell_b in zip(serial.cells, parallel.cells):
        for field_name in _COMPARED_FIELDS:
            assert getattr(cell_a, field_name) == getattr(cell_b, field_name), field_name

    speedup = serial_s / parallel_s
    _merge_artifact(
        "parallel_sweep",
        {
            "cell": {"n_gateways": SWEEP_CELL[0], "n_devices": SWEEP_CELL[1]},
            "replicates": N_REPLICATES,
            "full_scale": FULL,
            "n_cpus": n_cpus,
            "n_workers": n_workers,
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "speedup": speedup,
        },
    )

    print()
    print(
        f"parallel sweep ({SWEEP_CELL[0]}x{SWEEP_CELL[1]} cell x{N_REPLICATES}): "
        f"serial {serial_s:.1f}s, {n_workers} workers {parallel_s:.1f}s, "
        f"speedup {speedup:.2f}x on {n_cpus} cpus -> {ARTIFACT.name}"
    )

    if n_cpus < 4:
        pytest.skip(f"parallel speedup gate needs >= 4 cpus, have {n_cpus}")
    assert speedup >= 2.0, (
        f"parallel sweep only {speedup:.2f}x with {n_workers} workers on {n_cpus} cpus"
    )
