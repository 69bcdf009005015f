"""fleet-day: the researcher's path, a day of a spec-built fleet.

:class:`~repro.sim.columnar.ColumnarRuntime` in ``mode="counters"``
simulates a day of periodic reports from 200k spec-built devices heard
by three gateways, driven as consecutive one-hour ``run()`` phases.  It
is the only workload where ``repro.sim`` does the work (spec build,
scheduling, time wheel, collision sweep); no frames are assembled, so
AES, the store and DSP stay out of it.

Each device reports every 12 h with a minute of jitter; at that load the
channel loses a fifth of the frames to collisions, inside the stated
:data:`COLLISION_BAND`, not the near-total loss of a saturated channel.
"""

from __future__ import annotations

import statistics
import time

from perfbench.stats import digest, latency_summary, rate, units

N_DEVICES = 200_000
N_GATEWAYS = 3
RING_RADIUS_M = 2000.0
PERIOD_S = 43_200.0
JITTER_S = 60.0
WINDOW_S = 2.0
PHASE_S = 3600.0
PHASES_PER_DAY = 24
#: Phases run per second of ``--seconds``; 20 s covers the whole day.
PHASES_PER_S = 1.15
#: Collision rate a realistic, unsaturated deployment sits in.
COLLISION_BAND = (0.10, 0.30)
#: Fleet builds per run, each followed by the first phase; ``setup_s``
#: is their median and every build's first phase must count the same.
SETUPS = 3


def generate(seed: int) -> dict:
    """The fleet and traffic description a run builds its world from.

    Args:
        seed: Workload seed; seeds the fleet columns and the traffic.

    Returns:
        The spec parameters, gateway placement and traffic law, with a
        digest of them.
    """
    inputs = {
        "spec": {"n_devices": N_DEVICES, "seed": seed, "ring_radius_m": RING_RADIUS_M},
        "gateways": N_GATEWAYS,
        "traffic": {"period_s": PERIOD_S, "jitter_s": JITTER_S, "seed": seed},
        "window_s": WINDOW_S,
        "phase_s": PHASE_S,
    }
    return {**inputs, "digests": {"inputs": digest(inputs)}, "size": {"devices": N_DEVICES}}


def _world(inputs: dict, streams):
    import numpy as np

    from repro.core.softlora import SoftLoRaGateway
    from repro.lorawan.gateway import CommodityGateway
    from repro.phy.chirp import ChirpConfig
    from repro.radio.channel import LinkBudget
    from repro.radio.geometry import Position
    from repro.radio.pathloss import LogDistancePathLoss
    from repro.sim.network import LoRaWanWorld

    world = LoRaWanWorld(
        gateway=SoftLoRaGateway(
            config=ChirpConfig(spreading_factor=7, sample_rate_hz=0.5e6),
            commodity=CommodityGateway(),
        ),
        gateway_position=Position(0.0, 0.0, 15.0),
        link=LinkBudget(pathloss=LogDistancePathLoss(exponent=2.0)),
        rng=streams.stream("world"),
    )
    radius = inputs["spec"]["ring_radius_m"]
    for k in range(1, inputs["gateways"]):
        angle = 2 * np.pi * k / inputs["gateways"]
        world.add_gateway(Position(radius * np.cos(angle), radius * np.sin(angle), 15.0))
    return world


def _counters(report) -> tuple[int, ...]:
    c = report.contention
    return (
        c.attempts,
        c.delivered,
        c.collided,
        c.lost_low_snr,
        c.suppressed,
        c.replays_delivered,
        report.deferrals,
    )


def run(inputs: dict, seconds: float, tracer, workdir=None) -> dict:
    """Build the fleet ``SETUPS`` times, then run ``seconds * PHASES_PER_S`` more phases.

    Args:
        inputs: What :func:`generate` produced.
        seconds: Run length; fixes how many phases of the day run.
        tracer: A :class:`~perfbench.trace.Tracer`, or ``None``.
        workdir: Unused; the workloads share one signature.

    Returns:
        End-to-end metrics, correctness accounting, and the outputs a
        traced run must reproduce.
    """
    from repro.sim.columnar import ColumnarRuntime, FleetState
    from repro.sim.rng import RngStreams
    from repro.sim.scenarios import build_fleet_spec
    from repro.sim.traffic import PeriodicTrafficModel

    setups, spec_s, state_s, first_phase = [], [], [], []
    runtime = None
    for _ in range(SETUPS):
        start = time.perf_counter()
        spec = build_fleet_spec(**inputs["spec"])
        built = time.perf_counter()
        streams = RngStreams(inputs["traffic"]["seed"])
        world = _world(inputs, streams)
        stated = time.perf_counter()
        state = FleetState.from_spec(spec, world)
        done = time.perf_counter()
        runtime = ColumnarRuntime(
            world,
            PeriodicTrafficModel(
                period_s=inputs["traffic"]["period_s"],
                jitter_s=inputs["traffic"]["jitter_s"],
                rng=streams.stream("traffic"),
            ),
            window_s=inputs["window_s"],
            mode="counters",
            state=state,
        )
        first_phase.append(_counters(runtime.run(inputs["phase_s"])))
        setups.append(time.perf_counter() - start)
        spec_s.append(built - start)
        state_s.append(done - stated)
    if tracer is not None:
        tracer.wrap(runtime, "run", "sim.run")
        tracer.wrap(runtime.traffic, "schedule_arrays", "sim.schedule_arrays")

    phases, walls = [first_phase[-1]], []
    steps = units(seconds, PHASES_PER_S, PHASES_PER_DAY - 1, 2)
    while len(walls) < steps:
        if tracer is not None:
            tracer.request = len(phases)
        start = time.perf_counter()
        report = runtime.run(inputs["phase_s"])
        walls.append(time.perf_counter() - start)
        phases.append(_counters(report))

    steady = phases[1:]
    attempts = sum(p[0] for p in phases)
    collided = sum(p[2] for p in phases)
    collision_rate = collided / attempts
    failures = []
    repeats = sum(1 for counters in first_phase if counters != first_phase[0])
    if repeats:
        failures.append(f"{repeats} builds counted a different first phase")
    partition = sum(1 for p in phases if p[1] + p[2] + p[3] + p[4] != p[0])
    if partition:
        failures.append(f"{partition} phases whose counters do not partition the attempts")
    lo, hi = COLLISION_BAND
    in_band = lo <= collision_rate <= hi
    if not in_band:
        failures.append(f"collision rate {collision_rate:.4f} outside {COLLISION_BAND}")
    lat = latency_summary(walls)
    first = first_phase[0]
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "throughput_per_s": rate([p[0] for p in steady], walls),
            "lat_p50_ms": lat["p50_ms"],
            "lat_p99_ms": lat["p99_ms"],
        },
        "latency": lat,
        "work": [p[0] for p in steady],
        "latencies_s": walls,
        "attempted": len(phases) + SETUPS - 1,
        "failed": repeats + partition + int(not in_band),
        "failures": failures,
        "outputs": {"phases": phases},
        "counters": {
            "sim.spec_s": statistics.median(spec_s),
            "sim.state_s": statistics.median(state_s),
            "sim.collision_rate": first[2] / first[0],
            "sim.delivery_ratio": first[1] / first[0],
            "sim.deferrals": float(first[6]),
        },
        "detail": {
            "setups_s": setups,
            "phases": len(phases),
            "collision_rate_day": collision_rate,
            "first_phase": first,
        },
    }


def same_outputs(a: dict, b: dict) -> bool:
    """Traced and untraced runs counted the same phases alike."""
    n = min(len(a["phases"]), len(b["phases"]))
    return n > 0 and a["phases"][:n] == b["phases"][:n]


def ledger(result: dict, tracer) -> dict:
    """Per-layer metrics from a traced run's spans plus the exact counters."""
    run_total = tracer.total("sim.run")
    schedule = tracer.total("sim.schedule_arrays")
    return {
        **result["counters"],
        "sim.schedule_share": schedule / run_total,
        "sim.drive_us_per_frame": (run_total - schedule) * 1e6 / max(1, sum(result["work"])),
    }
