"""Bench: the network-server daemon's end-to-end verdict throughput.

One recorded fleet stream (:func:`repro.service.build_plan`) is judged
twice on the same machine:

* **in-process** -- the recorded batches looped straight through
  :meth:`NetworkServer.process_step`, the library's ceiling;
* **daemon** -- the same batches shipped through the Semtech UDP codec
  to a live :class:`NetworkServerDaemon` on loopback (ack-paced, batch
  ticks, control plane up), measuring sustained end-to-end verdicts/s.

Both verdict streams must be bit-identical -- the bench doubles as the
golden check at scale.  The report lands in
``benchmarks/BENCH_service.json``; the CI bench job gates its absolute
``daemon_verdicts_per_s`` through ``check_bench_regression.py``.  The
``speedup`` field (daemon verdicts/s over in-process verdicts/s, the
service-overhead ratio) is reported but not gated: the ratio falls
whenever the core gets faster than the daemon's fixed per-datagram
cost, even though nothing got slower.  The tier-1 smoke run measures a
miniature into the gitignored ``BENCH_service_smoke.json``.
"""

import asyncio
import json
import os
import time
from pathlib import Path

from repro.service import NetworkServerDaemon, ServiceConfig, build_plan, new_server, replay

FULL = os.environ.get("BENCH_RUNTIME_FULL") == "1"
ARTIFACT = Path(__file__).resolve().parent / (
    "BENCH_service.json" if FULL else "BENCH_service_smoke.json"
)
#: (n_devices, n_gateways, clean_s, attack_s) per mode.
SCALE = (60, 3, 600.0, 300.0) if FULL else (10, 2, 90.0, 90.0)


def test_service_throughput():
    n_devices, n_gateways, clean_s, attack_s = SCALE
    plan = build_plan(
        n_devices=n_devices,
        n_gateways=n_gateways,
        clean_s=clean_s,
        attack_s=attack_s,
        n_attacked=max(2, n_devices // 10),
    )

    # In-process ceiling: the recorded batches straight through the core.
    inproc = new_server()
    plan.provision(inproc)
    start = time.perf_counter()
    for batch in plan.batches:
        inproc.process_step(list(batch))
    inproc_wall_s = time.perf_counter() - start
    inproc_rate = len(inproc.verdicts) / inproc_wall_s

    # Daemon end to end: UDP codec, ack-paced replay, worker batching.
    async def run_daemon():
        server = new_server()
        plan.provision(server)
        daemon = NetworkServerDaemon(
            server=server,
            config=ServiceConfig(
                udp_host="127.0.0.1", udp_port=0, http_host="127.0.0.1", http_port=0
            ),
        )
        await daemon.start()
        start = time.perf_counter()
        stats = await replay(plan, "127.0.0.1", daemon.udp_port)
        await daemon.drain()
        wall_s = time.perf_counter() - start
        verdicts = [v.as_dict() for v in daemon.server.verdicts]
        await daemon.stop()
        return stats, wall_s, verdicts

    stats, daemon_wall_s, daemon_verdicts = asyncio.run(run_daemon())
    daemon_rate = len(daemon_verdicts) / daemon_wall_s
    overhead_ratio = daemon_rate / inproc_rate

    report = {
        "scale": {
            "n_devices": n_devices,
            "n_gateways": n_gateways,
            "clean_s": clean_s,
            "attack_s": attack_s,
        },
        "full_scale": FULL,
        "n_forwards": plan.n_forwards,
        "n_batches": len(plan.batches),
        "n_verdicts": len(plan.oracle_verdicts),
        "datagrams_sent": stats.datagrams_sent,
        "inproc_wall_s": inproc_wall_s,
        "inproc_verdicts_per_s": inproc_rate,
        "daemon_wall_s": daemon_wall_s,
        # The regression-gated rate: sustained end-to-end verdicts/s.
        "daemon_verdicts_per_s": daemon_rate,
        "bit_identical": daemon_verdicts == list(plan.oracle_verdicts),
        # Reported only: daemon throughput as a fraction of the
        # in-process ceiling (service overhead).
        "speedup": overhead_ratio,
    }
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")

    print()
    print(
        f"service bench ({n_devices}dev x {n_gateways}gw, "
        f"{plan.n_forwards} forwards / {len(plan.batches)} batches): "
        f"daemon {daemon_rate:.0f} verdicts/s vs in-process {inproc_rate:.0f}/s "
        f"(ratio {overhead_ratio:.3f}), wall {daemon_wall_s:.2f}s -> {ARTIFACT.name}"
    )

    # The daemon must judge exactly like the library, and sustain real load.
    assert report["bit_identical"], "daemon verdicts diverged from in-process oracle"
    assert len(daemon_verdicts) == len(plan.oracle_verdicts)
    assert daemon_rate > 50.0, f"daemon sustained only {daemon_rate:.0f} verdicts/s"
