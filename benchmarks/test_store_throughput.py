"""Bench: durable FB store throughput and lookup latency at scale.

Three measurements over one generated node population, all against the
daemon's ``--store sqlite:PATH`` stack (a WAL-mode
:class:`~repro.server.store.sqlite.SqliteFbStore`):

* **load** -- bulk-record the whole population (full scale: 20k nodes
  x 50 estimates = 1M device records) in dedup-window-sized batches,
  reporting sustained records/s;
* **lookup** -- per-call ``interval()`` latency across a node sample,
  reporting p50/p99 microseconds with the full record population on
  disk;
* **verdicts** -- the same check stream judged by a
  :class:`~repro.core.detector.ReplayDetector` over the in-memory
  :class:`~repro.core.detector.FbDatabase` and over the durable stack,
  asserting the verdict streams are bit-identical and reporting the
  machine-relative ``verdicts.ratio_vs_memory``.

The report lands in ``benchmarks/BENCH_store.json`` (tier-1 smoke: a
10k-record miniature into the gitignored ``BENCH_store_smoke.json``).
CI gates ``verdicts.ratio_vs_memory`` (higher is better) and
``lookup.p99_us`` (lower is better) via ``check_bench_regression.py``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.detector import FbDatabase, ReplayDetector
from repro.server.store import SqliteFbStore

FULL = os.environ.get("BENCH_RUNTIME_FULL") == "1"
ARTIFACT = Path(__file__).resolve().parent / (
    "BENCH_store.json" if FULL else "BENCH_store_smoke.json"
)
#: (n_nodes, history_len, lookup_samples, n_checks) per mode.
SCALE = (20_000, 50, 4_000, 60_000) if FULL else (2_000, 5, 500, 5_000)
#: Records per load transaction -- the dedup-window analogue.
BATCH_NODES = 500


def test_store_throughput(tmp_path):
    n_nodes, history_len, lookup_samples, n_checks = SCALE
    n_records = n_nodes * history_len
    rng = np.random.default_rng(7)
    node_ids = [f"{0x2600_0000 + i:08x}" for i in range(n_nodes)]
    # Per-node FB centers ~ U(-150, 150) kHz, estimates jittered +-40 Hz.
    centers = rng.uniform(-150e3, 150e3, n_nodes)
    jitter = rng.normal(0.0, 15.0, (n_nodes, history_len))

    store = SqliteFbStore(tmp_path / "bench.sqlite", history_len=history_len)

    # -- load: 1M records in window-sized transactions ----------------------
    start = time.perf_counter()
    for chunk in range(0, n_nodes, BATCH_NODES):
        with store.batch():
            for i in range(chunk, min(chunk + BATCH_NODES, n_nodes)):
                node, center = node_ids[i], centers[i]
                for k in range(history_len):
                    store.record(node, center + jitter[i, k], float(k))
    load_wall_s = time.perf_counter() - start
    store.flush()
    assert store.node_count() == n_nodes

    # -- lookup: per-call interval latency on the SQLite file ---------------
    sample = rng.choice(n_nodes, size=lookup_samples, replace=True)
    latencies_us = np.empty(lookup_samples)
    for j, i in enumerate(sample):
        node = node_ids[i]
        t0 = time.perf_counter()
        interval = store.interval(node, 30.0)
        latencies_us[j] = (time.perf_counter() - t0) * 1e6
        assert interval is not None
    p50_us = float(np.percentile(latencies_us, 50))
    p99_us = float(np.percentile(latencies_us, 99))

    # -- verdicts: durable stack vs in-memory reference, bit for bit --------
    check_nodes = rng.choice(n_nodes, size=n_checks, replace=True)
    check_fb = centers[check_nodes] + rng.normal(0.0, 60.0, n_checks)

    def judge(database, preload):
        detector = ReplayDetector(database=database)
        if preload:  # mirror the persistent store's on-disk population
            for i in range(n_nodes):
                for k in range(history_len):
                    database.record(node_ids[i], centers[i] + jitter[i, k], float(k))
        start = time.perf_counter()
        verdicts = [
            detector.check(node_ids[i], fb, time_s=float(j)).is_replay
            for j, (i, fb) in enumerate(zip(check_nodes, check_fb))
        ]
        return verdicts, time.perf_counter() - start

    memory_verdicts, memory_wall_s = judge(FbDatabase(history_len=history_len), True)
    store_verdicts, store_wall_s = judge(store, False)
    bit_identical = store_verdicts == memory_verdicts
    memory_rate = n_checks / memory_wall_s
    store_rate = n_checks / store_wall_s
    ratio = store_rate / memory_rate

    report = {
        "scale": {
            "n_nodes": n_nodes,
            "history_len": history_len,
            "n_records": n_records,
        },
        "full_scale": FULL,
        "load": {
            "wall_s": load_wall_s,
            "records_per_s": n_records / load_wall_s,
        },
        "lookup": {
            "samples": lookup_samples,
            "p50_us": p50_us,
            "p99_us": p99_us,
        },
        "verdicts": {
            "checks": n_checks,
            "memory_per_s": memory_rate,
            "store_per_s": store_rate,
            # The regression-gated ratio: durable-stack verdict
            # throughput as a fraction of the in-memory ceiling
            # (machine-relative, so differing CI runners compare fairly).
            "ratio_vs_memory": ratio,
        },
        "bit_identical": bit_identical,
    }
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    store.close()

    print()
    print(
        f"store bench ({n_nodes} nodes x {history_len} = {n_records} records): "
        f"load {report['load']['records_per_s']:.0f} rec/s, "
        f"lookup p99 {p99_us:.0f}us, "
        f"verdicts {store_rate:.0f}/s vs memory {memory_rate:.0f}/s "
        f"(ratio {ratio:.3f}) -> {ARTIFACT.name}"
    )

    assert bit_identical, "durable-stack verdicts diverged from in-memory"
    assert report["load"]["records_per_s"] > 1_000.0
    assert p99_us < 100_000.0, f"p99 lookup {p99_us:.0f}us is pathological"
