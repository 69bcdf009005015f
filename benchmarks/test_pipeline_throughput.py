"""Bench P1: batched vs per-capture gateway throughput on a fleet step.

A 64-capture fleet workload (SF7 preambles, 8 chirps + noise pad) runs
through the SoftLoRa DSP chain twice: once capture by capture with the
single-capture APIs (`AicDetector.detect` + `LeastSquaresFbEstimator
.estimate`), once through :class:`repro.pipeline.BatchPipeline`'s
vectorized stages.  Results must agree bitwise.

The speed gate sits on the FB stage: `estimate_batch` on the 64 sliced
chirps must clear 3x a loop of `estimate` calls.  The whole-chain ratio
is recorded but not gated, because the AIC onset stage is bound by its
logarithms and its batched form is barely faster than 64 single calls;
once FB estimation got cheap the whole chain cannot reach 3x.  CI gates
the batched path's absolute captures/s against the committed record.

The tier-1 run writes the gitignored ``BENCH_pipeline_smoke.json``;
``BENCH_RUNTIME_FULL=1`` (CI's bench job) refreshes the committed
``benchmarks/BENCH_pipeline.json``.  The workload is the same in both.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.freq_bias import LeastSquaresFbEstimator
from repro.core.onset import AicDetector
from repro.experiments.common import ScenarioSpec
from repro.phy.chirp import ChirpConfig
from repro.pipeline import BatchPipeline

#: The fleet-step workload: one uplink burst from a 64-node fleet.
N_CAPTURES = 64
SPREADING_FACTOR = 7
SAMPLE_RATE_HZ = 0.25e6
N_CHIRPS = 8
SNR_DB = 20.0
TIMING_ROUNDS = 5
#: Batched-over-loop throughput the FB stage must clear.
FB_SPEEDUP_FLOOR = 3.0
FULL = os.environ.get("BENCH_RUNTIME_FULL") == "1"
ARTIFACT = Path(__file__).resolve().parent / (
    "BENCH_pipeline.json" if FULL else "BENCH_pipeline_smoke.json"
)


def _build_workload():
    config = ChirpConfig(
        spreading_factor=SPREADING_FACTOR, sample_rate_hz=SAMPLE_RATE_HZ
    )
    rng = np.random.default_rng(64)
    spec = ScenarioSpec(
        config,
        snr_db=SNR_DB,
        fb_hz=lambda r: float(r.uniform(-25e3, -17e3)),
        n_chirps=N_CHIRPS,
    )
    batch, captures = spec.synthesize_batch(rng, N_CAPTURES)
    return config, batch, captures


def _best_of(fn, rounds=TIMING_ROUNDS):
    fn()  # warm caches (chirp references, FFT plans, numpy buffers)
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_pipeline_throughput():
    config, batch, captures = _build_workload()
    detector = AicDetector()
    estimator = LeastSquaresFbEstimator(config)
    engine = BatchPipeline(
        config=config, onset_detector=detector, fb_estimator=estimator
    )
    spc = config.samples_per_chirp

    def per_capture_path():
        out = []
        for capture in captures:
            onset = detector.detect(capture.trace, component="i")
            estimate = estimator.estimate(
                capture.trace.samples[onset.index + spc : onset.index + 2 * spc]
            )
            out.append((onset.time_s, estimate.fb_hz))
        return out

    def batched_path():
        return engine.run(batch)

    loop_s, loop_results = _best_of(per_capture_path)
    batch_s, batch_results = _best_of(batched_path)

    # Correctness first: the batched engine must reproduce the
    # per-capture chain bitwise before its speed means anything.
    loop_times_s, loop_fbs_hz = (np.array(column) for column in zip(*loop_results))
    np.testing.assert_array_equal(batch_results.phy_timestamps_s, loop_times_s)
    np.testing.assert_array_equal(batch_results.fb_hz, loop_fbs_hz)

    # The FB stage alone, on the chirps both paths sliced.
    onsets = batch_results.onset_indices
    chirps = np.stack([c.trace.samples[i + spc : i + 2 * spc] for c, i in zip(captures, onsets)])
    fb_loop_s, fb_loop = _best_of(lambda: [estimator.estimate(c).fb_hz for c in chirps])
    fb_batch_s, fb_batch = _best_of(lambda: estimator.estimate_batch(chirps))
    np.testing.assert_array_equal(fb_batch, fb_loop)
    np.testing.assert_array_equal(fb_loop, loop_fbs_hz)

    loop_cps = N_CAPTURES / loop_s
    batch_cps = N_CAPTURES / batch_s
    speedup = batch_cps / loop_cps
    fb_speedup = fb_loop_s / fb_batch_s
    report = {
        "workload": {
            "n_captures": N_CAPTURES,
            "spreading_factor": SPREADING_FACTOR,
            "sample_rate_hz": SAMPLE_RATE_HZ,
            "n_chirps": N_CHIRPS,
            "snr_db": SNR_DB,
            "samples_per_capture": int(batch.n_samples),
        },
        "per_capture_path": {
            "seconds": loop_s,
            "captures_per_second": loop_cps,
        },
        "batched_path": {
            "seconds": batch_s,
            "captures_per_second": batch_cps,
        },
        "speedup": speedup,
        "fb_stage": {
            "per_capture_seconds": fb_loop_s,
            "batched_seconds": fb_batch_s,
            "speedup": fb_speedup,
        },
    }
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")

    print()
    print(
        f"P1 pipeline throughput: per-capture {loop_cps:.0f} cap/s, "
        f"batched {batch_cps:.0f} cap/s, whole chain {speedup:.2f}x, "
        f"FB stage {fb_speedup:.2f}x -> {ARTIFACT.name}"
    )
    assert fb_speedup >= FB_SPEEDUP_FLOOR, (
        f"batched FB stage only {fb_speedup:.2f}x the per-capture loop "
        f"({fb_batch_s * 1e3:.2f} vs {fb_loop_s * 1e3:.2f} ms for {N_CAPTURES} chirps)"
    )
