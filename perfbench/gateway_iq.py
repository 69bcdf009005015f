"""gateway-iq: the LoRaTS SDR receive chain alone.

:class:`~repro.pipeline.BatchPipeline` (AIC onset, PHY timestamp, LS FB
estimation) runs on seeded preamble captures with known onset and FB.
It is the only workload where ``repro.core`` DSP and ``repro.pipeline``
do the work; no MAC, store or service is involved.

The pool holds 14 batches per SF, sizes 1 to 64, at SF7 and SF9, every
capture at one of a fixed cycle of SNRs from 0 to 30 dB.  Only
the random content (noise, FB, onset fraction, replay order) depends on
the seed, so every seed gives the same mix of small calls, which measure
per-call Python overhead, and large calls, which measure the numpy
kernels.  The pipeline keeps no state, so the pool is replayed in seeded
rounds, each round one seeded permutation of the whole pool.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from perfbench.stats import digest, latency_summary, rate, units

#: ADC rate per SF: 8x and 4x the 125 kHz bandwidth, so one sample of
#: onset error costs 122 Hz of FB bias at SF7 and 61 Hz at SF9.
SAMPLE_RATES_HZ = {7: 1e6, 9: 0.5e6}
SPREADING_FACTORS = tuple(SAMPLE_RATES_HZ)
#: One batch per size and SF; small batches dominate the call count.
SIZES = (1, 1, 1, 2, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64)
#: Capture ``j`` of a batch gets ``SNRS_DB[j % len(SNRS_DB)]``.
SNRS_DB = (0.0, 3.0, 6.0, 10.0, 15.0, 20.0, 25.0, 30.0)
#: Captures at or above this SNR must meet the paper's 120 Hz resolution.
HIGH_SNR_DB = 10.0
FB_RESOLUTION_HZ = 120.0
N_CHIRPS = 3
#: Receive-chain constructions per run; ``setup_s`` is their median.
SETUPS = 5
#: Captures compared against the single-capture APIs per run.
N_SPOT_CHECKS = 8
#: Rounds of the pool replayed per second of ``--seconds``.
ROUNDS_PER_S = 3
ROUNDS = 400


def generate(seed: int) -> dict:
    """Synthesize the capture pool, its ground truth and the replay order.

    Args:
        seed: Workload seed; the same seed gives the same inputs.

    Returns:
        The pool (samples, true onset and FB per capture), the replay
        order, the spot-check picks and a digest of all of it.
    """
    from repro.experiments.common import ScenarioSpec
    from repro.phy.chirp import ChirpConfig

    rng = np.random.default_rng([seed, 7])
    pool = []
    for sf in SPREADING_FACTORS:
        config = ChirpConfig(spreading_factor=sf, sample_rate_hz=SAMPLE_RATES_HZ[sf])
        for size in SIZES:
            captures = [
                ScenarioSpec(
                    config,
                    snr_db=SNRS_DB[j % len(SNRS_DB)],
                    fb_hz=float(rng.uniform(-25e3, -17e3)),
                    n_chirps=N_CHIRPS,
                ).synthesize(rng)
                for j in range(size)
            ]
            pool.append(
                {
                    "sf": sf,
                    "samples": np.stack([c.trace.samples for c in captures]),
                    "true_onset_s": np.array([c.true_onset_time_s for c in captures]),
                    "true_fb_hz": np.array([c.fb_hz for c in captures]),
                    "snr_db": np.array([c.snr_db for c in captures]),
                }
            )
    order = np.concatenate([rng.permutation(len(pool)) for _ in range(ROUNDS)])
    picks = [
        (int(b), int(rng.integers(len(pool[b]["samples"]))))
        for b in rng.choice(len(pool), N_SPOT_CHECKS, replace=False)
    ]
    inputs = {"pool": pool, "order": order, "picks": picks}
    return {
        **inputs,
        "digests": {"inputs": digest(inputs)},
        "size": {"batches": len(pool), "captures": int(sum(len(b["samples"]) for b in pool))},
    }


def _chain(sf: int):
    from repro.phy.chirp import ChirpConfig
    from repro.pipeline import BatchPipeline

    config = ChirpConfig(spreading_factor=sf, sample_rate_hz=SAMPLE_RATES_HZ[sf])
    return BatchPipeline(config=config)


def run(inputs: dict, seconds: float, tracer, workdir=None) -> dict:
    """Build the chains ``SETUPS`` times, then replay ``seconds * ROUNDS_PER_S`` rounds.

    Args:
        inputs: What :func:`generate` produced.
        seconds: Run length; fixes how many rounds are replayed.
        tracer: A :class:`~perfbench.trace.Tracer`, or ``None``.
        workdir: Unused; the workloads share one signature.

    Returns:
        End-to-end metrics, correctness accounting, and the outputs a
        traced run must reproduce.
    """
    from repro.pipeline import CaptureBatch

    pool = inputs["pool"]
    batches = [
        CaptureBatch(
            samples=b["samples"],
            sample_rate_hz=SAMPLE_RATES_HZ[b["sf"]],
            start_times_s=np.zeros(len(b["samples"])),
        )
        for b in pool
    ]
    # The largest batch of each SF warms every buffer size the chain uses.
    warmups = {
        sf: max(
            (i for i, b in enumerate(pool) if b["sf"] == sf),
            key=lambda i: len(pool[i]["samples"]),
        )
        for sf in SPREADING_FACTORS
    }
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        chains = {sf: _chain(sf) for sf in SPREADING_FACTORS}
        for sf, index in warmups.items():
            chains[sf].run(batches[index])
        setups.append(time.perf_counter() - start)
    if tracer is not None:
        for chain in chains.values():
            tracer.wrap(chain, "run", "pipeline.run")
            tracer.wrap(chain.onset_detector, "aic_curve_batch", "core.aic_curve_batch")
            tracer.wrap(chain.fb_estimator, "estimate_batch", "core.estimate_batch")

    order = inputs["order"]
    round_len = len(pool)
    first: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    latencies, sizes = [], []
    nondeterministic = 0
    rounds = units(seconds, ROUNDS_PER_S, len(order) // round_len)
    position = 0
    while position < rounds * round_len:
        for index in order[position : position + round_len]:
            batch = batches[index]
            if tracer is not None:
                tracer.request = len(latencies)
            start = time.perf_counter()
            result = chains[pool[index]["sf"]].run(batch)
            latencies.append(time.perf_counter() - start)
            sizes.append(len(batch))
            outputs = (result.phy_timestamps_s, result.fb_hz)
            seen = first.setdefault(int(index), outputs)
            if seen is not outputs and not all(
                np.array_equal(a, b, equal_nan=True) for a, b in zip(seen, outputs)
            ):
                nondeterministic += 1
        position += round_len

    timestamps = np.concatenate([first[i][0] for i in range(len(pool))])
    fbs = np.concatenate([first[i][1] for i in range(len(pool))])
    true_onsets = np.concatenate([b["true_onset_s"] for b in pool])
    true_fbs = np.concatenate([b["true_fb_hz"] for b in pool])
    snrs = np.concatenate([b["snr_db"] for b in pool])
    missing = int(np.isnan(fbs).sum())
    fb_errors = np.abs(fbs - true_fbs)
    high = snrs >= HIGH_SNR_DB
    high_mae = float(np.nanmean(fb_errors[high])) if high.any() else 0.0
    mismatched = _spot_check(inputs, batches, first)
    failures = []
    if missing:
        failures.append(f"{missing} captures got no FB estimate")
    if nondeterministic:
        failures.append(f"{nondeterministic} replays differed from the first replay")
    if mismatched:
        failures.append(f"{mismatched} spot checks differ from the single-capture APIs")
    accurate = high_mae <= FB_RESOLUTION_HZ
    if not accurate:
        failures.append(f"high-SNR FB MAE {high_mae:.1f} Hz exceeds {FB_RESOLUTION_HZ} Hz")
    lat = latency_summary(latencies)
    accuracy = {
        "core.fb_mae_hz": float(np.nanmean(fb_errors)),
        "core.onset_mae_us": float(np.mean(np.abs(timestamps - true_onsets)) * 1e6),
        "fb_mae_high_snr_hz": high_mae,
    }
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "throughput_per_s": rate(sizes, latencies),
            "lat_p50_ms": lat["p50_ms"],
            "lat_p99_ms": lat["p99_ms"],
        },
        "latency": lat,
        "work": sizes,
        "latencies_s": latencies,
        "attempted": len(fbs),
        "failed": missing + nondeterministic + mismatched + int(not accurate),
        "failures": failures,
        "outputs": {"first": first},
        "detail": {
            "setups_s": setups,
            "accuracy": accuracy,
            "calls": len(latencies),
            "rounds": position // round_len,
        },
    }


def _spot_check(inputs: dict, batches, first) -> int:
    """Compare picked captures with the single-capture detect/estimate APIs."""
    mismatched = 0
    chains = {}
    for index, row in inputs["picks"]:
        sf = inputs["pool"][index]["sf"]
        chain = chains.setdefault(sf, _chain(sf))
        trace = batches[index].trace(row)
        onset = chain.onset_detector.detect(trace, component="i")
        start = onset.index + chain.fb_chirp_offset * chain.config.samples_per_chirp
        chirp = trace.samples[start : start + chain.config.samples_per_chirp]
        estimate = chain.fb_estimator.estimate(chirp)
        timestamps, fbs = first[index]
        if onset.time_s != timestamps[row] or estimate.fb_hz != fbs[row]:
            mismatched += 1
    return mismatched


def same_outputs(a: dict, b: dict) -> bool:
    """Traced and untraced runs produced identical per-batch outputs."""
    return a["first"].keys() == b["first"].keys() and all(
        np.array_equal(x, y, equal_nan=True)
        for key in a["first"]
        for x, y in zip(a["first"][key], b["first"][key])
    )


def ledger(result: dict, tracer) -> dict:
    """Per-layer metrics from a traced run's spans."""
    captures = max(1, sum(result["work"]))
    run_total = tracer.total("pipeline.run")
    onset = tracer.total("core.aic_curve_batch")
    fb = tracer.total("core.estimate_batch")
    return {
        "core.onset_us_per_capture": onset * 1e6 / captures,
        "core.fb_us_per_capture": fb * 1e6 / captures,
        "pipeline.overhead_share": (run_total - onset - fb) / run_total,
        **{k: v for k, v in result["detail"]["accuracy"].items() if k.startswith("core.")},
    }
