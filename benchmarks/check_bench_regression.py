#!/usr/bin/env python3
"""Benchmark regression gate over a recorded speedup ratio or rate.

Compares a freshly generated bench artifact (e.g. ``BENCH_pipeline.json``
written by ``benchmarks/test_pipeline_throughput.py``) against a baseline
copy of the committed one and fails when the gated value regresses by
more than the tolerance.  ``--metric`` selects the value by dot-path
(default the top-level ``speedup``; the pipeline bench gates
``batched_path.captures_per_second``, the runtime bench
``runtime.events_per_s``, the service bench ``daemon_verdicts_per_s``).
Speedup ratios are machine-relative, so they compare across CI runners
whose absolute throughput differs from the committed numbers; absolute
rates jitter more and are gated with a wider tolerance.

``--direction`` picks the improvement sense: ``max`` (default) gates a
higher-is-better ratio and fails when the fresh value drops below
``baseline * (1 - tolerance)``; ``min`` gates a lower-is-better cost
(e.g. ``--metric columnar.build_s --direction min``) and fails when the
fresh value climbs above ``baseline * (1 + tolerance)``.

``--match`` names a dot-path that must hold the *same* value in both
reports for the comparison to mean anything (e.g. ``--match
parallel_sweep.n_cpus``: a parallel speedup measured on a 4-core runner
is incomparable to a baseline recorded on 1 core).  On a mismatch the
gate prints ``SKIPPED`` and exits 0 -- an honest skip, not a silent
pass of a meaningless comparison.

All bench artifacts live under ``benchmarks/`` (``--bench-dir``);
relative ``--baseline`` / ``--fresh`` paths resolve against it.

Usage::

    cp benchmarks/BENCH_pipeline.json /tmp/bench_baseline.json  # before the run
    BENCH_RUNTIME_FULL=1 pytest benchmarks/test_pipeline_throughput.py  # rewrites it
    python benchmarks/check_bench_regression.py \
        --baseline /tmp/bench_baseline.json --fresh BENCH_pipeline.json \
        --metric batched_path.captures_per_second

Exit status 0 when the fresh speedup is within tolerance, 1 on
regression (or unusable inputs).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_report(path: Path, label: str) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"bench gate: {label} report {path} does not exist")
    except json.JSONDecodeError as exc:
        sys.exit(f"bench gate: {label} report {path} is not valid JSON: {exc}")


def dot_get(report: dict, dotted: str):
    value = report
    for part in dotted.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(part)
    return value


def load_speedup(path: Path, label: str, metric: str = "speedup") -> float:
    value = dot_get(load_report(path, label), metric)
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
        sys.exit(f"bench gate: {label} report {path} has no usable {metric!r} field")
    return float(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=Path(__file__).resolve().parent,
        help="directory holding the bench artifacts; relative --baseline/"
        "--fresh paths resolve against it (default: benchmarks/)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="copy of the committed BENCH_pipeline.json, taken before the run",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        default=Path("BENCH_pipeline.json"),
        help="artifact written by the just-finished benchmark run",
    )
    parser.add_argument(
        "--metric",
        default="speedup",
        help="dot-path of the gated value inside the report JSON "
        "(default 'speedup'; e.g. 'runtime.events_per_s')",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.20,
        help="allowed fractional speedup regression (default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--direction",
        choices=("max", "min"),
        default="max",
        help="'max' gates a higher-is-better ratio (default); 'min' gates a "
        "lower-is-better cost such as a build time",
    )
    parser.add_argument(
        "--match",
        default=None,
        help="dot-path that must hold the same value in both reports for the "
        "metric to be comparable (e.g. 'parallel_sweep.n_cpus'); on a "
        "mismatch the gate is SKIPPED with exit status 0",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        sys.exit(f"bench gate: tolerance must be in [0, 1), got {args.tolerance}")
    if not args.bench_dir.is_dir():
        sys.exit(f"bench gate: --bench-dir {args.bench_dir} is not a directory")

    if args.match is not None:
        baseline_key = dot_get(load_report(args.bench_dir / args.baseline, "baseline"), args.match)
        fresh_key = dot_get(load_report(args.bench_dir / args.fresh, "fresh"), args.match)
        if baseline_key != fresh_key:
            print(
                f"bench gate: {args.metric} SKIPPED -- {args.match} differs "
                f"(baseline {baseline_key!r}, fresh {fresh_key!r}); the recorded "
                "values are not comparable on this runner"
            )
            return 0

    baseline = load_speedup(args.bench_dir / args.baseline, "baseline", args.metric)
    fresh = load_speedup(args.bench_dir / args.fresh, "fresh", args.metric)
    if args.direction == "max":
        bound = baseline * (1.0 - args.tolerance)
        regressed = fresh < bound
        bound_name = "floor"
    else:
        bound = baseline * (1.0 + args.tolerance)
        regressed = fresh > bound
        bound_name = "ceiling"
    verdict = "REGRESSION" if regressed else "OK"
    print(
        f"bench gate: baseline {args.metric} {baseline:.2f}, fresh {fresh:.2f}, "
        f"{bound_name} {bound:.2f} ({args.tolerance:.0%} tolerance) -> {verdict}"
    )
    if regressed:
        worse = "lost more than" if args.direction == "max" else "grew more than"
        print(
            f"bench gate: {args.metric} {worse} "
            f"{args.tolerance:.0%} of its committed value; see the "
            "benchmark that writes this artifact under benchmarks/"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
