"""The measured process: load one input file, run one workload, report.

``run.py`` starts this module with native thread pools pinned to one
thread, a fixed hash seed and no ``REPRO_*`` overrides, so every run
sees the program's defaults.  The inputs were generated by another
process; after loading them the garbage collector is run once and the
loaded objects are frozen, so collection cost tracks the program's own
allocations.

An untraced run reports the end-to-end metrics.  A traced run measures
the workload twice, untraced and then with spans around each layer's
public calls, checks that both produced the same outputs, and reports
the per-layer ledger together with the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench import WORKLOADS
from perfbench.trace import Tracer

#: Iterations of the fixed pure-Python reference loop.
REF_LOOP_N = 300_000
#: Environment that ``run.py`` pins for the measured process.
PINNED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")


def ref_loop_ms(repeats: int = 5) -> float:
    """Median wall time of a fixed pure-Python loop: the host's own speed."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(REF_LOOP_N):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def provenance(root: Path) -> dict:
    """Where and on what the run happened."""
    import numpy
    import scipy

    from repro.parallel.intra import intra_thread_count

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "env": {name: os.environ.get(name) for name in PINNED_ENV},
        "repro_intra_threads": intra_thread_count(),
    }


def _metrics(specs: list[dict], values: dict) -> dict:
    """``{name: {value, unit}}`` for every listed metric (0.0 when not measured)."""
    return {
        spec["name"]: {"value": float(values.get(spec["name"], 0.0)), "unit": spec["unit"]}
        for spec in specs
    }


def main(argv: list[str] | None = None) -> int:
    """Run one measurement and print its result as the last stdout line."""
    parser = argparse.ArgumentParser(prog="perfbench.measure")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    config = json.loads((root / "BENCHMARK.json").read_text())
    module = importlib.import_module(WORKLOADS[args.workload])
    workdir = root / ".perfbench" / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, root, config, module, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, root: Path, config: dict, module, workdir: Path) -> int:
    with open(args.inputs, "rb") as handle:
        inputs = pickle.load(handle)
    gc.collect()
    gc.freeze()
    host_before = ref_loop_ms()

    spans, parity = None, True
    if args.trace == 0:
        result = module.run(inputs, args.seconds, None, workdir)
        values = dict(result["metrics"])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = _metrics(config["end_to_end"], values)
        runs = [result]
        failures = list(result["failures"])
    else:
        plain = module.run(inputs, args.seconds / 2, None, workdir)
        tracer = Tracer()
        traced = module.run(inputs, args.seconds / 2, tracer, workdir)
        values = module.ledger(traced, tracer)
        values["trace.overhead_share"] = (
            1.0 - traced["metrics"]["throughput_per_s"] / plain["metrics"]["throughput_per_s"]
        )
        metrics = _metrics(config["per_layer"], values)
        runs = [plain, traced]
        failures = plain["failures"] + traced["failures"]
        parity = module.same_outputs(plain["outputs"], traced["outputs"])
        if not parity:
            failures.append("traced outputs differ from untraced outputs")
        spans = {
            "self_s": tracer.self_times(),
            "spans": [[s.name, s.start, s.end, s.parent, s.request] for s in tracer.spans],
        }
    failed = sum(r["failed"] for r in runs) + int(not parity)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "digests": inputs["digests"],
        "inputs": inputs["size"],
        "provenance": provenance(root),
        "host.ref_loop_ms": [host_before, ref_loop_ms()],
        "values": values,
        "latency": [r["latency"] for r in runs],
        "detail": [r["detail"] for r in runs],
        "failures": failures,
    }
    Path(args.report).parent.mkdir(parents=True, exist_ok=True)
    with open(args.report, "w") as handle:
        series = [{"seconds": r["latencies_s"], "work": r["work"]} for r in runs]
        json.dump({**report, "series": series, "trace_spans": spans}, handle)
    print("perfbench report:", json.dumps(report, default=str))
    result_line = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result_line))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
