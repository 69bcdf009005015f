"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Generates the workload's inputs for
the seed in a separate process (once; they are reused from
``.perfbench/inputs``), then measures in a fresh process with native
thread pools pinned to one thread, ``PYTHONHASHSEED=0`` and every
``REPRO_*`` knob at its default.  The measured process prints a report
line and, as the last line, the result object; the exit code is
non-zero when any output check failed or the program is missing.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Every run, including input generation, ends within this many seconds.
DEADLINE_S = 170.0


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def main(argv: list[str] | None = None) -> int:
    """Generate inputs if needed, then run the measured process."""
    begin = time.monotonic()
    sys.path.insert(0, str(ROOT))
    from perfbench import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _env()
    cache = ROOT / ".perfbench" / "inputs"
    cache.mkdir(parents=True, exist_ok=True)
    inputs = cache / f"{args.workload}-{args.seed}.pkl"
    report = ROOT / ".perfbench" / "reports" / f"{args.workload}-{args.seed}-t{args.trace}.json"
    common = ["--workload", args.workload]
    steps = []
    if not inputs.is_file():
        steps.append(["perfbench.gen", *common, "--seed", str(args.seed), "--out", str(inputs)])
    measure = ["perfbench.measure", *common, "--inputs", str(inputs), "--report", str(report)]
    steps.append([*measure, "--seconds", str(args.seconds), "--trace", str(args.trace)])
    for index, step in enumerate(steps):
        last = index == len(steps) - 1
        try:
            proc = subprocess.run(
                [sys.executable, "-m", *step],
                cwd=ROOT,
                env=env,
                stdout=None if last else sys.stderr,
                timeout=max(1.0, DEADLINE_S - (time.monotonic() - begin)),
            )
        except subprocess.TimeoutExpired:
            print(f"perfbench: {step[0]} exceeded the deadline", file=sys.stderr)
            return 3
        if proc.returncode != 0:
            return proc.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
