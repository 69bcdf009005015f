"""Input generation, run in its own process by ``run.py``.

``python3 -m perfbench.gen --workload W --seed N --out PATH`` writes the
workload's inputs for one seed as a pickle.  Generating in a separate
process keeps the generator's objects and peak memory out of the
measured process.
"""

from __future__ import annotations

import argparse
import importlib
import os
import pickle
import sys

from perfbench import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    """Generate one (workload, seed) input file atomically."""
    parser = argparse.ArgumentParser(prog="perfbench.gen")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    inputs = importlib.import_module(WORKLOADS[args.workload]).generate(args.seed)
    partial = f"{args.out}.{os.getpid()}.tmp"
    with open(partial, "wb") as handle:
        pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(partial, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
