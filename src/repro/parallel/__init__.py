"""Reusable parallel-execution layer: process pools and chunk scheduling.

Everything the sweep machinery (and any future fan-out workload) needs
to saturate real cores lives here, decoupled from the experiment
drivers:

* :mod:`repro.parallel.pool` -- persistent ``spawn`` process pools with
  warm imports, shared across runs (:class:`WorkerPool`,
  :func:`default_pool`, :func:`shutdown_default_pools`);
* :mod:`repro.parallel.schedule` -- deterministic cost-balanced chunk
  planning for work-stealing dispatch (:func:`plan_chunks`);
* :mod:`repro.parallel.intra` -- :func:`intra_thread_count`, the
  columnar kernels' thread count (always 1) for run provenance.

Every primitive keeps the repo's pinned guarantee: worker count and
chunking change wall-clock only -- never a single result bit.
"""

from repro.parallel.intra import intra_thread_count
from repro.parallel.pool import (
    WorkerPool,
    default_pool,
    shutdown_default_pools,
)
from repro.parallel.schedule import DEFAULT_CHUNKS_PER_WORKER, plan_chunks

__all__ = [
    "DEFAULT_CHUNKS_PER_WORKER",
    "WorkerPool",
    "default_pool",
    "intra_thread_count",
    "plan_chunks",
    "shutdown_default_pools",
]
