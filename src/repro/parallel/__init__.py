"""Reusable parallel-execution layer: pools, scheduling, intra-kernel threads.

Everything the sweep machinery (and any future fan-out workload) needs
to saturate real cores lives here, decoupled from the experiment
drivers:

* :mod:`repro.parallel.pool` -- persistent ``spawn`` process pools with
  warm imports, shared across runs (:class:`WorkerPool`,
  :func:`default_pool`, :func:`shutdown_default_pools`);
* :mod:`repro.parallel.schedule` -- deterministic cost-balanced chunk
  planning for work-stealing dispatch (:func:`plan_chunks`);
* :mod:`repro.parallel.intra` -- intra-process thread parallelism for
  the GIL-releasing columnar kernels (:func:`thread_map`,
  :func:`intra_thread_count`, :func:`set_intra_threads`).

Every primitive keeps the repo's pinned guarantee: worker count,
chunking, and thread count change wall-clock only -- never a single
result bit.
"""

from repro.parallel.intra import (
    INTRA_THREADS_ENV,
    intra_thread_count,
    set_intra_threads,
    thread_map,
)
from repro.parallel.pool import (
    WorkerPool,
    default_pool,
    shutdown_default_pools,
)
from repro.parallel.schedule import DEFAULT_CHUNKS_PER_WORKER, plan_chunks

__all__ = [
    "DEFAULT_CHUNKS_PER_WORKER",
    "INTRA_THREADS_ENV",
    "WorkerPool",
    "default_pool",
    "intra_thread_count",
    "plan_chunks",
    "set_intra_threads",
    "shutdown_default_pools",
    "thread_map",
]
