"""Run provenance for the columnar kernels' threading.

:func:`intra_thread_count` reports the thread count the columnar
kernels run on, for benchmark records.  Sweeps fan out over processes
in :class:`repro.experiments.common.SweepExecutor`.
"""

from repro.parallel.intra import intra_thread_count

__all__ = ["intra_thread_count"]
