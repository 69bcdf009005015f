"""Intra-kernel thread count, kept for run provenance.

The columnar kernels -- the device x site power matrix build and the
per-window collision clusters -- run serially in the calling thread.
Benchmark records report the thread count they ran with through the
one function here.
"""

from __future__ import annotations


def intra_thread_count() -> int:
    """Threads the columnar kernels run on: always 1 (serial).

    Returns:
        1.
    """
    return 1
