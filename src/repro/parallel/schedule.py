"""Adaptive, deterministic chunk planning for parallel sweeps.

One sweep point is far too fine a unit of work once a pool is warm --
the pickle round-trip dominates sub-second points -- while one chunk
per worker forfeits load balancing when point costs are skewed.  This
module plans *contiguous, cost-balanced* chunks: points are walked in
declaration order and grouped until each chunk carries roughly
``total_cost / (n_workers * chunks_per_worker)`` worth of estimated
work, which keeps several chunks in flight per worker for
work-stealing (``imap_unordered``) without shipping thousands of tiny
tasks.

Chunk composition never touches results: every point carries its own
generator, and the executor reorders completed chunks back into
declaration order -- the plan only shapes wall-clock.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import ConfigurationError

#: Default number of chunks aimed at each worker; >1 enables stealing,
#: too many re-introduces per-task overhead.
DEFAULT_CHUNKS_PER_WORKER = 4


def plan_chunks(
    costs: Sequence[float],
    n_workers: int,
    chunks_per_worker: int = DEFAULT_CHUNKS_PER_WORKER,
) -> list[list[int]]:
    """Group point indices into contiguous, cost-balanced chunks.

    Args:
        costs: Per-point cost estimates (any consistent relative unit;
            negative values are treated as zero).
        n_workers: Worker count the plan feeds.
        chunks_per_worker: Target chunks per worker; more chunks means
            finer work stealing, fewer means less per-task overhead.

    Returns:
        A partition of ``range(len(costs))`` into consecutive index
        lists, in declaration order; every index appears exactly once.

    Raises:
        ConfigurationError: On a non-positive worker count or
            chunks-per-worker target.
    """
    if n_workers < 1:
        raise ConfigurationError(f"need >= 1 worker, got {n_workers}")
    if chunks_per_worker < 1:
        raise ConfigurationError(f"need >= 1 chunk per worker, got {chunks_per_worker}")
    n = len(costs)
    if n == 0:
        return []
    clipped = [max(0.0, float(c)) for c in costs]
    total = sum(clipped)
    n_chunks = n_workers * chunks_per_worker
    if total <= 0.0:
        # No cost signal: fall back to even fixed-size chunks.
        size = max(1, math.ceil(n / n_chunks))
        return [list(range(lo, min(lo + size, n))) for lo in range(0, n, size)]
    target = total / n_chunks
    chunks: list[list[int]] = []
    current: list[int] = []
    acc = 0.0
    for index, cost in enumerate(clipped):
        current.append(index)
        acc += cost
        if acc >= target and index != n - 1:
            chunks.append(current)
            current = []
            acc = 0.0
    if current:
        chunks.append(current)
    return chunks
