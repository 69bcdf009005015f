"""Order statistics and digests shared by the workloads.

Latencies are reported as a median plus a tail percentile chosen by the
"ten samples beyond it" rule; throughput is total work over total time
of a fixed number of work units.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Sequence


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of ``values``.

    Args:
        values: At least one sample.
        pct: Percentile in ``(0, 100]``.

    Returns:
        The sample at rank ``ceil(pct / 100 * n)`` of the sorted values.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(n: int) -> float:
    """The highest percentile that leaves at least ten samples beyond it.

    With ``n`` samples, the nearest-rank ``p`` percentile leaves
    ``n - ceil(p n / 100)`` samples above it; ``p = 100 (n - 10) / n``
    is the largest with ten.  Runs of 1000 or more samples report the
    99th percentile, as the rule allows it there.

    Args:
        n: Sample count.

    Returns:
        The percentile, or 0.0 when ``n <= 10`` (no percentile qualifies).
    """
    if n <= 10:
        return 0.0
    return min(99.0, 100.0 * (n - 10) / n)


def latency_summary(seconds: Sequence[float]) -> dict:
    """Median, 99th percentile and the supported tail of latency samples.

    Args:
        seconds: Latency samples in seconds.

    Returns:
        ``p50_ms``, ``p99_ms`` (nearest rank), ``tail_pct`` and
        ``tail_ms`` (the percentile with ten samples beyond it) and the
        sample count ``n``.
    """
    ms = [s * 1e3 for s in seconds]
    tail_pct = supported_percentile(len(ms))
    return {
        "n": len(ms),
        "p50_ms": statistics.median(ms),
        "p99_ms": nearest_rank(ms, 99.0),
        "tail_pct": tail_pct,
        "tail_ms": nearest_rank(ms, tail_pct) if tail_pct else None,
    }


def units(seconds: float, per_second: float, available: int, minimum: int = 1) -> int:
    """Work units a run of ``seconds`` performs: a fixed count, not a deadline.

    Every run with the same ``seconds`` does the same units in the same
    order, so a slow host makes the run longer but never changes what
    was measured.  ``per_second`` is the nominal rate that makes the run
    last about ``seconds`` on the two-core reference host.

    Args:
        seconds: The requested run length.
        per_second: Nominal units per second.
        available: Units the inputs hold.
        minimum: Fewest units a run performs.

    Returns:
        ``round(seconds * per_second)``, clamped to ``[minimum, available]``.
    """
    return max(minimum, min(available, round(seconds * per_second)))


def rate(work: Sequence[float], seconds: Sequence[float]) -> float:
    """Total work over total time: the run's throughput, in work per second."""
    return sum(work) / sum(seconds)


def digest(obj) -> str:
    """SHA-256 of a canonical JSON (or raw-bytes) rendering of ``obj``."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, (bytes, bytearray, memoryview)):
        h.update(b"b%d:" % len(obj))
        h.update(obj)
    elif hasattr(obj, "tobytes") and hasattr(obj, "dtype"):
        h.update(f"a{obj.dtype.str}{obj.shape}:".encode())
        h.update(obj.tobytes())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    else:
        h.update(json.dumps(obj).encode())
        h.update(b";")
