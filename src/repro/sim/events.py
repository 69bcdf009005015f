"""The fleet runtime's event calendar.

:class:`TimeWheel` is a bucketed calendar for the columnar engine:
events are pushed as whole numpy arrays, land in ``floor(t/w)``
buckets, and pop out one *window* at a time already time-sorted, so a
million-event phase costs a handful of array operations per window
instead of a million heap pushes.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.errors import SimulationError


class TimeWheel:
    """Bucketed calendar queue popping whole event windows as arrays.

    Events are ``(time_s, item)`` pairs where ``item`` is an integer
    payload (typically a device index).  A push of k events costs one
    ``argsort`` + a few array slices; events land in calendar buckets of
    width ``window_s`` keyed by ``floor(t / window_s)``.  ``pop_window``
    returns the earliest non-empty bucket's events sorted by
    ``(time, push sequence)`` -- the order one global event heap with a
    FIFO tie-break would process them in.

    The bucket directory is a dict; a lazy min-heap of bucket keys finds
    the earliest window without scanning.  Re-pushing into an
    already-popped window (a retry landing in the current window) simply
    re-creates the bucket; stale heap keys are skipped on pop.
    """

    def __init__(self, window_s: float):
        """Create an empty wheel.

        Args:
            window_s: Bucket width in seconds; also the span of one
                popped window.

        Raises:
            SimulationError: If ``window_s`` is not positive.
        """
        if window_s <= 0:
            raise SimulationError(f"window must be positive, got {window_s}")
        self.window_s = float(window_s)
        self._buckets: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}
        self._heap: list[int] = []
        self._sequence = 0
        self._pending = 0

    @property
    def pending(self) -> int:
        """Events pushed but not yet popped."""
        return self._pending

    def window_start_s(self, key: int) -> float:
        """Inclusive start of bucket ``key``'s time span."""
        return key * self.window_s

    def window_end_s(self, key: int) -> float:
        """Exclusive end of bucket ``key``'s time span (the flush boundary)."""
        return (key + 1) * self.window_s

    def push(self, times_s: np.ndarray, items: np.ndarray) -> None:
        """Add a batch of events; arrays must be the same length."""
        times_s = np.asarray(times_s, dtype=float)
        items = np.asarray(items, dtype=np.int64)
        if times_s.shape != items.shape:
            raise SimulationError(
                f"times/items shape mismatch: {times_s.shape} vs {items.shape}"
            )
        if times_s.size == 0:
            return
        sequence = np.arange(self._sequence, self._sequence + times_s.size, dtype=np.int64)
        self._sequence += times_s.size
        keys = np.floor_divide(times_s, self.window_s).astype(np.int64)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        breaks = np.flatnonzero(np.diff(sorted_keys)) + 1
        for chunk in np.split(order, breaks):
            key = int(keys[chunk[0]])
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = bucket = []
                heapq.heappush(self._heap, key)
            bucket.append((times_s[chunk], sequence[chunk], items[chunk]))
        self._pending += times_s.size

    def reserve_sequence(self) -> int:
        """Mint the next push-sequence number without pushing an event.

        Lets a caller interleave its own dynamically scheduled work (a
        duty-cycle retry landing inside the window being processed) with
        wheel events on the exact ``(time, sequence)`` order a shared
        heap would produce.
        """
        sequence = self._sequence
        self._sequence += 1
        return sequence

    def peek_time_s(self) -> float | None:
        """Earliest pending event time, or ``None`` when empty."""
        while self._heap:
            key = self._heap[0]
            bucket = self._buckets.get(key)
            if bucket is None:
                heapq.heappop(self._heap)  # stale key from a re-created bucket
                continue
            return float(min(chunk[0].min() for chunk in bucket))
        return None

    def pop_window(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray] | None:
        """Pop the earliest window: ``(key, times, sequences, items)``.

        Events come back sorted by time with ties broken by push order
        (FIFO among equal times); the sequence
        column lets the caller merge its own mid-window insertions on
        the same total order.  Returns ``None`` when the wheel is empty.
        """
        while self._heap:
            key = heapq.heappop(self._heap)
            bucket = self._buckets.pop(key, None)
            if bucket is not None:
                break
        else:
            return None
        if len(bucket) == 1:
            times_s, sequence, items = bucket[0]
        else:
            times_s = np.concatenate([chunk[0] for chunk in bucket])
            sequence = np.concatenate([chunk[1] for chunk in bucket])
            items = np.concatenate([chunk[2] for chunk in bucket])
        order = np.lexsort((sequence, times_s))
        self._pending -= times_s.size
        return key, times_s[order], sequence[order], items[order]
