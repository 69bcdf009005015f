"""Bounded write-through LRU hot-cache over any durable FB store.

The replay hot path touches a node's history twice per verdict
(``interval``, then ``record`` on accept); against a file-backed store
that is two round trips for state that almost never leaves a small
working set.  :class:`LruCachedStore` keeps the most recently touched
``max_nodes`` node histories in memory as bounded deques (exactly the
:class:`~repro.core.detector.FbDatabase` representation) and serves
interval/count/estimate reads from them, while every ``record`` and
``record_many`` is **written through** to the backing store before the
cache is updated -- the cache can always be dropped (or the process
killed) without losing an accepted estimate.  A ``batch`` that rolls
back drops the hot copies, so the cache never keeps rolled-back writes.

Hit/miss/eviction counters feed the daemon's ``/metrics`` store series.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.detector import FbInterval, FbStore
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CacheStats:
    """One snapshot of the cache's effectiveness counters.

    Attributes:
        hits: Node lookups served from the in-memory history.
        misses: Node lookups that loaded the history from the backing
            store first.
        evictions: Cached node histories dropped to respect
            ``max_nodes``.
        cached_nodes: Node histories currently held in memory.
    """

    hits: int
    misses: int
    evictions: int
    cached_nodes: int

    @property
    def hit_rate(self) -> float:
        """Hits over all lookups (0.0 before any traffic)."""
        total = self.hits + self.misses
        return 0.0 if total == 0 else self.hits / total

    def as_dict(self) -> dict:
        """JSON-safe form for bench artifacts and the control plane."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "cached_nodes": self.cached_nodes,
            "hit_rate": self.hit_rate,
        }


class LruCachedStore:
    """Write-through LRU cache in front of a backing FB store.

    Attributes:
        backing: The durable store of record.
        max_nodes: Most-recently-used node histories kept in memory.
        history_len: Mirrored from the backing store.
    """

    def __init__(self, backing: FbStore, max_nodes: int = 4096):
        """Wrap a backing store with a bounded node-history cache.

        Args:
            backing: Any :class:`~repro.core.detector.FbStore`; must
                expose ``history_len`` so cached deques evict exactly
                like the backing rows prune.
            max_nodes: How many node histories stay hot.
        """
        if max_nodes < 1:
            raise ConfigurationError(f"cache must hold >= 1 node, got {max_nodes}")
        self.backing = backing
        self.max_nodes = max_nodes
        self.history_len = int(getattr(backing, "history_len", 50))
        self._cache: OrderedDict[str, deque[tuple[float, float]]] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- cache mechanics --------------------------------------------------------

    def _entry(self, node_id: str) -> deque[tuple[float, float]]:
        """The node's hot history, loading it from the backing on a miss."""
        entry = self._cache.get(node_id)
        if entry is not None:
            self._hits += 1
            self._cache.move_to_end(node_id)
            return entry
        self._misses += 1
        entry = deque(self.backing.history(node_id), maxlen=self.history_len)
        self._cache[node_id] = entry
        while len(self._cache) > self.max_nodes:
            self._cache.popitem(last=False)
            self._evictions += 1
        return entry

    def invalidate(self) -> None:
        """Drop every hot copy (e.g. after a rolled-back batch).

        The cache applies writes optimistically inside :meth:`batch`;
        if the surrounding transaction rolls back, the backing store
        forgets the window but the hot copies would not -- dropping
        them forces clean reloads from the store of record.
        """
        self._cache.clear()

    def stats(self) -> CacheStats:
        """Current hit/miss/eviction counters."""
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            cached_nodes=len(self._cache),
        )

    # -- FbStore interface ------------------------------------------------------

    def record(self, node_id: str, fb_hz: float, time_s: float = 0.0) -> None:
        """Write through to the backing store, then update the hot copy."""
        entry = self._entry(node_id)
        self.backing.record(node_id, fb_hz, time_s)
        entry.append((float(time_s), float(fb_hz)))

    def record_many(self, node_id: str, history: Iterable[tuple[float, float]]) -> None:
        """Write a whole history through; extend the hot copy if cached.

        A bulk load (profile bootstrap) does not pull the node into the
        cache, so booting a large registry neither reads every history
        back nor evicts the working set.
        """
        pairs = [(float(time_s), float(fb_hz)) for time_s, fb_hz in history]
        self.backing.record_many(node_id, pairs)
        entry = self._cache.get(node_id)
        if entry is not None:
            entry.extend(pairs)

    def sample_count(self, node_id: str) -> int:
        """Recorded estimates for one node (served from the hot copy)."""
        return len(self._entry(node_id))

    def estimates(self, node_id: str) -> list[float]:
        """The node's recorded FB values, oldest first."""
        return [fb for _, fb in self._entry(node_id)]

    def history(self, node_id: str) -> list[tuple[float, float]]:
        """The node's recorded ``(time_s, fb_hz)`` pairs, oldest first."""
        return list(self._entry(node_id))

    def interval(self, node_id: str, guard_hz: float) -> FbInterval | None:
        """[min - guard, max + guard] over the node's recorded history."""
        values = [fb for _, fb in self._entry(node_id)]
        if not values:
            return None
        return FbInterval(
            low_hz=min(values) - guard_hz,
            high_hz=max(values) + guard_hz,
            samples=len(values),
        )

    def known_nodes(self) -> list[str]:
        """Every tracked node id (from the backing store of record)."""
        return self.backing.known_nodes()

    def node_count(self) -> int:
        """Total tracked nodes (from the backing store of record)."""
        return self.backing.node_count()

    def forget(self, node_id: str) -> None:
        """Drop one node's history from the backing store and the cache."""
        self.backing.forget(node_id)
        self._cache.pop(node_id, None)

    # -- durability passthrough -------------------------------------------------

    @contextmanager
    def batch(self) -> Iterator["LruCachedStore"]:
        """Delegate transactional batching to the backing store.

        A backing store without transactions (the in-memory databases)
        gets a no-op context: every record is immediately final there,
        so "commit at window close" is trivially true.  An exception
        rolls the backing batch back and drops every hot copy
        (:meth:`invalidate`), so later reads reload the committed state.
        """
        batch = getattr(self.backing, "batch", None)
        with nullcontext() if batch is None else batch():
            try:
                yield self
            except BaseException:
                self.invalidate()
                raise

    def flush(self) -> None:
        """Flush the backing store (the cache itself is write-through)."""
        flush = getattr(self.backing, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        """Drop the cache and close the backing store."""
        self._cache.clear()
        close = getattr(self.backing, "close", None)
        if close is not None:
            close()

    def __repr__(self) -> str:
        """Backing store and bound, for operator logs."""
        return f"LruCachedStore(backing={self.backing!r}, max_nodes={self.max_nodes})"
