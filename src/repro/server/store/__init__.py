"""Pluggable persistence for per-device FB histories.

Every backend here implements the same
:class:`repro.core.detector.FbStore` protocol the in-memory
:class:`~repro.core.detector.FbDatabase` defines, so a
:class:`~repro.core.detector.ReplayDetector` (and therefore a
:class:`~repro.server.NetworkServer`) takes any of them unchanged --
the persistence layer is protocol-only and verdict-bitwise-equal to
the in-memory reference, including across a crash and restart:

* :class:`~repro.server.store.sqlite.SqliteFbStore` -- one WAL-mode
  SQLite file; dedup windows commit in one transaction;
* :class:`~repro.server.store.cache.LruCachedStore` -- bounded
  write-through hot-cache with hit/miss/eviction counters.

:func:`open_store` turns an operator-facing spec string (the daemon's
``--store`` flag) into a configured store.  The backend matrix and
durability contract live in ``docs/store.md``.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.core.detector import FbDatabase, FbStore
from repro.errors import ConfigurationError
from repro.server.store.cache import CacheStats, LruCachedStore
from repro.server.store.sqlite import SqliteFbStore

__all__ = [
    "CacheStats",
    "LruCachedStore",
    "SqliteFbStore",
    "open_store",
    "store_batch",
    "store_stats",
]

#: Default file name when a ``sqlite`` spec omits the path.
_DEFAULT_PATH = "fb_store.sqlite"


def _parse_options(query: str, spec: str) -> dict[str, int]:
    """``cache=N&history=N`` -> validated int options."""
    options: dict[str, int] = {}
    if not query:
        return options
    for pair in query.split("&"):
        name, sep, value = pair.partition("=")
        if not sep or name not in ("cache", "history"):
            raise ConfigurationError(
                f"bad store option {pair!r} in spec {spec!r}; expected cache=N or history=N"
            )
        try:
            options[name] = int(value)
        except ValueError:
            raise ConfigurationError(
                f"store option {name!r} in spec {spec!r} must be an integer, "
                f"got {value!r}"
            ) from None
    return options


def open_store(spec: str, history_len: int = 50) -> FbStore:
    """Build an FB store from an operator spec string.

    The grammar is ``backend[:path][?option=value&...]``:

    * ``memory`` -- the in-memory :class:`FbDatabase` (dies with the
      process; the pre-persistence default);
    * ``sqlite:PATH`` -- one durable WAL SQLite file (``sqlite:`` alone
      uses ``fb_store.sqlite`` in the working directory).

    ``sqlite`` takes ``?cache=N`` to wrap it in an
    :class:`LruCachedStore` holding ``N`` hot node histories; ``memory``
    refuses it, since the cache would be a second in-memory copy.
    Either backend takes ``?history=N`` to override ``history_len``.

    Args:
        spec: The spec string, e.g. ``"sqlite:/var/lib/repro/fb.sqlite?cache=4096"``.
        history_len: Per-node history depth when the spec does not
            carry ``?history=N``.

    Returns:
        A configured store satisfying :class:`FbStore`.

    Raises:
        ConfigurationError: On an unknown backend, a malformed option,
            or ``cache`` on ``memory``.
    """
    backend, sep, rest = spec.partition(":")
    if not sep and "?" in backend:
        backend, _, rest = spec.partition("?")
        rest = "?" + rest
    if backend not in ("memory", "sqlite"):
        raise ConfigurationError(
            f"unknown store backend {backend!r} in spec {spec!r}; expected one of memory, sqlite"
        )
    path, query = (rest.split("?", 1) + [""])[:2] if "?" in rest else (rest, "")
    options = _parse_options(query, spec)
    history = options.get("history", history_len)
    cache = options.get("cache", 0)

    store: FbStore
    if backend == "memory":
        if "cache" in options:
            raise ConfigurationError(
                f"store option 'cache' in spec {spec!r} only applies to sqlite; "
                "the memory backend already holds every history in memory"
            )
        store = FbDatabase(history_len=history)
    else:
        store = SqliteFbStore(path or _DEFAULT_PATH, history_len=history)
    if cache:
        store = LruCachedStore(store, max_nodes=cache)
    return store


def store_batch(store: FbStore):
    """A dedup-window transaction on any store (no-op when unsupported).

    The daemon wraps every ``process_step`` call in this, so durable
    backends commit a whole window's verdicts atomically while the
    in-memory database -- which has no transactions to speak of --
    costs nothing.
    """
    batch = getattr(store, "batch", None)
    if callable(batch):
        return batch()
    return nullcontext(store)


def store_stats(store: FbStore) -> dict:
    """JSON-safe operational snapshot of any store (the /metrics feed).

    Always reports ``node_count`` and the store's type name; adds the
    LRU cache counters when the store (or, for a cached store, its
    write-through wrapper) exposes them.
    """
    stats: dict = {"backend": type(store).__name__, "node_count": store.node_count()}
    cache = getattr(store, "stats", None)
    if callable(cache):
        stats["cache"] = cache().as_dict()
    return stats
