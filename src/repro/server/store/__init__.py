"""Pluggable persistence for per-device FB histories.

Every backend here implements the same
:class:`repro.core.detector.FbStore` protocol the in-memory
:class:`~repro.core.detector.FbDatabase` defines, so a
:class:`~repro.core.detector.ReplayDetector` (and therefore a
:class:`~repro.server.NetworkServer`) takes any of them unchanged --
the persistence layer is protocol-only and verdict-bitwise-equal to
the in-memory reference, including across a crash and restart.  The
durable backend is :class:`~repro.server.store.sqlite.SqliteFbStore`:
one WAL-mode SQLite file whose dedup windows commit in one
transaction.

:func:`open_store` turns an operator-facing spec string (the daemon's
``--store`` flag) into a configured store.  The backend matrix and
durability contract live in ``docs/store.md``.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.core.detector import FbDatabase, FbStore
from repro.errors import ConfigurationError
from repro.server.store.sqlite import SqliteFbStore

__all__ = [
    "SqliteFbStore",
    "open_store",
    "store_batch",
    "store_stats",
]

#: Default file name when a ``sqlite`` spec omits the path.
_DEFAULT_PATH = "fb_store.sqlite"


def _parse_options(query: str, spec: str) -> dict[str, int]:
    """``history=N`` -> validated int options, each given at most once."""
    options: dict[str, int] = {}
    if not query:
        return options
    for pair in query.split("&"):
        name, sep, value = pair.partition("=")
        if not sep or name != "history":
            raise ConfigurationError(
                f"bad store option {pair!r} in spec {spec!r}; expected history=N"
            )
        if name in options:
            raise ConfigurationError(f"store option {name!r} repeated in spec {spec!r}")
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

    The grammar is ``backend[:path][?history=N]``:

    * ``memory`` -- the in-memory :class:`FbDatabase` (dies with the
      process; the pre-persistence default); it takes no path;
    * ``sqlite:PATH`` -- one durable WAL SQLite file (``sqlite:`` alone
      uses ``fb_store.sqlite`` in the working directory).

    Either backend takes ``?history=N`` to override ``history_len``.

    Args:
        spec: The spec string, e.g. ``"sqlite:/var/lib/repro/fb.sqlite?history=50"``.
        history_len: Per-node history depth when the spec does not
            carry ``?history=N``.

    Returns:
        A configured store satisfying :class:`FbStore`.

    Raises:
        ConfigurationError: On an unknown backend, a path on ``memory``,
            or a malformed, unknown or repeated option.
    """
    head, _, query = spec.partition("?")
    backend, _, path = head.partition(":")
    if backend not in ("memory", "sqlite"):
        raise ConfigurationError(
            f"unknown store backend {backend!r} in spec {spec!r}; expected one of memory, sqlite"
        )
    history = _parse_options(query, spec).get("history", history_len)
    if backend == "sqlite":
        return SqliteFbStore(path or _DEFAULT_PATH, history_len=history)
    if path:
        raise ConfigurationError(
            f"store spec {spec!r} gives a path to the memory backend, which keeps "
            "nothing on disk; use sqlite:PATH for a durable store"
        )
    return FbDatabase(history_len=history)


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

    Reports the store's type name and ``node_count``.
    """
    return {"backend": type(store).__name__, "node_count": store.node_count()}
