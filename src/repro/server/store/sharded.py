"""CRC32-sharded FB state over per-shard durable store files.

:class:`PersistentShardedFbDatabase` routes each node by a stable CRC32
hash (``zlib.crc32(node_id) % n_shards``) to one of ``n_shards``
:class:`~repro.server.store.sqlite.SqliteFbStore` files inside one
directory.  A ``store_meta.json`` sidecar records the shard count,
history depth, and shard backend (always ``"sqlite"``) so reopening the
directory -- the daemon's reload-on-boot path -- reconstructs exactly
the layout that wrote it; a mismatched explicit shard count or a
sidecar naming any other backend fails loudly instead of silently
routing nodes to the wrong files.

:meth:`PersistentShardedFbDatabase.rebalance` is the offline gateway-
scaling step: it streams every node's ``(time_s, fb_hz)`` history out
of the old shard files (in sorted node order, so the migration is
deterministic byte for byte), rewrites the directory under the new
shard count, and updates the sidecar.  ``known_nodes()`` and every
per-node interval are preserved exactly -- pinned by the property
suite in ``tests/test_store_properties.py``.
"""

from __future__ import annotations

import json
import numbers
import zlib
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.detector import FbInterval
from repro.errors import ConfigurationError
from repro.server.store.sqlite import SqliteFbStore

#: Sidecar file naming the directory's layout.
META_FILE = "store_meta.json"

#: The shard file backend recorded in (and required of) every sidecar.
SHARD_BACKEND = "sqlite"


def _count(name: str, value: object, source: str = "") -> int:
    """``value`` as a layout count: an integer >= 1, never a bool.

    Explicit arguments and values read back from a sidecar pass the same
    check, so a hand-edited ``store_meta.json`` fails here, naming the
    field, rather than later as a modulo by zero or a bad comparison.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        where = f"{source}: " if source else ""
        raise ConfigurationError(f"{where}{name} must be an integer >= 1, got {value!r}")
    return int(value)


class PersistentShardedFbDatabase:
    """CRC32-routed shard files behind the :class:`FbStore` interface.

    Attributes:
        directory: The shard-file directory (created if missing).
        n_shards: Live shard count (from the sidecar when reopening).
        history_len: Bounded per-node history depth.
    """

    def __init__(
        self,
        directory: str | Path,
        n_shards: int | None = None,
        history_len: int = 50,
    ):
        """Open (creating or reloading) a sharded store directory.

        Args:
            directory: Where the shard files and sidecar live.
            n_shards: Shard count for a *new* directory (default 16).
                Reopening an existing directory takes the count from
                the sidecar; passing a different explicit count raises
                (use :meth:`rebalance` to change the layout).
            history_len: Per-node history depth for a new directory.

        Raises:
            ConfigurationError: On a shard count or history depth that
                is not an integer >= 1 (passed in or read back from the
                sidecar), an explicit shard count that disagrees with the
                sidecar, or a sidecar naming a shard backend other than
                SQLite.
        """
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        meta_path = self.directory / META_FILE
        if n_shards is not None:
            n_shards = _count("n_shards", n_shards)
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text())
            except json.JSONDecodeError:
                meta = None  # refused below, with every other non-object
            if not isinstance(meta, dict):
                raise ConfigurationError(
                    f"store at {self.directory}: {META_FILE} must hold a JSON object"
                )
            if meta.get("backend") != SHARD_BACKEND:
                raise ConfigurationError(
                    f"store at {self.directory} holds {meta.get('backend')!r} shards; "
                    f"only {SHARD_BACKEND!r} shard files are supported"
                )
            source = f"store at {self.directory}: {META_FILE}"
            stored_shards = _count("n_shards", meta.get("n_shards"), source)
            if n_shards is not None and n_shards != stored_shards:
                raise ConfigurationError(
                    f"store at {self.directory} has {stored_shards} shards; "
                    f"asked for {n_shards} -- run rebalance({n_shards}) instead"
                )
            self.n_shards = stored_shards
            self.history_len = _count("history_len", meta.get("history_len"), source)
        else:
            self.n_shards = 16 if n_shards is None else n_shards
            self.history_len = _count("history_len", history_len)
            self._write_meta()
        self._shards = self._open_shards()

    def _open_shards(self) -> list[SqliteFbStore]:
        return [
            SqliteFbStore(self._shard_path(i), history_len=self.history_len)
            for i in range(self.n_shards)
        ]

    def _write_meta(self) -> None:
        meta = {
            "n_shards": self.n_shards,
            "history_len": self.history_len,
            "backend": SHARD_BACKEND,
        }
        (self.directory / META_FILE).write_text(json.dumps(meta, indent=2) + "\n")

    def _shard_path(self, index: int) -> Path:
        return self.directory / f"shard-{index:04d}.sqlite"

    # -- routing ------------------------------------------------------------------

    def shard_index(self, node_id: str) -> int:
        """Stable shard routing: CRC32 of the node id, modulo the count."""
        return zlib.crc32(node_id.encode()) % self.n_shards

    def shard_for(self, node_id: str) -> SqliteFbStore:
        """The shard store owning a node's entire FB history."""
        return self._shards[self.shard_index(node_id)]

    # -- FbStore interface, delegated to the owning shard -----------------------

    def record(self, node_id: str, fb_hz: float, time_s: float = 0.0) -> None:
        """Store an accepted FB estimate in the node's shard."""
        self.shard_for(node_id).record(node_id, fb_hz, time_s)

    def record_many(self, node_id: str, history: Iterable[tuple[float, float]]) -> None:
        """Store ``(time_s, fb_hz)`` pairs in order in the node's shard."""
        self.shard_for(node_id).record_many(node_id, history)

    def sample_count(self, node_id: str) -> int:
        """Recorded estimates for one node."""
        return self.shard_for(node_id).sample_count(node_id)

    def estimates(self, node_id: str) -> list[float]:
        """The node's recorded FB values, oldest first."""
        return self.shard_for(node_id).estimates(node_id)

    def history(self, node_id: str) -> list[tuple[float, float]]:
        """The node's recorded ``(time_s, fb_hz)`` pairs, oldest first."""
        return self.shard_for(node_id).history(node_id)

    def interval(self, node_id: str, guard_hz: float) -> FbInterval | None:
        """The node's guarded acceptance interval (``None`` if unknown)."""
        return self.shard_for(node_id).interval(node_id, guard_hz)

    def forget(self, node_id: str) -> None:
        """Drop one node's history from its shard."""
        self.shard_for(node_id).forget(node_id)

    def known_nodes(self) -> list[str]:
        """Every tracked node id, across all shards, sorted."""
        return sorted(node for shard in self._shards for node in shard.known_nodes())

    def node_count(self) -> int:
        """Total tracked nodes across all shards."""
        return sum(shard.node_count() for shard in self._shards)

    def shard_sizes(self) -> list[int]:
        """Tracked-node count per shard (the balance diagnostic)."""
        return [shard.node_count() for shard in self._shards]

    # -- transactions / durability ----------------------------------------------

    @contextmanager
    def batch(self) -> Iterator["PersistentShardedFbDatabase"]:
        """One transaction per shard around a whole dedup window.

        Each shard commits independently (a node's history lives wholly
        inside one shard, so per-shard atomicity is per-node atomicity);
        an exception rolls back every still-open shard transaction.
        """
        with ExitStack() as stack:
            for shard in self._shards:
                stack.enter_context(shard.batch())
            yield self

    def flush(self) -> None:
        """Flush every shard store."""
        for shard in self._shards:
            shard.flush()

    def close(self) -> None:
        """Close every shard store (idempotent)."""
        for shard in self._shards:
            shard.close()
        self._shards = []

    # -- offline rebalancing ----------------------------------------------------

    def rebalance(self, n_shards: int) -> None:
        """Migrate the directory to a new shard count, deterministically.

        The offline procedure when gateways (and their shard workers)
        are added or removed:

        1. stream every node's full ``(time_s, fb_hz)`` history out of
           the current shard files, in sorted node order;
        2. close and delete the old shard files;
        3. recreate the directory under ``n_shards`` CRC32-routed
           shards, writing each node's history in order with one
           ``record_many`` (so per-node ``seq`` numbering restarts
           dense from 0);
        4. rewrite the sidecar.

        Every node keeps its exact history -- ``known_nodes()`` and
        every per-node interval are unchanged -- and the result is a
        pure function of (content, n_shards): two identical stores
        rebalanced to the same count produce identical directories.
        """
        n_shards = _count("n_shards", n_shards)
        histories = {
            node: shard.history(node)
            for shard in self._shards
            for node in shard.known_nodes()
        }
        self.close()
        for index in range(self.n_shards):
            path = self._shard_path(index)
            if path.exists():
                path.unlink()
            # WAL sidecars of a shard, if a crash left them.
            for sidecar in (path.with_suffix(".sqlite-wal"), path.with_suffix(".sqlite-shm")):
                if sidecar.exists():
                    sidecar.unlink()
        self.n_shards = n_shards
        self._write_meta()
        self._shards = self._open_shards()
        with self.batch():
            for node in sorted(histories):
                self.record_many(node, histories[node])
        self.flush()

    def __repr__(self) -> str:
        """Directory and layout, for operator logs."""
        return (
            f"PersistentShardedFbDatabase(directory={str(self.directory)!r}, "
            f"n_shards={self.n_shards})"
        )
