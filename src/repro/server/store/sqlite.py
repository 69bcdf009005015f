"""SQLite-backed durable FB store.

One :class:`SqliteFbStore` holds every node's accepted-FB history in a
single WAL-mode SQLite file, one row per node: the ``fb_profile`` table
maps ``node_id`` to ``history``, a blob of packed little-endian float64
``(time_s, fb_hz)`` pairs, oldest first.  Only the newest
``history_len`` pairs (the blob's last ``16 * history_len`` bytes) are
kept -- exactly the bounded-deque semantics of the in-memory
:class:`repro.core.detector.FbDatabase`.  Reads keep the same newest
pairs, so a file reopened with a smaller ``history_len`` reads as if it
had been written with it.

Durability contract:

* the blob holds each float's eight IEEE-754 bytes, so every Python
  float round-trips **bit-exactly**, ``-0.0`` and subnormals included;
  acceptance intervals are computed in Python over the same values in
  the same order as the in-memory database, so intervals (and therefore
  replay verdicts) from a reloaded store are bitwise identical to the
  live in-memory ones;
* WAL journal mode with ``synchronous=NORMAL`` means a committed
  transaction survives a process kill (the crash-recovery tests reopen
  the file *without* closing the writer to simulate exactly that);
* :meth:`SqliteFbStore.batch` opens one transaction around a whole
  dedup window's read-modify-write traffic, so either every verdict of
  the window commits or none does -- a crash can lose the uncommitted
  window wholesale but can never leave a half-written history behind.

Statements per call (plus ``BEGIN``/``COMMIT`` outside a batch):

* ``interval``, ``sample_count``, ``history`` and ``estimates`` -- one
  ``SELECT history``; the detector gets the bounds and the sample count
  from that one read;
* ``record`` and ``record_many`` -- the same ``SELECT`` and one
  ``INSERT ... ON CONFLICT DO UPDATE`` of the merged, truncated blob,
  whatever the number of pairs written.

The tracked-node count is loaded once on open and then kept in memory
(moved by a node's first write, restored on rollback),
so the daemon's per-flush ``node_count`` gauge never scans the table.
The count assumes the store is the file's only writer.

A file holding the earlier ``fb_history`` table (one row per estimate)
is refused with :class:`~repro.errors.ConfigurationError`; it is not
migrated.
"""

from __future__ import annotations

import sqlite3
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.detector import FbInterval
from repro.errors import ConfigurationError

_SCHEMA = """
CREATE TABLE IF NOT EXISTS fb_profile (
    node_id TEXT PRIMARY KEY,
    history BLOB NOT NULL
) WITHOUT ROWID
"""

_READ = "SELECT history FROM fb_profile WHERE node_id = ?"

_WRITE = (
    "INSERT INTO fb_profile (node_id, history) VALUES (?, ?) "
    "ON CONFLICT(node_id) DO UPDATE SET history = excluded.history"
)

#: One packed ``(time_s, fb_hz)`` pair.
_PAIR = struct.Struct("<2d")

#: The table of the earlier one-row-per-estimate layout.
_OLD_TABLE = "fb_history"


class SqliteFbStore:
    """Durable :class:`~repro.core.detector.FbStore` in one SQLite file.

    Attributes:
        path: The database file (``":memory:"`` for an ephemeral store).
        history_len: Bounded per-node history depth, as in
            :class:`~repro.core.detector.FbDatabase`.
    """

    def __init__(self, path: str | Path = ":memory:", history_len: int = 50):
        """Open (creating if needed) the store file and its schema.

        Args:
            path: SQLite file path; parents are created.  ``":memory:"``
                gives a process-private ephemeral store (no WAL).
            history_len: How many recent estimates shape each node's
                acceptance interval.

        Raises:
            ConfigurationError: On ``history_len < 1``, or when the file
                holds the earlier one-row-per-estimate layout.
        """
        if history_len < 1:
            raise ConfigurationError(f"history length must be >= 1, got {history_len}")
        self.history_len = history_len
        self._max_bytes = _PAIR.size * history_len
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        # Autocommit connection: transactions are opened explicitly by
        # batch() so the commit boundary is always the one the
        # durability contract names, never an implicit driver one.
        self._conn = sqlite3.connect(self.path, isolation_level=None)
        old = self._conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?", (_OLD_TABLE,)
        ).fetchone()
        if old is not None:
            self._conn.close()
            self._conn = None
            raise ConfigurationError(
                f"FB store {self.path!r} holds the old {_OLD_TABLE} table (one row per "
                "estimate); this version reads only fb_profile and does not migrate it"
            )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(_SCHEMA)
        self._in_batch = False
        # Counted once here; record() keeps it current after.
        (count,) = self._conn.execute("SELECT COUNT(*) FROM fb_profile").fetchone()
        self._node_count = int(count)

    # -- transactions -----------------------------------------------------------

    @contextmanager
    def batch(self) -> Iterator["SqliteFbStore"]:
        """Group every store operation in the block into one transaction.

        The daemon wraps each dedup window's ``process_step`` in a
        batch, so all the window's verdict-driven read-modify-writes
        commit atomically.  A write outside a batch runs in one of its
        own.  Nested batches join the outer transaction.  An exception
        rolls the whole batch back.
        """
        if self._in_batch:
            yield self
            return
        node_count = self._node_count
        self._conn.execute("BEGIN IMMEDIATE")
        self._in_batch = True
        try:
            yield self
        except BaseException:
            self._conn.execute("ROLLBACK")
            self._node_count = node_count
            raise
        else:
            self._conn.execute("COMMIT")
        finally:
            self._in_batch = False

    def _append(self, node_id: str, pairs: bytes) -> None:
        """Append packed pairs to the node's history, keeping the newest."""
        if not self._in_batch:
            with self.batch():
                self._append(node_id, pairs)
            return
        row = self._conn.execute(_READ, (node_id,)).fetchone()
        if row is None:  # the node's first pairs
            self._node_count += 1
        else:
            pairs = row[0] + pairs
        self._conn.execute(_WRITE, (node_id, pairs[-self._max_bytes :]))

    def _floats(self, node_id: str) -> tuple[float, ...]:
        """The node's kept ``time_s, fb_hz, ...`` floats, oldest pair first."""
        row = self._conn.execute(_READ, (node_id,)).fetchone()
        if row is None:
            return ()
        blob = row[0][-self._max_bytes :]
        return struct.unpack(f"<{len(blob) // 8}d", blob)

    # -- FbStore interface ------------------------------------------------------

    def record(self, node_id: str, fb_hz: float, time_s: float = 0.0) -> None:
        """Append one accepted FB estimate, keeping the newest ``history_len``."""
        self._append(node_id, _PAIR.pack(time_s, fb_hz))

    def record_many(self, node_id: str, history: Iterable[tuple[float, float]]) -> None:
        """Append ``(time_s, fb_hz)`` pairs in order, as one ``record`` each."""
        floats = [value for time_s, fb_hz in history for value in (time_s, fb_hz)]
        if floats:
            self._append(node_id, struct.pack(f"<{len(floats)}d", *floats))

    def sample_count(self, node_id: str) -> int:
        """Recorded estimates for one node."""
        return len(self._floats(node_id)) // 2

    def estimates(self, node_id: str) -> list[float]:
        """The node's recorded FB values, oldest first."""
        return list(self._floats(node_id)[1::2])

    def history(self, node_id: str) -> list[tuple[float, float]]:
        """The node's recorded ``(time_s, fb_hz)`` pairs, oldest first."""
        floats = self._floats(node_id)
        return list(zip(floats[0::2], floats[1::2]))

    def interval(self, node_id: str, guard_hz: float) -> FbInterval | None:
        """[min - guard, max + guard] and the sample count, from one read."""
        values = self._floats(node_id)[1::2]
        if not values:
            return None
        return FbInterval(
            low_hz=min(values) - guard_hz,
            high_hz=max(values) + guard_hz,
            samples=len(values),
        )

    def known_nodes(self) -> list[str]:
        """Every tracked node id, sorted."""
        rows = self._conn.execute("SELECT node_id FROM fb_profile ORDER BY node_id").fetchall()
        return [row[0] for row in rows]

    def node_count(self) -> int:
        """Total tracked nodes, from the in-memory count (no table scan)."""
        return self._node_count

    # -- durability / lifecycle -------------------------------------------------

    def flush(self) -> None:
        """Checkpoint the WAL into the main database file.

        Committed transactions are already crash-safe in the WAL; the
        checkpoint folds them into the main file so a plain copy of
        ``path`` is complete -- the daemon's graceful-shutdown step.
        """
        if self._in_batch:
            raise ConfigurationError("cannot flush inside an open batch")
        self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        """Flush and close the connection (idempotent)."""
        if self._conn is not None:
            try:
                self.flush()
            except sqlite3.Error:  # pragma: no cover - already-broken handle
                pass
            self._conn.close()
            self._conn = None

    def __repr__(self) -> str:
        """Path and depth, for operator logs."""
        return f"SqliteFbStore(path={self.path!r}, history_len={self.history_len})"
