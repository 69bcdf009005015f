"""SQLite-backed durable FB store.

One :class:`SqliteFbStore` holds every node's accepted-FB history in a
single WAL-mode SQLite file: one ``fb_history`` table of ``(node_id,
seq, time_s, fb_hz)`` rows, where ``seq`` is a per-node monotonic
insertion counter and rows older than ``history_len`` per node are
pruned on insert -- exactly the bounded-deque semantics of the
in-memory :class:`repro.core.detector.FbDatabase`.

Durability contract:

* SQLite stores ``REAL`` values as 8-byte IEEE-754 doubles, so every
  Python float round-trips **bit-exactly** -- acceptance intervals (and
  therefore replay verdicts) computed from a reloaded store are
  bitwise identical to the live in-memory ones;
* WAL journal mode with ``synchronous=NORMAL`` means a committed
  transaction survives a process kill (the crash-recovery tests reopen
  the file *without* closing the writer to simulate exactly that);
* :meth:`SqliteFbStore.batch` opens one transaction around a whole
  dedup window's read-modify-write traffic, so either every verdict of
  the window commits or none does -- a crash can lose the uncommitted
  window wholesale but can never leave a half-written history behind.

Statements per call (plus ``BEGIN``/``COMMIT`` outside a batch):

* ``interval`` -- one ``SELECT COUNT(*), MIN(fb_hz), MAX(fb_hz)``, so
  the detector gets the bounds and the sample count from one read;
* ``record`` -- one read of the node's next ``seq`` (``MAX(seq) + 1``)
  and one ``INSERT``, plus one pruning ``DELETE`` only once
  ``seq >= history_len``;
* ``record_many`` -- the same read and one multi-row ``INSERT`` of the
  whole history (only its newest ``history_len`` pairs, at most
  ``_ROWS_PER_INSERT`` rows per statement), plus one ``DELETE`` only
  when the node already had rows and the history overflows.  With
  ``history_len <= _ROWS_PER_INSERT`` a profile bootstrap therefore
  runs the same statements whatever its length.

Numbering the row inside the ``INSERT`` (``INSERT ... SELECT MAX(seq)
+ 1 ... RETURNING seq``) saves the read but costs more than it: SQLite
builds an ephemeral table both for ``RETURNING`` and for an ``INSERT``
that reads its own table.

No per-node ``seq`` is kept in memory; the primary key makes each
``MAX(seq)`` one index seek.  The tracked-node count is loaded once on
open and then kept in memory (moved by a node's first written row and by
``forget``, restored on rollback), so the daemon's per-flush
``node_count`` gauge never scans the table.  The count assumes the
store is the file's only writer.
"""

from __future__ import annotations

import sqlite3
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.detector import FbInterval
from repro.errors import ConfigurationError

_SCHEMA = """
CREATE TABLE IF NOT EXISTS fb_history (
    node_id TEXT    NOT NULL,
    seq     INTEGER NOT NULL,
    time_s  REAL    NOT NULL,
    fb_hz   REAL    NOT NULL,
    PRIMARY KEY (node_id, seq)
) WITHOUT ROWID
"""

#: Most rows one INSERT binds (four parameters each), inside SQLite's
#: smallest host-parameter limit of 999.
_ROWS_PER_INSERT = 200

_NEXT_SEQ = "SELECT COALESCE(MAX(seq), -1) + 1 FROM fb_history WHERE node_id = ?"

_PRUNE = "DELETE FROM fb_history WHERE node_id = ? AND seq <= ?"


@lru_cache(maxsize=_ROWS_PER_INSERT)
def _insert(rows: int) -> str:
    """One INSERT of ``rows`` ``(node_id, seq, time_s, fb_hz)`` rows."""
    values = ", ".join(["(?, ?, ?, ?)"] * rows)
    return f"INSERT INTO fb_history (node_id, seq, time_s, fb_hz) VALUES {values}"


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
        """
        if history_len < 1:
            raise ConfigurationError(f"history length must be >= 1, got {history_len}")
        self.history_len = history_len
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        # Autocommit connection: transactions are opened explicitly by
        # _tx()/batch() so the commit boundary is always the one the
        # durability contract names, never an implicit driver one.
        self._conn = sqlite3.connect(self.path, isolation_level=None)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(_SCHEMA)
        self._in_batch = False
        # Counted once here; record()/forget() keep it current after.
        row = self._conn.execute("SELECT COUNT(DISTINCT node_id) FROM fb_history").fetchone()
        self._node_count = int(row[0])

    # -- transactions -----------------------------------------------------------

    @contextmanager
    def _tx(self) -> Iterator[sqlite3.Connection]:
        """One write transaction; a no-op inside an open :meth:`batch`."""
        if self._in_batch:
            yield self._conn
            return
        node_count = self._node_count
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield self._conn
        except BaseException:
            self._conn.execute("ROLLBACK")
            self._node_count = node_count
            raise
        else:
            self._conn.execute("COMMIT")

    @contextmanager
    def batch(self) -> Iterator["SqliteFbStore"]:
        """Group every store operation in the block into one transaction.

        The daemon wraps each dedup window's ``process_step`` in a
        batch, so all the window's verdict-driven read-modify-writes
        commit atomically.  Nested batches join the outer transaction.
        An exception rolls the whole batch back.
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

    # -- FbStore interface ------------------------------------------------------

    def record(self, node_id: str, fb_hz: float, time_s: float = 0.0) -> None:
        """Append one accepted FB estimate, pruning beyond ``history_len``."""
        with self._tx() as conn:
            (seq,) = conn.execute(_NEXT_SEQ, (node_id,)).fetchone()
            conn.execute(_insert(1), (node_id, seq, float(time_s), float(fb_hz)))
            if seq >= self.history_len:
                conn.execute(_PRUNE, (node_id, seq - self.history_len))
            elif seq == 0:  # the node's first row (or first since forget)
                self._node_count += 1

    def record_many(self, node_id: str, history: Iterable[tuple[float, float]]) -> None:
        """Append ``(time_s, fb_hz)`` pairs in order, as one ``record`` each.

        Only the newest ``history_len`` pairs can survive pruning, so only
        they are written, numbered as if every pair had been.
        """
        rows = [(float(time_s), float(fb_hz)) for time_s, fb_hz in history]
        if not rows:
            return
        skip = max(0, len(rows) - self.history_len)
        with self._tx() as conn:
            (next_seq,) = conn.execute(_NEXT_SEQ, (node_id,)).fetchone()
            seq = next_seq + skip
            for start in range(skip, len(rows), _ROWS_PER_INSERT):
                chunk = rows[start : start + _ROWS_PER_INSERT]
                params: list = []
                for time_s, fb_hz in chunk:
                    params += (node_id, seq, time_s, fb_hz)
                    seq += 1
                conn.execute(_insert(len(chunk)), params)
            last = seq - 1
            if next_seq == 0:  # the node's first rows (or first since forget)
                self._node_count += 1
            elif last >= self.history_len:
                conn.execute(_PRUNE, (node_id, last - self.history_len))

    def sample_count(self, node_id: str) -> int:
        """Recorded estimates for one node."""
        row = self._conn.execute(
            "SELECT COUNT(*) FROM fb_history WHERE node_id = ?", (node_id,)
        ).fetchone()
        return int(row[0])

    def estimates(self, node_id: str) -> list[float]:
        """The node's recorded FB values, oldest first."""
        rows = self._conn.execute(
            "SELECT fb_hz FROM fb_history WHERE node_id = ? ORDER BY seq", (node_id,)
        ).fetchall()
        return [row[0] for row in rows]

    def history(self, node_id: str) -> list[tuple[float, float]]:
        """The node's recorded ``(time_s, fb_hz)`` pairs, oldest first."""
        rows = self._conn.execute(
            "SELECT time_s, fb_hz FROM fb_history WHERE node_id = ? ORDER BY seq",
            (node_id,),
        ).fetchall()
        return [(row[0], row[1]) for row in rows]

    def interval(self, node_id: str, guard_hz: float) -> FbInterval | None:
        """[min - guard, max + guard] and the sample count, from one read."""
        count, low, high = self._conn.execute(
            "SELECT COUNT(*), MIN(fb_hz), MAX(fb_hz) FROM fb_history WHERE node_id = ?",
            (node_id,),
        ).fetchone()
        if count == 0:
            return None
        return FbInterval(low_hz=low - guard_hz, high_hz=high + guard_hz, samples=count)

    def known_nodes(self) -> list[str]:
        """Every tracked node id, sorted."""
        rows = self._conn.execute(
            "SELECT DISTINCT node_id FROM fb_history ORDER BY node_id"
        ).fetchall()
        return [row[0] for row in rows]

    def node_count(self) -> int:
        """Total tracked nodes, from the in-memory count (no table scan)."""
        return self._node_count

    def forget(self, node_id: str) -> None:
        """Drop one node's history."""
        with self._tx() as conn:
            deleted = conn.execute("DELETE FROM fb_history WHERE node_id = ?", (node_id,))
            if deleted.rowcount > 0:
                self._node_count -= 1

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
