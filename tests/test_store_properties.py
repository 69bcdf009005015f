"""Property tests: every FB store is state-equivalent to FbDatabase.

Hypothesis drives random ``record`` / ``record_many`` / ``interval``
sequences against each backend and the in-memory reference
in lockstep; after every operation the observable state -- known nodes,
per-node histories, sample counts, guarded intervals -- must match
exactly.  A ``record_many`` carries up to twice the history depth, so
one call can overflow a history.  A second property drives
:class:`SqliteFbStore` through batches that commit or roll back and
through reopens of its file: the in-memory node count must track the
reference throughout.  A third rolls back a ``batch()`` holding a
``record_many`` on every backend: histories and node counts must
return to their committed state.  A fourth closes and reopens a
:class:`SqliteFbStore`, at the same or another history depth, and
compares every float of every history with :class:`FbDatabase`'s
through ``float.hex``, so ``-0.0``, subnormals and the ends of the
double range must keep their bits.  A file of the earlier
one-row-per-estimate layout is refused.
"""

import copy
import re
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import FbDatabase
from repro.errors import ConfigurationError
from repro.server.store import SqliteFbStore

#: Small node pool and history depth so pruning fires.
NODES = ["26000000", "26000001", "26000002"]
HISTORY_LEN = 4

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

#: ``(time_s, fb_hz)`` pairs for one ``record_many``: enough to overflow.
histories = st.lists(st.tuples(finite, finite), max_size=2 * HISTORY_LEN)

#: One store operation: (op, node, fb_hz or history, time_s/guard_hz).
operations = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["record", "interval"]),
            st.sampled_from(NODES),
            finite,
            finite,
        ),
        st.tuples(st.just("record_many"), st.sampled_from(NODES), histories, finite),
    ),
    min_size=1,
    max_size=40,
)


def apply_write(op: str, node: str, value, extra: float, stores) -> None:
    """Apply one ``record`` / ``record_many`` to every store."""
    for store in stores:
        if op == "record":
            store.record(node, value, extra)
        else:
            store.record_many(node, value)


def build_backends(root: Path) -> dict:
    """Label -> store instance for every durable backend."""
    return {
        "sqlite": SqliteFbStore(root / "fb.sqlite", history_len=HISTORY_LEN),
    }


def assert_same_state(reference: FbDatabase, store, label: str) -> None:
    assert store.known_nodes() == reference.known_nodes(), label
    assert store.node_count() == reference.node_count(), label
    for node in NODES:
        assert store.sample_count(node) == reference.sample_count(node), label
        assert store.history(node) == reference.history(node), label
        assert store.estimates(node) == reference.estimates(node), label
        assert_same_interval(reference.interval(node, 30.0), store.interval(node, 30.0), label)


def assert_same_interval(want, got, label: str) -> None:
    if want is None:
        assert got is None, label
    else:
        assert (got.low_hz, got.high_hz, got.samples) == (
            want.low_hz,
            want.high_hz,
            want.samples,
        ), label


@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_backends_track_reference_through_random_ops(ops):
    with tempfile.TemporaryDirectory() as tmp:
        backends = build_backends(Path(tmp))
        reference = FbDatabase(history_len=HISTORY_LEN)
        try:
            for op, node, value, extra in ops:
                if op == "interval":
                    guard = abs(extra)
                    want = reference.interval(node, guard)
                    for label, store in backends.items():
                        assert_same_interval(want, store.interval(node, guard), label)
                else:
                    apply_write(op, node, value, extra, [reference, *backends.values()])
            for label, store in backends.items():
                assert_same_state(reference, store, label)
        finally:
            for store in backends.values():
                close = getattr(store, "close", None)
                if callable(close):
                    close()


class _WindowDied(Exception):
    """Raised inside a batch to force its rollback."""


#: Batches of (ops, raises before commit, reopen the file after).
sqlite_script = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.sampled_from(NODES), finite, finite),
            max_size=8,
        ),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(script=sqlite_script)
def test_sqlite_node_count_tracks_reference_through_rollback_and_reopen(script):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fb.sqlite"
        store = SqliteFbStore(path, history_len=HISTORY_LEN)
        reference = FbDatabase(history_len=HISTORY_LEN)
        try:
            for ops, raises, reopen in script:
                committed = copy.deepcopy(reference)
                try:
                    with store.batch():
                        for node, fb_hz, time_s in ops:
                            reference.record(node, fb_hz, time_s)
                            store.record(node, fb_hz, time_s)
                            assert store.node_count() == reference.node_count()
                        if raises:
                            raise _WindowDied
                except _WindowDied:
                    reference = committed
                if reopen:
                    store.close()
                    store = SqliteFbStore(path, history_len=HISTORY_LEN)
                assert store.node_count() == reference.node_count()
                assert store.known_nodes() == reference.known_nodes()
        finally:
            store.close()


@settings(max_examples=30, deadline=None)
@given(ops=operations, node=st.sampled_from(NODES), history=histories)
def test_rolled_back_record_many_restores_every_backend(ops, node, history):
    with tempfile.TemporaryDirectory() as tmp:
        backends = build_backends(Path(tmp))
        reference = FbDatabase(history_len=HISTORY_LEN)
        try:
            for op, op_node, value, extra in ops:
                if op != "interval":
                    apply_write(op, op_node, value, extra, [reference, *backends.values()])
            for label, store in backends.items():
                with pytest.raises(_WindowDied):
                    with store.batch():
                        store.record_many(node, history)
                        raise _WindowDied
                assert_same_state(reference, store, label)
        finally:
            for store in backends.values():
                store.close()


#: Floats a lossy store changes: signed zeros, subnormals, range ends.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308, 1e308, -1e308]

exact = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)

exact_histories = st.lists(st.tuples(exact, exact), min_size=1, max_size=2 * HISTORY_LEN)


def hexed(history: list[tuple[float, float]]) -> list[tuple[str, str]]:
    return [(time_s.hex(), fb_hz.hex()) for time_s, fb_hz in history]


@settings(max_examples=40, deadline=None)
@given(
    writes=st.lists(st.tuples(st.sampled_from(NODES), exact_histories), min_size=1, max_size=6),
    reopen_len=st.sampled_from([1, HISTORY_LEN - 1, HISTORY_LEN, 2 * HISTORY_LEN]),
    later=st.lists(st.tuples(exact, exact), max_size=2 * HISTORY_LEN),
)
def test_sqlite_reopen_keeps_every_float_bit_exact(writes, reopen_len, later):
    """After close and reopen the file reads like an FbDatabase, bit for bit.

    Reopened at another ``history_len`` it reads like an ``FbDatabase``
    of that depth given the same pairs: a smaller depth keeps the newest
    pairs, a larger one keeps them all and takes the ``later`` records.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fb.sqlite"
        store = SqliteFbStore(path, history_len=HISTORY_LEN)
        reference = FbDatabase(history_len=HISTORY_LEN)
        for node, history in writes:
            store.record_many(node, history)
            reference.record_many(node, history)
        store.close()
        reopened = FbDatabase(history_len=reopen_len)
        for node in reference.known_nodes():
            reopened.record_many(node, reference.history(node))
        store = SqliteFbStore(path, history_len=reopen_len)
        try:
            for time_s, fb_hz in later:
                store.record(NODES[0], fb_hz, time_s)
                reopened.record(NODES[0], fb_hz, time_s)
            assert store.known_nodes() == reopened.known_nodes()
            assert store.node_count() == reopened.node_count()
            for node in NODES:
                assert hexed(store.history(node)) == hexed(reopened.history(node)), node
                want, got = reopened.interval(node, 30.0), store.interval(node, 30.0)
                if want is None:
                    assert got is None
                else:
                    assert (got.low_hz.hex(), got.high_hz.hex(), got.samples) == (
                        want.low_hz.hex(),
                        want.high_hz.hex(),
                        want.samples,
                    )
        finally:
            store.close()


def test_sqlite_refuses_the_old_one_row_per_estimate_layout(tmp_path):
    path = tmp_path / "old.sqlite"
    conn = sqlite3.connect(path)
    conn.execute(
        "CREATE TABLE fb_history (node_id TEXT NOT NULL, seq INTEGER NOT NULL, "
        "time_s REAL NOT NULL, fb_hz REAL NOT NULL, PRIMARY KEY (node_id, seq)) WITHOUT ROWID"
    )
    conn.execute("INSERT INTO fb_history VALUES ('26000000', 0, 1.0, -20000.0)")
    conn.commit()
    conn.close()
    with pytest.raises(ConfigurationError, match=re.escape(str(path))):
        SqliteFbStore(path, history_len=HISTORY_LEN)
    # Refused, not migrated: the file still holds only the old table.
    conn = sqlite3.connect(path)
    tables = conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'").fetchall()
    conn.close()
    assert tables == [("fb_history",)]
