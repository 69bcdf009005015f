"""Property tests: every FB store is state-equivalent to FbDatabase.

Hypothesis drives random ``record`` / ``record_many`` / ``interval`` /
``forget`` sequences against each backend and the in-memory reference
in lockstep; after every operation the observable state -- known nodes,
per-node histories, sample counts, guarded intervals -- must match
exactly.  A ``record_many`` carries up to twice the history depth, so
one call can overflow a history.  A second property pins the rebalance
invariant: migrating a
:class:`~repro.server.store.sharded.PersistentShardedFbDatabase` to
*any* shard count preserves ``known_nodes()`` and every per-node
history bit for bit.  A third drives :class:`SqliteFbStore` through
batches that commit or roll back and through reopens of its file: the
in-memory node count must track the reference throughout.  A fourth
rolls back a ``batch()`` holding a ``record_many`` on every backend:
histories and node counts must return to their committed state.  A
fifth reopens sharded directories whose sidecar has a corrupted layout
field: each must be refused with a :class:`ConfigurationError` naming
the field before any shard file is opened.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import FbDatabase
from repro.errors import ConfigurationError
from repro.server.store import (
    LruCachedStore,
    PersistentShardedFbDatabase,
    SqliteFbStore,
)
from repro.server.store.sharded import META_FILE

#: Small node pool and history depth so pruning and forgetting both fire.
NODES = ["26000000", "26000001", "26000002"]
HISTORY_LEN = 4

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

#: ``(time_s, fb_hz)`` pairs for one ``record_many``: enough to overflow.
histories = st.lists(st.tuples(finite, finite), max_size=2 * HISTORY_LEN)

#: One store operation: (op, node, fb_hz or history, time_s/guard_hz).
operations = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["record", "interval", "forget"]),
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
    """Apply one ``record`` / ``record_many`` / ``forget`` to every store."""
    for store in stores:
        if op == "record":
            store.record(node, value, extra)
        elif op == "record_many":
            store.record_many(node, value)
        else:
            store.forget(node)


def build_backends(root: Path) -> dict:
    """Label -> store instance for every durable backend."""
    return {
        "sqlite": SqliteFbStore(root / "fb.sqlite", history_len=HISTORY_LEN),
        "lru-sqlite": LruCachedStore(
            SqliteFbStore(root / "fb-lru.sqlite", history_len=HISTORY_LEN),
            max_nodes=2,  # smaller than the node pool, so eviction fires
        ),
        "sharded-sqlite": PersistentShardedFbDatabase(
            root / "fb.d", n_shards=2, history_len=HISTORY_LEN
        ),
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


@settings(max_examples=25, deadline=None)
@given(
    ops=operations,
    shard_counts=st.lists(
        st.integers(min_value=1, max_value=9), min_size=1, max_size=3
    ),
)
def test_rebalance_to_any_count_preserves_state(ops, shard_counts):
    with tempfile.TemporaryDirectory() as tmp:
        store = PersistentShardedFbDatabase(
            Path(tmp) / "fb.d", n_shards=3, history_len=HISTORY_LEN
        )
        reference = FbDatabase(history_len=HISTORY_LEN)
        try:
            for op, node, value, extra in ops:
                if op != "interval":
                    apply_write(op, node, value, extra, [reference, store])
            for count in shard_counts:
                store.rebalance(count)
                assert store.n_shards == count
                assert_same_state(reference, store, f"rebalance({count})")
        finally:
            store.close()


class _WindowDied(Exception):
    """Raised inside a batch to force its rollback."""


#: Batches of (ops, raises before commit, reopen the file after).
sqlite_script = st.lists(
    st.tuples(
        st.lists(
            st.tuples(
                st.sampled_from(["record", "forget"]),
                st.sampled_from(NODES),
                finite,
                finite,
            ),
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
                        for op, node, fb_hz, time_s in ops:
                            if op == "record":
                                reference.record(node, fb_hz, time_s)
                                store.record(node, fb_hz, time_s)
                            else:
                                reference.forget(node)
                                store.forget(node)
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
                store.interval(node, 30.0)  # warm the LRU copy, if any
                with pytest.raises(_WindowDied):
                    with store.batch():
                        store.record_many(node, history)
                        raise _WindowDied
                assert_same_state(reference, store, label)
        finally:
            for store in backends.values():
                store.close()


#: A missing key, or a JSON value that is not an integer >= 1.
_MISSING = object()
bad_layout_values = st.one_of(
    st.just(_MISSING),
    st.integers(max_value=0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.text(max_size=4) | st.integers(min_value=1, max_value=64).map(str),
    st.none(),
)


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(["n_shards", "history_len"]),
    value=bad_layout_values,
    explicit_shards=st.booleans(),
)
def test_reopen_refuses_corrupted_sidecar(field, value, explicit_shards):
    meta = {"n_shards": 3, "history_len": HISTORY_LEN, "backend": "sqlite"}
    if value is _MISSING:
        del meta[field]
    else:
        meta[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "fb.d"
        directory.mkdir()
        (directory / META_FILE).write_text(json.dumps(meta))
        n_shards = 3 if explicit_shards else None
        with pytest.raises(ConfigurationError, match=field):
            PersistentShardedFbDatabase(directory, n_shards=n_shards)
        assert sorted(p.name for p in directory.iterdir()) == [META_FILE]
