"""Property tests: every FB store is state-equivalent to FbDatabase.

Hypothesis drives random ``record`` / ``interval`` / ``forget``
sequences against each backend and the in-memory reference in
lockstep; after every operation the observable state -- known nodes,
per-node histories, sample counts, guarded intervals -- must match
exactly.  A second property pins the rebalance invariant: migrating a
:class:`~repro.server.store.sharded.PersistentShardedFbDatabase` to
*any* shard count preserves ``known_nodes()`` and every per-node
history bit for bit.  A third drives :class:`SqliteFbStore` through
batches that commit or roll back and through reopens of its file: the
in-memory node count must track the reference throughout.
"""

import copy
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import FbDatabase
from repro.server.store import (
    LruCachedStore,
    PersistentShardedFbDatabase,
    SqliteFbStore,
)

#: Small node pool and history depth so pruning and forgetting both fire.
NODES = ["26000000", "26000001", "26000002"]
HISTORY_LEN = 4

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)

#: One store operation: (op, node, fb_hz, time_s/guard_hz).
operations = st.lists(
    st.tuples(
        st.sampled_from(["record", "interval", "forget"]),
        st.sampled_from(NODES),
        finite,
        finite,
    ),
    min_size=1,
    max_size=40,
)


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
        want = reference.interval(node, 30.0)
        got = store.interval(node, 30.0)
        if want is None:
            assert got is None, label
        else:
            assert (got.low_hz, got.high_hz) == (want.low_hz, want.high_hz), label


@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_backends_track_reference_through_random_ops(ops):
    with tempfile.TemporaryDirectory() as tmp:
        backends = build_backends(Path(tmp))
        reference = FbDatabase(history_len=HISTORY_LEN)
        try:
            for op, node, fb_hz, extra in ops:
                if op == "record":
                    reference.record(node, fb_hz, extra)
                    for store in backends.values():
                        store.record(node, fb_hz, extra)
                elif op == "forget":
                    reference.forget(node)
                    for store in backends.values():
                        store.forget(node)
                else:
                    guard = abs(extra)
                    want = reference.interval(node, guard)
                    for label, store in backends.items():
                        got = store.interval(node, guard)
                        if want is None:
                            assert got is None, label
                        else:
                            assert (got.low_hz, got.high_hz) == (
                                want.low_hz,
                                want.high_hz,
                            ), label
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
            for op, node, fb_hz, extra in ops:
                if op == "record":
                    reference.record(node, fb_hz, extra)
                    store.record(node, fb_hz, extra)
                elif op == "forget":
                    reference.forget(node)
                    store.forget(node)
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
