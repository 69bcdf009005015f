"""Property tests: every FB store is state-equivalent to FbDatabase.

Hypothesis drives random ``record`` / ``record_many`` / ``interval`` /
``forget`` sequences against each backend and the in-memory reference
in lockstep; after every operation the observable state -- known nodes,
per-node histories, sample counts, guarded intervals -- must match
exactly.  A ``record_many`` carries up to twice the history depth, so
one call can overflow a history.  A second property drives
:class:`SqliteFbStore` through batches that commit or roll back and
through reopens of its file: the in-memory node count must track the
reference throughout.  A third rolls back a ``batch()`` holding a
``record_many`` on every backend: histories and node counts must
return to their committed state.
"""

import copy
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import FbDatabase
from repro.server.store import SqliteFbStore

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
                with pytest.raises(_WindowDied):
                    with store.batch():
                        store.record_many(node, history)
                        raise _WindowDied
                assert_same_state(reference, store, label)
        finally:
            for store in backends.values():
                store.close()
