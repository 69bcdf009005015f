"""Durable FB stores: conformance, crash recovery, and verdict parity.

The acceptance bar from the ISSUE: every persistent backend behind the
:class:`~repro.core.detector.FbStore` protocol must be verdict-bitwise
equal to the in-memory :class:`~repro.core.detector.FbDatabase` on
golden scenarios -- including across a simulated crash and restart in
the middle of a scenario.
"""

import dataclasses
import math

import pytest

from repro.core.detector import FbDatabase, FbStore, ReplayDetector
from repro.errors import ConfigurationError
from repro.server import NetworkServer
from repro.server.store import SqliteFbStore, open_store, store_batch, store_stats
from repro.service import build_plan


@pytest.fixture(scope="module")
def plan():
    """A small recorded fleet run with clean and attack phases."""
    return build_plan(n_devices=6, n_gateways=2, clean_s=90.0, attack_s=90.0)


def store_builders(tmp_path):
    """Label -> zero-arg builder for every backend."""
    return {
        "memory": lambda: FbDatabase(),
        "sqlite": lambda: SqliteFbStore(tmp_path / "fb.sqlite"),
    }


class TestProtocolConformance:
    def test_every_backend_satisfies_fbstore(self, tmp_path):
        for label, build in store_builders(tmp_path).items():
            store = build()
            assert isinstance(store, FbStore), label
            close = getattr(store, "close", None)
            if callable(close):
                close()

    def test_protocol_is_runtime_checkable_and_rejects_non_stores(self):
        assert not isinstance(object(), FbStore)
        assert not isinstance({"record": None}, FbStore)

    def test_store_stats_shape(self, tmp_path):
        store = SqliteFbStore(tmp_path / "s.sqlite")
        store.record("node", 10.0, 1.0)
        stats = store_stats(store)
        assert stats == {"backend": "SqliteFbStore", "node_count": 1}
        store.close()


class TestSqliteStore:
    def test_record_interval_and_pruning_match_reference(self, tmp_path):
        ref = FbDatabase(history_len=3)
        store = SqliteFbStore(tmp_path / "s.sqlite", history_len=3)
        values = [(-20.0, 1.0), (5.5, 2.0), (30.25, 3.0), (-4.75, 4.0), (18.0, 5.0)]
        for fb, t in values:
            ref.record("n1", fb, t)
            store.record("n1", fb, t)
        assert store.estimates("n1") == ref.estimates("n1")
        assert store.history("n1") == ref.history("n1")
        assert store.sample_count("n1") == 3
        got = store.interval("n1", guard_hz=7.0)
        want = ref.interval("n1", guard_hz=7.0)
        assert (got.low_hz, got.high_hz) == (want.low_hz, want.high_hz)
        assert store.interval("missing", 7.0) is None
        store.close()

    def test_floats_round_trip_bitwise(self, tmp_path):
        store = SqliteFbStore(tmp_path / "s.sqlite")
        awkward = [0.1, -0.3, 1e-17, 123456.789012345, math.pi, -2.5e8]
        for i, fb in enumerate(awkward):
            store.record("n", fb, float(i) + 0.1)
        got = store.estimates("n")
        assert [v.hex() for v in got] == [v.hex() for v in awkward]
        store.close()

    def test_history_survives_close_and_reopen(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = SqliteFbStore(path, history_len=4)
        for fb in (1.0, 2.0, 3.0):
            store.record("node", fb, fb)
        store.flush()
        store.close()
        reopened = SqliteFbStore(path, history_len=4)
        assert reopened.history("node") == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        reopened.record("node", 4.0, 4.0)
        assert reopened.estimates("node") == [1.0, 2.0, 3.0, 4.0]
        reopened.close()

    def test_crash_reopen_without_close_sees_committed_rows(self, tmp_path):
        path = tmp_path / "s.sqlite"
        writer = SqliteFbStore(path)
        with writer.batch():
            writer.record("a", 1.0, 1.0)
            writer.record("b", 2.0, 1.5)
        # Simulated process kill: a second store opens the same file
        # while the writer never ran flush()/close().
        survivor = SqliteFbStore(path)
        assert survivor.known_nodes() == ["a", "b"]
        assert survivor.history("a") == [(1.0, 1.0)]
        survivor.close()
        writer.close()

    def test_batch_rolls_back_wholesale_on_error(self, tmp_path):
        store = SqliteFbStore(tmp_path / "s.sqlite")
        store.record("keep", 5.0, 1.0)
        with pytest.raises(RuntimeError):
            with store.batch():
                store.record("keep", 6.0, 2.0)
                store.record("gone", 7.0, 2.0)
                raise RuntimeError("window died")
        assert store.estimates("keep") == [5.0]
        assert store.known_nodes() == ["keep"]
        store.close()

    def test_batch_is_reentrant_and_blocks_flush(self, tmp_path):
        store = SqliteFbStore(tmp_path / "s.sqlite")
        with store.batch():
            with store.batch():
                store.record("n", 1.0, 1.0)
            with pytest.raises(ConfigurationError):
                store.flush()
        assert store.estimates("n") == [1.0]
        store.close()

    def test_history_len_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigurationError):
            SqliteFbStore(tmp_path / "bad.sqlite", history_len=0)


class TestSqliteNodeCount:
    """The in-memory node count always equals the reference's."""

    def test_rolled_back_batch_restores_the_count(self, tmp_path):
        ref = FbDatabase()
        store = SqliteFbStore(tmp_path / "s.sqlite")
        ref.record("keep", 5.0, 1.0)
        store.record("keep", 5.0, 1.0)
        with pytest.raises(RuntimeError):
            with store.batch():
                store.record("new-a", 6.0, 2.0)
                store.record("new-b", 7.0, 2.0)
                assert store.node_count() == 3
                raise RuntimeError("window died")
        assert store.node_count() == ref.node_count() == 1
        with store.batch():
            store.record("new-a", 6.0, 2.0)
        ref.record("new-a", 6.0, 2.0)
        assert store.node_count() == ref.node_count() == 2
        store.close()

    def test_count_is_reloaded_on_reopen(self, tmp_path):
        ref = FbDatabase(history_len=2)
        path = tmp_path / "s.sqlite"
        store = SqliteFbStore(path, history_len=2)
        for i in range(5):
            for db in (ref, store):
                db.record(f"n{i}", float(i), 1.0)
                db.record(f"n{i}", float(i) + 0.5, 2.0)
                db.record(f"n{i}", float(i) + 0.75, 3.0)  # prunes the oldest row
        store.close()
        reopened = SqliteFbStore(path, history_len=2)
        assert reopened.node_count() == ref.node_count() == 5
        reopened.record("n3", 9.0, 4.0)
        ref.record("n3", 9.0, 4.0)
        assert reopened.node_count() == ref.node_count() == 5
        reopened.record("n5", 9.0, 4.0)
        ref.record("n5", 9.0, 4.0)
        assert reopened.node_count() == ref.node_count() == 6
        reopened.close()


def _statements(store, action) -> list[str]:
    """The SQL statements ``action`` runs on ``store``'s connection.

    The trace callback sees each statement once per execution (an
    ``executemany`` would show once per row), so the counts below are
    the statements SQLite actually ran.
    """
    seen: list[str] = []
    store._conn.set_trace_callback(seen.append)
    try:
        action()
    finally:
        store._conn.set_trace_callback(None)
    return [statement.split()[0].upper() for statement in seen]


class _CallCounter:
    """Forwards to an FB store, counting the store methods called."""

    def __init__(self, store):
        self.store = store
        self.calls: list[str] = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.store, name)


class TestStatementCounts:
    """One read and one write per verdict; a bootstrap costs O(1) statements."""

    def test_interval_is_one_read_with_the_sample_count(self, tmp_path):
        store = SqliteFbStore(tmp_path / "s.sqlite")
        store.record_many("n", [(0.0, 10.0), (1.0, -5.0), (2.0, 2.5)])
        got = []
        assert _statements(store, lambda: got.append(store.interval("n", 1.0))) == ["SELECT"]
        assert (got[0].low_hz, got[0].high_hz, got[0].samples) == (-6.0, 11.0, 3)
        assert _statements(store, lambda: got.append(store.interval("x", 1.0))) == ["SELECT"]
        assert got[1] is None
        store.close()

    def test_record_is_one_read_and_one_insert_until_the_history_is_full(self, tmp_path):
        store = SqliteFbStore(tmp_path / "s.sqlite", history_len=4)
        with store.batch():
            for i in range(4):
                assert _statements(store, lambda: store.record("n", float(i), 0.0)) == [
                    "SELECT",
                    "INSERT",
                ]
            for i in range(4, 7):
                assert _statements(store, lambda: store.record("n", float(i), 0.0)) == [
                    "SELECT",
                    "INSERT",
                ]
        assert store.estimates("n") == [3.0, 4.0, 5.0, 6.0]
        store.close()

    @pytest.mark.parametrize("fresh", [True, False])
    def test_bootstrap_statements_do_not_grow_with_the_profile(self, tmp_path, fresh):
        counts = {}
        for k in (1, 5, 60):
            store = SqliteFbStore(tmp_path / f"s{k}{fresh}.sqlite", history_len=50)
            detector = ReplayDetector(database=store)
            prior = [] if fresh else [0.5] * 50  # none, or a full history
            store.record_many("n", [(1.0, fb) for fb in prior])
            profile = [float(i) for i in range(k)]
            with store.batch():
                counts[k] = _statements(store, lambda: detector.bootstrap("n", profile))
            assert store.estimates("n") == (prior + profile)[-50:]
            assert store.node_count() == 1
            store.close()
        # Fresh or full, one read and one INSERT: the history is one row.
        want = ["SELECT", "INSERT"]
        assert counts == {1: want, 5: want, 60: want}

    def test_check_makes_at_most_two_store_calls(self):
        store = _CallCounter(FbDatabase())
        detector = ReplayDetector(database=store, min_history=3)
        detector.bootstrap("n", [100.0, 120.0, 140.0])
        assert store.calls == ["record_many"]
        for fb_hz, want in (
            (110.0, ["interval", "record"]),  # accepted and learned
            (5_000.0, ["interval"]),  # replay: nothing recorded
        ):
            store.calls.clear()
            detector.check("n", fb_hz)
            assert store.calls == want
        store.calls.clear()
        result = detector.check("new", 0.0)  # learning phase
        assert store.calls == ["interval", "record"]
        assert result.reason == "learning phase (0/3 samples)"


class TestOpenStore:
    def test_specs_build_expected_backends(self, tmp_path):
        assert isinstance(open_store("memory"), FbDatabase)
        sqlite_store = open_store(f"sqlite:{tmp_path / 'fb.sqlite'}")
        assert isinstance(sqlite_store, SqliteFbStore)
        sqlite_store.close()
        deep = open_store(f"sqlite:{tmp_path / 'fb2.sqlite'}?history=4")
        assert isinstance(deep, SqliteFbStore)
        assert deep.history_len == 4
        deep.close()
        with pytest.raises(ConfigurationError, match="unknown store backend 'sharded-sqlite'"):
            open_store(f"sharded-sqlite:{tmp_path / 'fb.d'}")

    def test_memory_spec_with_options_and_defaults(self):
        store = open_store("memory?history=4")
        assert isinstance(store, FbDatabase)
        assert store.history_len == 4

    def test_bad_specs_raise(self):
        with pytest.raises(ConfigurationError, match="unknown store backend"):
            open_store("redis:somewhere")
        for spec in ("sharded", "sharded-sqlite", "sharded-sqlite:fb.d?shards=16"):
            with pytest.raises(
                ConfigurationError, match="unknown store backend.*expected one of memory, sqlite$"
            ):
                open_store(spec)
        with pytest.raises(ConfigurationError, match="bad store option 'shards=4'"):
            open_store("sqlite:fb.sqlite?shards=4")
        with pytest.raises(ConfigurationError, match="bad store option"):
            open_store("memory?turbo=1")
        with pytest.raises(ConfigurationError, match="must be an integer"):
            open_store("memory?history=lots")
        for spec in ("memory?cache=4", "memory?history=4&cache=0", "sqlite:fb.sqlite?cache=8"):
            with pytest.raises(ConfigurationError, match="bad store option 'cache=.*history=N$"):
                open_store(spec)
        for spec in ("memory:/var/lib/fb.sqlite", "memory:fb.sqlite?history=4"):
            with pytest.raises(ConfigurationError, match="path to the memory backend"):
                open_store(spec)
        for spec in ("sqlite:x?history=4&history=9", "memory?history=4&history=4"):
            with pytest.raises(ConfigurationError, match="store option 'history' repeated"):
                open_store(spec)


def _drive(plan, store):
    """Replay the plan's forwards through a server backed by ``store``."""
    server = NetworkServer(detector=ReplayDetector(database=store))
    plan.provision(server)
    verdicts = []
    for batch in plan.batches:
        with store_batch(store):
            verdicts.extend(v.as_dict() for v in server.process_step(batch))
    return verdicts


class TestGoldenVerdictParity:
    def test_every_backend_is_verdict_bitwise_equal(self, plan, tmp_path):
        oracle = list(plan.oracle_verdicts)
        for label, build in store_builders(tmp_path).items():
            store = build()
            assert _drive(plan, store) == oracle, f"backend {label} diverged"
            close = getattr(store, "close", None)
            if callable(close):
                close()

    @pytest.mark.parametrize("graceful", [False, True], ids=["sqlite-crashed", "sqlite-closed"])
    def test_restart_is_bit_identical(self, plan, tmp_path, graceful):
        oracle = list(plan.oracle_verdicts)
        half = len(plan.batches) // 2
        spec = f"sqlite:{tmp_path / 'crash.sqlite'}"

        first = open_store(spec)
        before = _drive(dataclasses.replace(plan, batches=plan.batches[:half]), first)
        # A crashed first process never flushes or closes; a graceful one
        # closes before the restart.  Either way a new store opens the
        # same file, and provisioning skips the FB bootstraps because the
        # histories are already on disk.
        if graceful:
            first.close()
        survivor = open_store(spec)
        after = _drive(
            dataclasses.replace(plan, batches=plan.batches[half:]), survivor
        )
        assert before + after == oracle
        survivor.close()
        first.close()
