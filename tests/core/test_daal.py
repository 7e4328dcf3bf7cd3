"""Unit tests for the linked DAAL structure and traversal."""

import pytest

from repro.core import daal
from repro.core.tailcache import TailCache
from repro.kvstore import KVStore, Set


@pytest.fixture
def store():
    s = KVStore()
    s.create_table("t", hash_key="Key", range_key="RowId")
    return s


def grow_chain(store, key, rows, capacity=4):
    """Manually build a chain of ``rows`` rows with full logs."""
    daal.ensure_head(store, "t", key, value="v0")
    prev_id = daal.HEAD_ROW_ID
    for i in range(1, rows):
        # Fill the previous row's log to capacity.
        writes = {f"inst{i}#{j}": True for j in range(capacity)}
        store.update("t", (key, prev_id),
                     [Set("RecentWrites", writes),
                      Set("LogSize", capacity)])
        prev = store.get("t", (key, prev_id))
        prev_id = daal.append_row(store, "t", key, prev, f"r{i}")
        store.update("t", (key, prev_id), [Set("Value", f"v{i}")])
    return prev_id


class TestEnsureHead:
    def test_creates_head_once(self, store):
        daal.ensure_head(store, "t", "k", value=1)
        daal.ensure_head(store, "t", "k", value=2)  # loses the race
        row = store.get("t", ("k", daal.HEAD_ROW_ID))
        assert row["Value"] == 1
        assert row["LogSize"] == 0

    def test_extra_attrs_on_head(self, store):
        daal.ensure_head(store, "t", "k", extra_attrs={"TxnId": "tx1"})
        assert store.get("t", ("k", daal.HEAD_ROW_ID))["TxnId"] == "tx1"


class TestSkeleton:
    def test_missing_chain(self, store):
        skeleton = daal.load_skeleton(store, "t", "nope")
        assert not skeleton.exists
        assert skeleton.tail is None

    def test_single_row_chain(self, store):
        daal.ensure_head(store, "t", "k")
        skeleton = daal.load_skeleton(store, "t", "k")
        assert skeleton.reachable == [daal.HEAD_ROW_ID]
        assert skeleton.tail == daal.HEAD_ROW_ID

    def test_multi_row_chain_order(self, store):
        tail = grow_chain(store, "k", rows=4)
        skeleton = daal.load_skeleton(store, "t", "k")
        assert skeleton.reachable[0] == daal.HEAD_ROW_ID
        assert skeleton.tail == tail
        assert len(skeleton.reachable) == 4

    def test_orphan_rows_ignored(self, store):
        daal.ensure_head(store, "t", "k")
        store.put("t", {"Key": "k", "RowId": "orphan", "Value": "x",
                        "RecentWrites": {}, "LogSize": 0})
        skeleton = daal.load_skeleton(store, "t", "k")
        assert skeleton.reachable == [daal.HEAD_ROW_ID]
        assert skeleton.orphans == ["orphan"]

    def test_probe_finds_logged_outcomes(self, store):
        daal.ensure_head(store, "t", "k")
        store.update("t", ("k", daal.HEAD_ROW_ID),
                     [Set("RecentWrites", {"i#0": False})])
        skeleton = daal.load_skeleton(store, "t", "k", probe_log_key="i#0")
        assert skeleton.log_hits == {daal.HEAD_ROW_ID: False}

    def test_probe_misses_other_keys(self, store):
        daal.ensure_head(store, "t", "k")
        store.update("t", ("k", daal.HEAD_ROW_ID),
                     [Set("RecentWrites", {"i#0": True})])
        skeleton = daal.load_skeleton(store, "t", "k", probe_log_key="i#9")
        assert skeleton.log_hits == {}


class TestTailValue:
    def test_missing(self, store):
        assert daal.tail_value(store, "t", "nope") == daal.MISSING

    def test_single_row(self, store):
        daal.ensure_head(store, "t", "k", value=42)
        assert daal.tail_value(store, "t", "k") == 42

    def test_tail_holds_latest(self, store):
        grow_chain(store, "k", rows=3)
        assert daal.tail_value(store, "t", "k") == "v2"


class TestTailValues:
    """The batched form: one ``batch_get`` for every tail the cache or a
    skeleton query can name, the traversal only as a repair."""

    @staticmethod
    def _ops(store, before):
        return {kind: spent.count
                for kind, spent in store.metering.diff(before).items()}

    def test_cold_keys_cost_a_query_each_and_share_the_one_batch(
            self, store):
        """A key the cache does not know learns its tail from one
        skeleton query and then rides in the same batch as the known
        ones — the commit path's shape since the fast path existed; no
        point ``get``, and an absent chain costs its query only."""
        cache = TailCache()
        grow_chain(store, "warm", rows=3)
        daal.load_skeleton(store, "t", "warm", cache=cache)
        grow_chain(store, "cold", rows=2)
        daal.ensure_head(store, "t", "head-only", value="h")
        before = store.metering.copy()
        values = daal.tail_values(
            store, "t", ["warm", "cold", "nope", "head-only"], cache)
        assert values == ["v2", "v1", daal.MISSING, "h"]
        assert self._ops(store, before) == {"query": 3, "batch_get": 1}
        # The queries filled the cache: a second call is the batch alone.
        before = store.metering.copy()
        daal.tail_values(store, "t", ["warm", "cold", "head-only"], cache)
        assert self._ops(store, before) == {"batch_get": 1}

    def test_a_tail_that_chained_since_is_repaired(self, store):
        cache = TailCache()
        daal.ensure_head(store, "t", "k", value="v0")
        daal.load_skeleton(store, "t", "k", cache=cache)
        grow_chain(store, "k", rows=2)  # the cached head row chained
        before = store.metering.copy()
        assert daal.tail_values(store, "t", ["k"], cache) == ["v1"]
        assert self._ops(store, before) == {"batch_get": 1, "query": 1,
                                            "read": 1}
        assert cache.tail_of("t", "k").row_id == "r1"

    def test_without_a_cache_every_key_is_traversed(self, store):
        grow_chain(store, "a", rows=2)
        before = store.metering.copy()
        values = daal.tail_values(store, "t", ["a", "nope"], None)
        assert values == ["v1", daal.MISSING]
        assert self._ops(store, before) == {"query": 2, "read": 1}


class TestAppendRow:
    def test_append_extends_chain(self, store):
        daal.ensure_head(store, "t", "k", value="v")
        head = store.get("t", ("k", daal.HEAD_ROW_ID))
        new_id = daal.append_row(store, "t", "k", head, "r1")
        assert new_id == "r1"
        assert store.get("t", ("k", daal.HEAD_ROW_ID))["NextRow"] == "r1"
        row = store.get("t", ("k", "r1"))
        assert row["Value"] == "v"  # value carried forward
        assert row["LogSize"] == 0

    def test_append_race_loser_adopts_winner(self, store):
        daal.ensure_head(store, "t", "k", value="v")
        head = store.get("t", ("k", daal.HEAD_ROW_ID))
        winner = daal.append_row(store, "t", "k", head, "rA")
        # Second appender holds a stale view of the head.
        loser = daal.append_row(store, "t", "k", head, "rB")
        assert winner == "rA"
        assert loser == "rA"  # adopted the winner
        skeleton = daal.load_skeleton(store, "t", "k")
        assert skeleton.reachable == [daal.HEAD_ROW_ID, "rA"]
        assert "rB" in skeleton.orphans

    def test_append_with_the_filled_row_in_hand_is_two_round_trips(
            self, store):
        """What the filling writer pays: the row its update returned is
        the snapshot, so the append is a put and a CAS — no ``get``."""
        daal.ensure_head(store, "t", "k", value="v")
        filled = store.update("t", ("k", daal.HEAD_ROW_ID),
                              [Set("RecentWrites", {"i#0": True}),
                               daal.bump_version()])
        before = store.metering.copy()
        between = []
        daal.append_row(
            store, "t", "k", filled, "r1",
            after_put=lambda: between.append(
                (store.get("t", ("k", "r1")) is not None,
                 "NextRow" in store.get("t", ("k", daal.HEAD_ROW_ID)))))
        # The hook ran with the candidate put and the link not yet made.
        assert between == [(True, False)]
        counts = {op: rec.count
                  for op, rec in store.metering.diff(before).items()}
        assert counts == {"write": 1, "cond_write": 1,
                          "read": 2}  # the hook's own two gets
        assert daal.load_skeleton(store, "t", "k").reachable == [
            daal.HEAD_ROW_ID, "r1"]

    def test_a_lost_append_race_is_counted(self, store):
        cache = TailCache()
        daal.ensure_head(store, "t", "k", value="v")
        head = store.get("t", ("k", daal.HEAD_ROW_ID))
        daal.append_row(store, "t", "k", head, "rA", cache=cache)
        assert cache.stats.append_races_lost == 0
        daal.append_row(store, "t", "k", head, "rB", cache=cache)
        assert cache.stats.append_races_lost == 1
        assert cache.peek_tail("t", "k").row_id == "rA"

    def test_append_carries_lock_owner(self, store):
        daal.ensure_head(store, "t", "k", value="v")
        store.update("t", ("k", daal.HEAD_ROW_ID),
                     [Set("LockOwner", {"Id": "tx9", "Ts": 5.0})])
        head = store.get("t", ("k", daal.HEAD_ROW_ID))
        daal.append_row(store, "t", "k", head, "r1")
        assert store.get("t", ("k", "r1"))["LockOwner"]["Id"] == "tx9"


class TestFlushAndRelease:
    def _lock(self, store, key, txn_id):
        daal.ensure_head(store, "t", key, value={"n": 0})
        store.update("t", (key, daal.HEAD_ROW_ID),
                     [Set("LockOwner", {"Id": txn_id, "Ts": 1.0})])

    def test_flush_installs_value_and_unlocks(self, store):
        self._lock(store, "k", "tx1")
        assert daal.flush_value(store, "t", "k", {"n": 9}, "tx1")
        row = store.get("t", ("k", daal.HEAD_ROW_ID))
        assert row["Value"] == {"n": 9}
        assert "LockOwner" not in row

    def test_flush_is_idempotent(self, store):
        self._lock(store, "k", "tx1")
        assert daal.flush_value(store, "t", "k", {"n": 9}, "tx1")
        assert not daal.flush_value(store, "t", "k", {"n": 9}, "tx1")
        assert daal.tail_value(store, "t", "k") == {"n": 9}

    def test_flush_respects_foreign_lock(self, store):
        self._lock(store, "k", "tx-other")
        assert not daal.flush_value(store, "t", "k", {"n": 9}, "tx1")
        assert daal.tail_value(store, "t", "k") == {"n": 0}

    def test_release_lock(self, store):
        self._lock(store, "k", "tx1")
        assert daal.release_lock(store, "t", "k", "tx1")
        assert "LockOwner" not in store.get("t", ("k", daal.HEAD_ROW_ID))

    def test_release_is_idempotent(self, store):
        self._lock(store, "k", "tx1")
        assert daal.release_lock(store, "t", "k", "tx1")
        assert not daal.release_lock(store, "t", "k", "tx1")


class TestAllKeys:
    def test_lists_distinct_keys(self, store):
        daal.ensure_head(store, "t", "a")
        daal.ensure_head(store, "t", "b")
        grow_chain(store, "c", rows=3)
        assert sorted(daal.all_keys(store, "t")) == ["a", "b", "c"]

    def test_chain_length(self, store):
        grow_chain(store, "k", rows=5)
        assert daal.chain_length(store, "t", "k") == 5
