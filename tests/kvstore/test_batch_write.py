"""``batch_write`` edge cases: partial throttles, fault targeting,
metering parity, sharded fan-out, and replicated shipping."""

from __future__ import annotations

import pytest

from repro.kvstore import (
    KVStore,
    MAX_BATCH_WRITE_ITEMS,
    ReplicaGroup,
    ShardedStore,
    ThrottledError,
    batch_write_all,
)
from repro.kvstore.faults import FaultPolicy
from repro.sim.randsrc import RandomSource


def make_store(faults=None, shard_id=None):
    store = KVStore(faults=faults, shard_id=shard_id,
                    rand=RandomSource(7, "test"))
    store.create_table("t", hash_key="K")
    return store


def items(n, start=0):
    return [{"K": f"k{i}", "V": i} for i in range(start, start + n)]


# ---------------------------------------------------------------------------
# Basics
# ---------------------------------------------------------------------------

def test_puts_and_deletes_apply_in_one_round_trip():
    store = make_store()
    store.put("t", {"K": "old"})
    result = store.batch_write("t", puts=items(3), deletes=["old"])
    assert result.complete
    assert store.get("t", "old") is None
    assert store.get("t", "k1") == {"K": "k1", "V": 1}
    rec = store.metering.ops["batch_write"]
    assert rec.count == 1 and rec.items == 4


def test_empty_batch_is_free():
    store = make_store()
    assert store.batch_write("t").complete
    assert "batch_write" not in store.metering.ops


def test_oversized_batch_rejected():
    store = make_store()
    with pytest.raises(ValueError):
        store.batch_write("t", puts=items(MAX_BATCH_WRITE_ITEMS + 1))


def test_put_and_delete_of_same_key_rejected():
    store = make_store()
    with pytest.raises(ValueError):
        store.batch_write("t", puts=[{"K": "x"}], deletes=["x"])


def test_duplicate_keys_in_one_batch_rejected():
    # DynamoDB fails the whole request on any repeated key.
    store = make_store()
    with pytest.raises(ValueError):
        store.batch_write("t", puts=[{"K": "x", "V": 1},
                                     {"K": "x", "V": 2}])
    with pytest.raises(ValueError):
        store.batch_write("t", deletes=["x", "x"])


def test_generator_arguments_are_materialized():
    # A replicated batch fed from generators must still ship every
    # applied row to the followers.
    group = replica_group()
    group.batch_write("t", puts=(dict(item) for item in items(3)),
                      deletes=(key for key in ()))
    for follower in group.followers:
        for item in items(3):
            assert follower._tables["t"].get((item["K"],)) is not None


# ---------------------------------------------------------------------------
# Throttled partial results (DynamoDB UnprocessedItems)
# ---------------------------------------------------------------------------

def throttled_store(probability=1.0):
    return make_store(faults=FaultPolicy.for_ops(
        ["db.batch_write"], throttle_probability=probability))


def test_throttle_serves_prefix_and_reports_remainder():
    store = throttled_store()
    # Try until the partial draw serves a nonzero prefix.
    for attempt in range(20):
        try:
            result = store.batch_write("t", puts=items(10, start=attempt * 10))
        except ThrottledError:
            continue
        assert not result.complete
        served = 10 - len(result.unprocessed_puts)
        assert 0 < served < 10
        # Applied rows are exactly the prefix; the rest never landed.
        batch = items(10, start=attempt * 10)
        for i, item in enumerate(batch):
            present = store.get("t", item["K"]) is not None
            assert present == (i < served)
        return
    pytest.fail("partial batch_write never served a prefix")


def test_single_item_throttle_raises():
    store = throttled_store()
    with pytest.raises(ThrottledError):
        store.batch_write("t", puts=items(1))


def test_only_ops_scoping_leaves_point_writes_alone():
    store = throttled_store()
    store.put("t", {"K": "fine"})  # not a batch op: unaffected
    assert store.get("t", "fine") is not None


def test_batch_write_all_retries_to_completion():
    store = make_store(faults=FaultPolicy.for_ops(
        ["db.batch_write"], throttle_probability=0.6))
    batch_write_all(store, "t", puts=items(40), deletes=[])
    for item in items(40):
        assert store.get("t", item["K"]) is not None


def test_batch_write_all_falls_back_to_point_writes():
    store = throttled_store()  # every batch round throttles
    batch_write_all(store, "t", puts=items(6), attempts=2)
    for item in items(6):
        assert store.get("t", item["K"]) is not None
    # The fallback really was the point path.
    assert store.metering.ops["write"].count >= 1


# ---------------------------------------------------------------------------
# Metering parity: batched writes bill like the sequential path
# ---------------------------------------------------------------------------

def test_write_unit_parity_with_sequential_path():
    wide = {"K": "wide", "pad": "x" * 3000}  # > 1 write unit
    sequential = make_store()
    sequential.put("t", {"K": "seed-del"})
    for item in items(3):
        sequential.put("t", dict(item))
    sequential.put("t", dict(wide))
    sequential.delete("t", "seed-del")

    batched = make_store()
    batched.put("t", {"K": "seed-del"})
    base = batched.metering.copy()
    batched.batch_write("t", puts=items(3) + [dict(wide)],
                        deletes=["seed-del"])
    delta = batched.metering.diff(base)

    seq_units = (sequential.metering.ops["write"].write_units
                 + sequential.metering.ops["delete"].write_units
                 - 1.0)  # minus the seed put's unit
    assert delta["batch_write"].write_units == pytest.approx(seq_units)
    # ...at a fifth of the round trips.
    assert delta["batch_write"].count == 1


# ---------------------------------------------------------------------------
# Sharded fan-out
# ---------------------------------------------------------------------------

def sharded(faults_by_shard=None, async_io=False):
    nodes = []
    for i in range(2):
        faults = (faults_by_shard or {}).get(i)
        nodes.append(KVStore(shard_id=i, faults=faults,
                             rand=RandomSource(11 + i, "node")))
    store = ShardedStore(nodes, async_io=async_io)
    store.create_table("t", hash_key="K")
    return store


def test_sharded_batch_write_routes_and_merges():
    store = sharded()
    batch = items(8)
    assert store.batch_write("t", puts=batch).complete
    per_shard = store.items_per_shard("t")
    assert sum(per_shard) == 8 and all(count > 0 for count in per_shard)
    for item in batch:
        assert store.get("t", item["K"]) is not None


def test_sharded_rejects_a_bad_batch_before_touching_any_shard():
    """A repeated key is a malformed request: all-or-nothing on any
    placement. The repeat is of the key owned by the *highest* shard, so
    a fan-out that validated per node would have applied every lower
    shard's rows before reaching the error."""
    nodes = [KVStore(shard_id=i, rand=RandomSource(11 + i, "node"))
             for i in range(4)]
    store = ShardedStore(nodes)
    store.create_table("t", hash_key="K")
    batch = items(8)
    owners = [store.shard_for("t", item["K"]) for item in batch]
    assert len(set(owners)) > 1, "the batch must span shards"
    repeat = batch[owners.index(max(owners))]
    with pytest.raises(ValueError):
        store.batch_write("t", puts=batch + [dict(repeat)])
    assert [node.item_count("t") for node in nodes] == [0, 0, 0, 0]
    assert store.metering.op_count == 0
    # ...same as one node.
    single = make_store()
    with pytest.raises(ValueError):
        single.batch_write("t", puts=batch + [dict(repeat)])
    assert single.item_count("t") == 0
    # Oversized is rejected up front too.
    with pytest.raises(ValueError):
        store.batch_write("t", puts=items(MAX_BATCH_WRITE_ITEMS + 1))
    assert store.item_count("t") == 0


def test_only_shards_fault_targets_one_node():
    sick = FaultPolicy(throttle_probability=1.0,
                       only_ops=frozenset(["db.batch_write"]),
                       only_shards=frozenset([0]))
    store = sharded(faults_by_shard={0: sick, 1: None})
    batch = items(12)
    result = store.batch_write("t", puts=batch)
    # Shard 1's share applied; shard 0's share is unprocessed (its
    # single-shard batches raise, larger ones partially serve).
    unprocessed_keys = {item["K"] for item in result.unprocessed_puts}
    for item in batch:
        shard = store.shard_for("t", item["K"])
        present = store.get("t", item["K"]) is not None
        if shard == 1:
            assert present and item["K"] not in unprocessed_keys
        else:
            assert present == (item["K"] not in unprocessed_keys)
    assert any(store.shard_for("t", key) == 0 for key in unprocessed_keys)


def test_sharded_raises_only_when_nothing_applied_anywhere():
    throttle_all = FaultPolicy(throttle_probability=1.0,
                               only_ops=frozenset(["db.batch_write"]))
    store = sharded(faults_by_shard={0: throttle_all, 1: throttle_all})
    # Single item per shard -> every node raises -> facade raises.
    with pytest.raises(ThrottledError):
        store.batch_write("t", puts=items(1))


# ---------------------------------------------------------------------------
# Replication: applied rows ship to followers
# ---------------------------------------------------------------------------

def replica_group(async_io=False):
    leader = KVStore(rand=RandomSource(3, "leader"))
    followers = [KVStore(rand=RandomSource(4 + i, "f"))
                 for i in range(2)]
    group = ReplicaGroup(leader, followers,
                         rand=RandomSource(9, "group"),
                         lag_scale=0.0, async_io=async_io)
    group.create_table("t", hash_key="K")
    return group


@pytest.mark.parametrize("async_io", [False, True])
def test_replica_batch_write_ships_to_followers(async_io):
    group = replica_group(async_io=async_io)
    group.put("t", {"K": "gone"})
    before = group.stats.shipped
    group.batch_write("t", puts=items(4), deletes=["gone"])
    assert group.stats.shipped == before + 5
    for follower in group.followers:
        for item in items(4):
            assert follower._tables["t"].get((item["K"],)) is not None
        assert follower._tables["t"].get(("gone",)) is None
