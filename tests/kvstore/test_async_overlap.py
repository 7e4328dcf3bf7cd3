"""Overlap-scope semantics: max-not-sum, branches, capacity, nesting."""

from __future__ import annotations

from repro.core import BeldiRuntime
from repro.kvstore import KVStore, NullTimeSource, ShardedStore, overlap
from repro.sim.latency import LatencyModel, LatencySpec
from repro.sim.randsrc import RandomSource

# Deterministic distributions: median == p99 collapses sigma to zero.
SPECS = {
    "db.read": LatencySpec(median=4.0, p99=4.0),
    "db.write": LatencySpec(median=10.0, p99=10.0),
    "db.batch_write": LatencySpec(median=6.0, p99=6.0),
}


def make_store(capacity=None):
    store = KVStore(time_source=NullTimeSource(),
                    latency=LatencyModel(RandomSource(1), specs=SPECS,
                                         scale=1.0),
                    capacity=capacity)
    store.create_table("t", hash_key="K")
    return store


def fan_out(store, n=5, enabled=True):
    with overlap(store, enabled=enabled) as scope:
        for i in range(n):
            with scope.branch():
                store.put("t", {"K": i})


def test_sequential_pays_the_sum():
    store = make_store()
    for i in range(5):
        store.put("t", {"K": i})
    assert store.time.now() == 50.0


def test_overlap_pays_the_max():
    store = make_store()
    fan_out(store)
    assert store.time.now() == 10.0
    # All mutations landed regardless of the collapsed time.
    assert store.item_count("t") == 5


def test_disabled_scope_is_the_sequential_model():
    store = make_store()
    fan_out(store, enabled=False)
    assert store.time.now() == 50.0


def test_ops_within_a_branch_serialize():
    store = make_store()
    with overlap(store) as scope:
        for i in range(5):
            with scope.branch():
                store.get("t", i)          # 4 ms
                store.put("t", {"K": i})   # + 10 ms
    assert store.time.now() == 14.0


def test_capacity_still_binds_under_overlap():
    # One server: overlapped arrivals queue; two servers: halved.
    store = make_store(capacity=1)
    fan_out(store)
    assert store.time.now() == 50.0
    store = make_store(capacity=2)
    fan_out(store)
    assert store.time.now() == 30.0  # ceil(5/2) waves of 10 ms


def test_nested_scope_folds_as_a_composite_op():
    store = make_store()
    with overlap(store) as outer:
        with outer.branch():
            store.put("t", {"K": "a"})            # 0 -> 10
            with overlap(store) as inner:          # starts at 10
                for i in range(3):
                    with inner.branch():
                        store.put("t", {"K": i})   # each 10 -> 20
            store.put("t", {"K": "b"})             # 20 -> 30
        with outer.branch():
            store.put("t", {"K": "c"})             # 0 -> 10
    assert store.time.now() == 30.0


def test_sharded_fan_out_shares_one_frontier():
    nodes = [KVStore(time_source=NullTimeSource(),
                     latency=LatencyModel(RandomSource(i), specs=SPECS,
                                          scale=1.0),
                     shard_id=i)
             for i in range(2)]
    store = ShardedStore(nodes, async_io=True)
    store.create_table("t", hash_key="K")
    # 6 single-key puts, sequential: routed per shard, each pays 10.
    keys = [f"k{i}" for i in range(6)]
    with overlap(store) as scope:
        for key in keys:
            with scope.branch():
                store.put("t", {"K": key})
    # Each node's clock advanced by the shared frontier exactly once.
    assert {node.time.now() for node in store.nodes} == {10.0}


def test_runtime_batch_write_overlaps_across_shards():
    # A facade batch_write at shards=2 pays one overlapped round trip.
    runtime = BeldiRuntime(seed=3, latency_scale=1.0, shards=2)
    runtime.store.create_table("t", hash_key="K")
    items = [{"K": f"k{i}"} for i in range(8)]
    spread = {runtime.store.shard_for("t", item["K"]) for item in items}
    assert spread == {0, 1}

    elapsed = {}

    def writer():
        start = runtime.kernel.now
        runtime.store.batch_write("t", puts=items)
        elapsed["batched"] = runtime.kernel.now - start

    runtime.kernel.spawn(writer)
    runtime.kernel.run()
    per_shard = [runtime.store.nodes[shard].latency.sample(
        "db.batch_write") for shard in (0, 1)]
    # Overlapped: strictly less than any plausible two-round-trip sum.
    assert 0 < elapsed["batched"] < 2 * max(per_shard) + 50
    runtime.kernel.shutdown()
