"""``ReplicaGroup``/``ReplicatedStore``: lag, routing, pricing, failover."""

import pytest

from repro.core import BeldiConfig, BeldiRuntime
from repro.kvstore import (
    KVStore,
    ReadConsistency,
    ReplicaGroup,
    ReplicatedStore,
    Set,
    ShardedStore,
    TransactPut,
    TransactUpdate,
)
from repro.kvstore.faults import FaultPolicy
from repro.kvstore.metering import normalize_consistency
from repro.kvstore.store import NullTimeSource
from repro.sim import LatencyModel, RandomSource

EVENTUAL = ReadConsistency.EVENTUAL
SHIP_LAG = 250.0  # >= any clamped ship delay (DEFAULT_MAX_LAG_MS)


def make_group(n_replicas=3, lag_scale=1.0, faults=None, max_lag=250.0,
               seed=7):
    """One replica group with a shared manual clock and real lag."""
    clock = NullTimeSource()
    nodes = [KVStore(time_source=clock, rand=RandomSource(seed + i, "n"),
                     shard_id=0)
             for i in range(n_replicas)]
    group = ReplicaGroup(
        nodes[0], nodes[1:], rand=RandomSource(seed, "repl"),
        latency=LatencyModel(RandomSource(seed, "repl-lat")),
        faults=faults, max_lag=max_lag, lag_scale=lag_scale)
    group.create_table("data", hash_key="Key")
    return group, clock


class TestConsistencyModes:
    def test_normalize_accepts_enum_and_strings(self):
        assert normalize_consistency(None) is None
        assert normalize_consistency("strong") is None
        assert normalize_consistency("eventual") == "eventual"
        assert normalize_consistency(ReadConsistency.STRONG) is None
        assert normalize_consistency(ReadConsistency.EVENTUAL) == "eventual"
        with pytest.raises(ValueError):
            normalize_consistency("linearizable")

    def test_eventual_read_prices_half_even_unreplicated(self):
        store = KVStore()
        store.create_table("data", hash_key="Key")
        store.put("data", {"Key": "a", "V": 1})
        strong_before = store.metering.total("read_units")
        store.get("data", "a")
        strong_units = store.metering.total("read_units") - strong_before
        eventual_before = store.metering.total("read_units")
        store.get("data", "a", consistency="eventual")
        eventual_units = (store.metering.total("read_units")
                          - eventual_before)
        assert eventual_units == pytest.approx(0.5 * strong_units)
        assert store.metering.per_table_eventual["data"] == 1


class TestLagModel:
    def test_follower_read_is_stale_within_bound_then_converges(self):
        group, clock = make_group()
        group.put("data", {"Key": "a", "V": "new"})
        # Immediately after the write the follower may not have it yet.
        assert group.get("data", "a") == {"Key": "a", "V": "new"}
        stale = group.get("data", "a", consistency=EVENTUAL)
        assert stale is None  # lagging: bounded-stale view
        clock.sleep(SHIP_LAG + 1)
        caught_up = group.get("data", "a", consistency=EVENTUAL)
        assert caught_up == {"Key": "a", "V": "new"}
        assert all(lag == 0 for lag in group.replication_lag().values())

    def test_lag_zero_follower_is_always_current(self):
        group, _clock = make_group(lag_scale=0.0)
        for i in range(10):
            group.put("data", {"Key": f"k{i}", "V": i})
            assert group.get("data", f"k{i}",
                             consistency=EVENTUAL)["V"] == i

    def test_application_preserves_write_order(self):
        group, clock = make_group()
        for version in range(5):
            group.update("data", ("a",), [Set("V", version)])
            clock.sleep(3.0)
        clock.sleep(SHIP_LAG)
        assert group.get("data", "a", consistency=EVENTUAL)["V"] == 4

    def test_delete_ships_a_tombstone(self):
        group, clock = make_group()
        group.put("data", {"Key": "a", "V": 1})
        clock.sleep(SHIP_LAG + 1)
        assert group.get("data", "a", consistency=EVENTUAL) is not None
        group.delete("data", "a")
        clock.sleep(SHIP_LAG + 1)
        assert group.get("data", "a", consistency=EVENTUAL) is None

    def test_eventual_reads_have_item_affinity(self):
        """The same item's eventual reads always land on one follower,
        so multi-op reads (chain traversals) observe a monotonic state."""
        group, clock = make_group(n_replicas=4)
        group.put("data", {"Key": "a", "V": 1})
        clock.sleep(SHIP_LAG + 1)
        for _ in range(8):
            group.get("data", "a", consistency=EVENTUAL)
        served = [n for n in group.followers
                  if n.metering.ops.get("read")
                  and n.metering.ops["read"].count]
        assert len(served) == 1

    def test_eventual_batch_get_respects_item_affinity(self):
        """A batched eventual read routes each key to its affine
        follower — the same one its point reads use — so an item never
        goes backwards in time between a batch and a point read."""
        group, clock = make_group(n_replicas=4)
        keys = [f"k{i}" for i in range(12)]
        for key in keys:
            group.put("data", {"Key": key, "V": key})
        clock.sleep(SHIP_LAG + 1)
        batch = group.batch_get("data", keys, consistency=EVENTUAL)
        assert [row["V"] for row in batch] == keys
        # Point-read each key; per-node read counts must not change
        # distribution shape: every key's point read hits the follower
        # that served it in the batch, so the set of followers with
        # reads stays the same.
        served_after_batch = {id(n) for n in group.followers
                              if n.metering.ops.get("batch_get")}
        for key in keys:
            group.get("data", key, consistency=EVENTUAL)
        served_after_points = {id(n) for n in group.followers
                               if n.metering.ops.get("read")}
        assert served_after_points == served_after_batch

    def test_transact_write_ships_all_rows(self):
        group, clock = make_group()
        group.put("data", {"Key": "b", "V": 0})
        clock.sleep(SHIP_LAG + 1)
        group.transact_write([
            TransactPut("data", {"Key": "a", "V": "A"}),
            TransactUpdate("data", ("b",), [Set("V", "B")]),
        ])
        clock.sleep(SHIP_LAG + 1)
        assert group.get("data", "a", consistency=EVENTUAL)["V"] == "A"
        assert group.get("data", "b", consistency=EVENTUAL)["V"] == "B"

    def test_direct_view_writes_replicate_immediately(self):
        group, _clock = make_group()
        view = group.table("data")
        view.put({"Key": "seeded", "V": 9})
        for node in group.followers:
            assert node._tables["data"].get(("seeded",))["V"] == 9


class TestMetering:
    def test_group_books_merge_leader_and_followers(self):
        group, clock = make_group()
        group.put("data", {"Key": "a", "V": 1})
        clock.sleep(SHIP_LAG + 1)
        group.get("data", "a")
        group.get("data", "a", consistency=EVENTUAL)
        merged = group.metering
        assert merged.ops["write"].count == 1
        assert merged.ops["read"].count == 2
        assert merged.ops["read"].eventual_count == 1
        assert merged.per_table_eventual["data"] == 1

    def test_log_application_is_unmetered(self):
        """Internal replication traffic costs nothing — DynamoDB does
        not bill for it either."""
        group, clock = make_group()
        for i in range(20):
            group.put("data", {"Key": f"k{i}", "V": i})
        clock.sleep(SHIP_LAG + 1)
        group.get("data", "k0", consistency=EVENTUAL)  # forces a drain
        for node in group.followers:
            assert "write" not in node.metering.ops
            assert node.metering.total("write_units") == 0


class TestFailover:
    def test_promotes_and_loses_no_acknowledged_write(self):
        group, _clock = make_group()
        for i in range(12):
            group.put("data", {"Key": f"k{i}", "V": i})
        # Followers are still lagging; fail the leader now.
        assert any(lag > 0 for lag in group.replication_lag().values())
        promoted = group.fail_leader()
        assert promoted in (1, 2)
        assert group.stats.failovers == 1
        assert group.stats.replayed > 0
        # The promoted state serves every acknowledged write.
        for i in range(12):
            assert group.get("data", f"k{i}")["V"] == i

    def test_leader_crash_scope_names_the_op_that_is_paid(self):
        """``only_ops`` scopes a leader crash by the operation's declared
        latency op, the same name a throttle scope uses: ``query`` and
        ``query_index`` are ``db.query``, ``scan`` is ``db.scan``."""
        def failovers_after(only_op, call):
            group, _clock = make_group(faults=FaultPolicy(
                leader_crash_probability=1.0,
                only_ops=frozenset([only_op])))
            group.table("data").add_index("by_v", "V")
            call(group)
            return group.stats.failovers

        calls = {
            "db.read": lambda g: g.get("data", "a"),
            "db.query": lambda g: g.query("data", "a"),
            "db.scan": lambda g: g.scan("data"),
            "db.batch_read": lambda g: g.batch_get("data", ["a"]),
            "db.write": lambda g: g.put("data", {"Key": "a"}),
            "db.delete": lambda g: g.delete("data", "a"),
        }
        for scope in calls:
            for op, call in calls.items():
                assert failovers_after(scope, call) == (
                    1 if op == scope else 0), (scope, op)
        assert failovers_after(
            "db.query", lambda g: g.query_index("data", "by_v", 1)) == 1

    def test_promotes_most_caught_up_follower(self):
        group, clock = make_group(n_replicas=3)
        group.put("data", {"Key": "a", "V": 1})
        clock.sleep(SHIP_LAG + 1)
        # Both followers caught up; now write again and drain only one
        # by making its shipped record visible via a direct read.
        group.put("data", {"Key": "b", "V": 2})
        lags = group.replication_lag()
        best = min(lags, key=lambda index: (lags[index], index))
        promoted = group.fail_leader()
        drained = {index: lag for index, lag in lags.items() if lag == 0}
        if drained:
            assert promoted in drained or lags[promoted] == min(
                lags.values())
        assert group.get("data", "b")["V"] == 2
        assert best is not None  # exercised the selection path

    def test_old_leader_rejoins_and_next_failover_works(self):
        group, clock = make_group()
        group.put("data", {"Key": "a", "V": 1})
        first = group.fail_leader()
        group.put("data", {"Key": "a", "V": 2})
        second = group.fail_leader()
        assert first != second or group.stats.failovers == 2
        assert group.get("data", "a")["V"] == 2
        clock.sleep(SHIP_LAG + 1)
        assert group.get("data", "a", consistency=EVENTUAL)["V"] == 2

    def test_fault_policy_injects_failover_on_writes(self):
        crashy = FaultPolicy(leader_crash_probability=1.0)
        group, _clock = make_group(faults=crashy)
        group.put("data", {"Key": "a", "V": 1})
        assert group.stats.failovers >= 1
        assert group.get("data", "a")["V"] == 1

    def test_failover_pays_latency(self):
        clock = NullTimeSource()
        nodes = [KVStore(time_source=clock, shard_id=0) for _ in range(3)]
        group = ReplicaGroup(
            nodes[0], nodes[1:], rand=RandomSource(1, "repl"),
            latency=LatencyModel(RandomSource(1, "repl-lat"), scale=1.0))
        group.create_table("data", hash_key="Key")
        group.put("data", {"Key": "a", "V": 1})
        before = clock.now()
        group.fail_leader()
        assert clock.now() > before  # repl.failover latency was paid

    def test_single_replica_group_cannot_fail_over(self):
        clock = NullTimeSource()
        group = ReplicaGroup(KVStore(time_source=clock), [],
                             rand=RandomSource(2, "repl"))
        group.create_table("data", hash_key="Key")
        with pytest.raises(ValueError):
            group.fail_leader()
        # Eventual reads degrade gracefully to the leader at half price.
        group.put("data", {"Key": "a", "V": 1})
        assert group.get("data", "a", consistency=EVENTUAL)["V"] == 1
        assert group.metering.per_table_eventual["data"] == 1


class TestReplicatedStoreFacade:
    def make_store(self, shards=2, replicas=3, lag_scale=1.0):
        clock = NullTimeSource()
        groups = []
        for shard in range(shards):
            nodes = [KVStore(time_source=clock,
                             rand=RandomSource(shard * 10 + i, "n"),
                             shard_id=shard)
                     for i in range(replicas)]
            groups.append(ReplicaGroup(
                nodes[0], nodes[1:],
                rand=RandomSource(shard, "repl"),
                latency=LatencyModel(RandomSource(shard, "repl-lat")),
                lag_scale=lag_scale))
        store = ReplicatedStore(groups)
        store.create_table("data", hash_key="Key")
        return store, clock

    def test_facade_routes_and_reads_back(self):
        store, _clock = self.make_store()
        for i in range(30):
            store.put("data", {"Key": f"k{i}", "V": i})
        for i in range(30):
            assert store.get("data", f"k{i}")["V"] == i
        assert store.item_count("data") == 30
        assert sum(store.items_per_shard("data")) == 30

    def test_eventual_scan_and_query_index_fan_out(self):
        store, clock = self.make_store()
        store.table("data").add_index("by_flag", "Flag")
        for i in range(20):
            store.put("data", {"Key": f"k{i}", "V": i,
                               "Flag": "on" if i % 2 else "off"})
        clock.sleep(SHIP_LAG + 1)
        result = store.scan("data", consistency=EVENTUAL)
        assert {item["Key"] for item in result.items} == {
            f"k{i}" for i in range(20)}
        hits = store.query_index("data", "by_flag", "on",
                                 consistency=EVENTUAL)
        assert sorted(h["V"] for h in hits) == list(range(1, 20, 2))

    def test_cross_shard_transaction_replicates_everywhere(self):
        store, clock = self.make_store()
        keys, shards_seen = [], set()
        for i in range(100):
            shard = store.shard_for("data", f"t{i}")
            if shard not in shards_seen:
                shards_seen.add(shard)
                keys.append(f"t{i}")
            if len(keys) == 2:
                break
        store.transact_write([
            TransactPut("data", {"Key": keys[0], "V": "A"}),
            TransactPut("data", {"Key": keys[1], "V": "B"}),
        ])
        clock.sleep(SHIP_LAG + 1)
        assert store.get("data", keys[0],
                         consistency=EVENTUAL)["V"] == "A"
        assert store.get("data", keys[1],
                         consistency=EVENTUAL)["V"] == "B"

    def test_replication_stats_aggregate(self):
        store, _clock = self.make_store()
        for i in range(10):
            store.put("data", {"Key": f"k{i}", "V": i})
        assert store.replication_stats.shipped == 10
        assert set(store.replication_lag()) == {0, 1}

    def test_seeding_through_view_reaches_followers(self):
        store, _clock = self.make_store()
        view = store.table("data")
        view.put({"Key": "seeded", "V": 42})
        group = store.nodes[store.shard_for("data", "seeded")]
        for node in group.followers:
            assert node._tables["data"].get(("seeded",))["V"] == 42


class TestRuntimeIntegration:
    def test_replicas_1_is_plain_sharded_store(self):
        runtime = BeldiRuntime(seed=5, shards=2, replicas=1)
        assert type(runtime.store) is ShardedStore
        runtime.kernel.shutdown()

    def test_replicas_1_matches_sharded_run_bit_for_bit(self):
        """`replicas=1` must reproduce the PR-2 ShardedStore behavior
        exactly: same virtual clock, same metering books."""
        def run(**kwargs):
            runtime = BeldiRuntime(seed=5, latency_scale=1.0, shards=2,
                                   config=BeldiConfig(gc_t=1e12), **kwargs)

            def profile(ctx, payload):
                record = ctx.read("profiles", payload["u"]) or {"n": 0}
                record = {"n": record["n"] + 1}
                ctx.write("profiles", payload["u"], record)
                return record

            ssf = runtime.register_ssf("profile", profile,
                                       tables=["profiles"])
            for i in range(4):
                ssf.env.seed("profiles", f"u{i}", {"n": 0})
            results = [runtime.run_workflow("profile", {"u": f"u{i % 4}"})
                       for i in range(8)]
            now = runtime.kernel.now
            snapshot = runtime.store.metering.snapshot()
            runtime.kernel.shutdown()
            return results, now, snapshot

        baseline = run()
        explicit = run(replicas=1)
        assert explicit == baseline

    def test_replicated_runtime_strong_matches_unreplicated(self):
        """With replication on but reads strong, the leader's rand and
        latency streams are untouched — the same workload produces the
        same clock and the same books."""
        def run(**kwargs):
            runtime = BeldiRuntime(seed=6, latency_scale=1.0, shards=2,
                                   config=BeldiConfig(gc_t=1e12), **kwargs)

            def profile(ctx, payload):
                record = ctx.read("profiles", payload["u"]) or {"n": 0}
                ctx.write("profiles", payload["u"],
                          {"n": record["n"] + 1})
                return record

            ssf = runtime.register_ssf("profile", profile,
                                       tables=["profiles"])
            for i in range(4):
                ssf.env.seed("profiles", f"u{i}", {"n": 0})
            for i in range(8):
                runtime.run_workflow("profile", {"u": f"u{i % 4}"})
            now = runtime.kernel.now
            snapshot = runtime.store.metering.snapshot()
            runtime.kernel.shutdown()
            return now, snapshot

        assert run() == run(replicas=3, read_consistency="strong")

    def test_read_consistency_validated(self):
        with pytest.raises(ValueError):
            BeldiRuntime(read_consistency="bogus")
        with pytest.raises(ValueError):
            BeldiRuntime(replicas=0)

    def test_read_eventual_replays_deterministically(self):
        """A logged eventual read returns the logged value on replay
        even though the underlying store moved on."""
        from repro.core import ops as core_ops

        runtime = BeldiRuntime(seed=9, shards=1, replicas=2,
                               read_consistency="eventual",
                               replication_lag_scale=0.0)

        captured = {}

        def reader(ctx, payload):
            captured["ctx"] = ctx
            return ctx.read_eventual("items", "a")

        ssf = runtime.register_ssf("reader", reader, tables=["items"])
        ssf.env.seed("items", "a", {"v": "first"})
        assert runtime.run_workflow("reader", {}) == {"v": "first"}
        # Replay the logged step by hand: the store value changes, the
        # logged read does not.
        ctx = captured["ctx"]
        ssf.env.seed("items", "a", {"v": "second"})
        ctx._step = 0
        replayed = core_ops.read_only_op(
            ctx, ssf.env.data_table("items"), "a",
            consistency="eventual")
        assert replayed == {"v": "first"}
        runtime.kernel.shutdown()
