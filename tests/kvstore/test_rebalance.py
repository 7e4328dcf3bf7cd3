"""Live chain migration: moves, recovery, latching, detector trigger."""

import pytest

from repro.kvstore import (
    ChainMigrator,
    ElasticityController,
    KVStore,
    KernelTimeSource,
    ReplicaGroup,
    ReplicatedStore,
    Set,
    ShardedStore,
    placement_residue,
    recover_stale_migrations,
)
from repro.kvstore.rebalance import MIGRATIONS_TABLE
from repro.kvstore.surface import route_token
from repro.sim import LatencyModel, RandomSource, SimKernel


def make_store(n=3):
    store = ShardedStore([KVStore(rand=RandomSource(i, "node"),
                                  shard_id=i) for i in range(n)])
    store.create_table("data", hash_key="Key", range_key="RowId")
    return store


def seed_chain(store, key, rows=("HEAD", "r1", "r2")):
    for row_id in rows:
        store.put("data", {"Key": key, "RowId": row_id, "V": row_id,
                           "RecentWrites": {"w": True},
                           "LockOwner": {"Id": "i-1", "Ts": 1.0}})
    return store.shard_for("data", key)


class TestMigrate:
    def test_moves_whole_chain_and_installs_forward(self):
        store = make_store()
        source = seed_chain(store, "item-1")
        target = (source + 1) % 3
        moved_keys = []
        migrator = ChainMigrator(
            store, on_moved=lambda t, k: moved_keys.append((t, k)))
        assert migrator.migrate([("data", "item-1", target)]) == 1
        assert store.shard_for("data", "item-1") == target
        # Every row — embedded write log and lock marker included —
        # lives on the target and nothing stayed behind.
        assert store.nodes[target].item_count("data") == 3
        assert store.nodes[source].item_count("data") == 0
        row = store.get("data", ("item-1", "r1"))
        assert row["RecentWrites"] == {"w": True}
        assert row["LockOwner"]["Id"] == "i-1"
        assert placement_residue(store) == []
        assert moved_keys == [("data", "item-1")]
        record = store.get(MIGRATIONS_TABLE,
                           route_token("data", "item-1"))
        assert record["Phase"] == "done"
        assert migrator.stats.rows_moved == 3

    def test_move_to_current_owner_is_a_noop(self):
        store = make_store()
        owner = seed_chain(store, "item-2")
        migrator = ChainMigrator(store)
        assert migrator.migrate([("data", "item-2", owner)]) == 0
        assert store.get(MIGRATIONS_TABLE,
                         route_token("data", "item-2")) is None

    def test_latched_token_is_skipped(self):
        store = make_store()
        source = seed_chain(store, "item-3")
        migrator = ChainMigrator(store)
        token = route_token("data", "item-3")
        store._latched.add(token)
        try:
            assert migrator.migrate(
                [("data", "item-3", (source + 1) % 3)]) == 0
            assert migrator.stats.skipped == 1
        finally:
            store._latched.discard(token)

    def test_second_move_reuses_the_record(self):
        store = make_store()
        source = seed_chain(store, "item-4")
        migrator = ChainMigrator(store)
        first, second = (source + 1) % 3, (source + 2) % 3
        migrator.migrate([("data", "item-4", first)])
        migrator.migrate([("data", "item-4", second)])
        assert store.shard_for("data", "item-4") == second
        assert placement_residue(store) == []
        record = store.get(MIGRATIONS_TABLE,
                           route_token("data", "item-4"))
        assert (record["Phase"], record["Target"]) == ("done", second)

    def test_duplicate_tokens_in_one_batch_move_once(self):
        """Two moves of the same token in one batch must not fight over
        the migration record: the first wins, the duplicate is skipped,
        and no rows land on a shard routing doesn't point at."""
        store = make_store()
        source = seed_chain(store, "item-dup")
        migrator = ChainMigrator(store)
        first, second = (source + 1) % 3, (source + 2) % 3
        assert migrator.migrate([("data", "item-dup", first),
                                 ("data", "item-dup", second)]) == 1
        assert migrator.stats.skipped == 1
        assert store.shard_for("data", "item-dup") == first
        assert placement_residue(store) == []
        record = store.get(MIGRATIONS_TABLE,
                           route_token("data", "item-dup"))
        assert (record["Phase"], record["Target"]) == ("done", first)

    def test_migration_is_metered_separately(self):
        store = make_store()
        source = seed_chain(store, "item-5")
        migrator = ChainMigrator(store)
        migrator.migrate([("data", "item-5", (source + 1) % 3)])
        book = migrator.stats.metering
        assert book.ops["migrate_read"].items == 3
        assert book.ops["migrate_write"].items == 3
        assert book.ops["migrate_delete"].items == 3
        assert migrator.stats.dollars() > 0


class TestRecovery:
    def _crashed_copy(self, store):
        """Forge the state a crash right after the copy leaves behind:
        record in 'copy', full target copy, source still authoritative."""
        source = seed_chain(store, "item-r")
        target = (source + 1) % 3
        migrator = ChainMigrator(store)
        token = route_token("data", "item-r")
        store.put(MIGRATIONS_TABLE,
                  {"Token": token, "Table": "data", "Key": "item-r",
                   "Source": source, "Target": target, "Phase": "copy",
                   "StartedAt": 0.0})
        for row in store.nodes[source].query("data", "item-r").items:
            store.nodes[target].put("data", row)
        # A real crashed migrate() bumps the epoch before latching —
        # forge that too, or the epoch gate rightly skips the scan.
        store._migration_epoch = getattr(store, "_migration_epoch",
                                         0) + 1
        return migrator, token, source, target

    def test_copy_phase_rolls_back(self):
        store = make_store()
        migrator, token, source, target = self._crashed_copy(store)
        assert placement_residue(store) != []
        assert recover_stale_migrations(store, migrator) == 1
        assert migrator.stats.rolled_back == 1
        # Source stayed authoritative; the partial copy is gone, and so
        # is the record (the source was the pure hash placement).
        assert store.shard_for("data", "item-r") == source
        assert store.nodes[target].item_count("data") == 0
        assert store.get(MIGRATIONS_TABLE, token) is None
        assert placement_residue(store) == []

    def test_committed_phase_rolls_forward(self):
        store = make_store()
        source = seed_chain(store, "item-f")
        target = (source + 1) % 3
        migrator = ChainMigrator(store)
        token = route_token("data", "item-f")
        # Crash after commit: record committed, both sides hold rows,
        # in-memory forward lost with the worker.
        store.put(MIGRATIONS_TABLE,
                  {"Token": token, "Table": "data", "Key": "item-f",
                   "Source": source, "Target": target,
                   "Phase": "committed", "StartedAt": 0.0})
        for row in store.nodes[source].query("data", "item-f").items:
            store.nodes[target].put("data", row)
        store._migration_epoch = getattr(store, "_migration_epoch",
                                         0) + 1
        assert recover_stale_migrations(store, migrator) == 1
        assert migrator.stats.rolled_forward == 1
        assert store.shard_for("data", "item-f") == target
        assert store.nodes[source].item_count("data") == 0
        assert store.get(MIGRATIONS_TABLE, token)["Phase"] == "done"
        assert placement_residue(store) == []

    @pytest.mark.parametrize("flipped", [False, True])
    def test_an_unrecovered_move_lists_each_row_once(self, flipped):
        """Between a worker's crash and the GC's phase 0 the item sits
        on two nodes. Keyed operations route past the stray copy; a scan
        must not list it either (``daal.all_keys`` counted one booking
        twice) — whether the crash came before routing flipped or
        after."""
        store = make_store()
        seed_chain(store, "other")
        migrator, token, source, target = self._crashed_copy(store)
        if flipped:
            store.update(MIGRATIONS_TABLE, token,
                         [Set("Phase", "committed")])
            store.ring.set_forward(token, target)
        expected = sorted((key, row_id) for key in ("item-r", "other")
                          for row_id in ("HEAD", "r1", "r2"))

        def listed():
            return sorted((row["Key"], row["RowId"])
                          for row in store.scan("data").items)

        assert store.nodes[source].item_count("data") >= 3
        assert store.nodes[target].item_count("data") >= 3
        assert listed() == expected
        assert recover_stale_migrations(store, migrator) == 1
        assert placement_residue(store) == []
        assert listed() == expected

    def test_latched_record_left_alone(self):
        store = make_store()
        migrator, token, source, target = self._crashed_copy(store)
        store._latched.add(token)
        try:
            assert recover_stale_migrations(store, migrator) == 0
            assert store.get(MIGRATIONS_TABLE, token)["Phase"] == "copy"
        finally:
            store._latched.discard(token)
        assert recover_stale_migrations(store, migrator) == 1

    def test_idle_store_never_scans(self):
        """An elastic store that never migrated anything must not pay
        the record scan at all — GC on an idle elastic runtime stays
        bit-for-bit the non-elastic timeline."""
        store = make_store()
        ChainMigrator(store)  # arms elasticity, creates the meta table
        assert recover_stale_migrations(store) == 0
        assert "scan" not in store.metering.ops

    def test_recovery_scan_is_epoch_gated(self):
        store = make_store()
        source = seed_chain(store, "item-e")
        migrator = ChainMigrator(store)
        migrator.migrate([("data", "item-e", (source + 1) % 3)])
        scans_before = store.metering.ops.get("scan")
        scans_before = scans_before.count if scans_before else 0
        assert recover_stale_migrations(store, migrator) == 0
        first = store.metering.ops["scan"].count
        assert first > scans_before  # the sweep scanned the records
        # No migration activity since the sweep: the scan is skipped.
        assert recover_stale_migrations(store, migrator) == 0
        assert store.metering.ops["scan"].count == first


class TestReplicatedMigration:
    def _replicated_store(self):
        groups = []
        for i in range(2):
            leader = KVStore(rand=RandomSource(i, "leader"), shard_id=i)
            followers = [KVStore(rand=RandomSource(10 * i + j, "f"),
                                 shard_id=i) for j in range(2)]
            groups.append(ReplicaGroup(
                leader, followers, rand=RandomSource(i, "grp"),
                lag_scale=0.0))
        store = ReplicatedStore(groups)
        store.create_table("data", hash_key="Key", range_key="RowId")
        return store

    def test_group_migrates_as_a_unit(self):
        store = self._replicated_store()
        for row_id in ("HEAD", "r1"):
            store.put("data", {"Key": "item-g", "RowId": row_id})
        source = store.shard_for("data", "item-g")
        target = 1 - source
        migrator = ChainMigrator(store)
        assert migrator.migrate([("data", "item-g", target)]) == 1
        assert store.shard_for("data", "item-g") == target
        # The copy reached the target group's followers through the
        # ordinary replication log, and the source's followers saw the
        # delete tombstones — every replica agrees on placement.
        for node in store.groups[target].nodes:
            assert node.item_count("data") == 2
        for node in store.groups[source].nodes:
            assert node.item_count("data") == 0
        assert placement_residue(store) == []


class TestConcurrencySafety:
    def _kernel_store(self, kernel, n=2):
        nodes = [KVStore(time_source=KernelTimeSource(kernel),
                         latency=LatencyModel(RandomSource(i, "lat")),
                         rand=RandomSource(i, "store"), shard_id=i)
                 for i in range(n)]
        store = ShardedStore(nodes)
        store.create_table("data", hash_key="Key", range_key="RowId")
        return store

    def test_concurrent_write_lands_after_the_move(self):
        """An inline write issued while the chain is mid-migration must
        wait out the latch and land on the *target* — the lost-update
        scenario the latch exists for."""
        kernel = SimKernel(seed=1)
        store = self._kernel_store(kernel)
        store.put("data", {"Key": "item-c", "RowId": "HEAD", "V": 0})
        source = store.shard_for("data", "item-c")
        target = 1 - source
        migrator = ChainMigrator(store)

        def migrate():
            migrator.migrate([("data", "item-c", target)])

        def write():
            # Spawned second (strictly after the migration latched).
            store.put("data", {"Key": "item-c", "RowId": "HEAD", "V": 7})

        kernel.spawn(migrate)
        kernel.spawn(write, delay=0.1)
        kernel.run()
        kernel.shutdown()
        assert store.shard_for("data", "item-c") == target
        assert store.get("data", ("item-c", "HEAD"))["V"] == 7
        assert store.nodes[source].item_count("data") == 0
        assert placement_residue(store) == []

    def test_in_flight_write_is_drained_before_the_copy(self):
        """A write that already routed to the source (sleeping in its
        latency) when the migration starts must be included in the
        copy — the migrator drains in-flight operations first."""
        kernel = SimKernel(seed=2)
        store = self._kernel_store(kernel)
        store.put("data", {"Key": "item-d", "RowId": "HEAD", "V": 0})
        source = store.shard_for("data", "item-d")
        target = 1 - source
        migrator = ChainMigrator(store)

        def write():
            store.put("data", {"Key": "item-d", "RowId": "HEAD", "V": 9})

        def migrate():
            migrator.migrate([("data", "item-d", target)])

        kernel.spawn(write)
        kernel.spawn(migrate, delay=0.1)
        kernel.run()
        kernel.shutdown()
        assert store.get("data", ("item-d", "HEAD"))["V"] == 9
        assert placement_residue(store) == []


class TestController:
    def test_detector_triggers_and_rebalances(self):
        store = make_store(2)
        migrator = ChainMigrator(store)
        controller = ElasticityController(
            store, migrator, check_every=1, min_window=10,
            load_ratio=1.2, max_moves=4, tolerance=0.0)
        # Ten hot chains, all landing on one shard by construction.
        hot = [f"k{i}" for i in range(200)
               if store.shard_for("data", f"k{i}") == 0][:10]
        for key in hot:
            store.put("data", {"Key": key, "RowId": "HEAD"})
        # Drive enough routed traffic through the facade to trip it.
        for _ in range(3):
            for key in hot:
                store.get("data", (key, "HEAD"))
            controller.tick()
        assert controller.rebalances >= 1
        assert migrator.stats.migrations > 0
        loads = [0, 0]
        for key in hot:
            loads[store.shard_for("data", key)] += 1
        assert loads[1] > 0, "nothing moved off the hot shard"
        assert placement_residue(store) == []

    def test_queue_backlog_triggers_when_ops_lean_but_dont_trip(self):
        """Few-but-expensive ops: the op window leans toward one shard
        without crossing the ratio, but its queue backlog screams — the
        second signal must trip the rebalance."""
        store = ShardedStore([KVStore(rand=RandomSource(i, "node"),
                                      shard_id=i, capacity=1)
                              for i in range(2)])
        store.create_table("data", hash_key="Key", range_key="RowId")
        migrator = ChainMigrator(store)
        controller = ElasticityController(
            store, migrator, check_every=1, min_window=10,
            load_ratio=1.3, tolerance=0.0)
        hot = [f"k{i}" for i in range(200)
               if store.shard_for("data", f"k{i}") == 0][:6]
        for key in hot:
            store.put("data", {"Key": key, "RowId": "HEAD"})
            store.get("data", (key, "HEAD"))
        # Window leans to shard 0 (ratio ~1.2: above halfway, below the
        # 1.3 trigger) while shard 0's queue is far behind.
        controller._baseline = [0, 0]
        store.shard_ops = [60, 40]
        store.nodes[0].queue.delay(0.0, 5000.0)
        controller.tick()
        assert controller.rebalances == 1
        assert migrator.stats.migrations > 0
        assert placement_residue(store) == []

    def test_below_threshold_touches_nothing(self):
        store = make_store(2)
        migrator = ChainMigrator(store)
        controller = ElasticityController(
            store, migrator, check_every=1, min_window=5,
            load_ratio=10.0)
        store.put("data", {"Key": "a", "RowId": "HEAD"})
        for _ in range(50):
            store.get("data", ("a", "HEAD"))
            controller.tick()
        assert controller.checks > 0
        assert controller.rebalances == 0
        assert migrator.stats.migrations == 0

    def test_protocol_tables_are_not_migratable(self):
        assert not ElasticityController._migratable("env.intent")
        assert not ElasticityController._migratable("env.readlog")
        assert not ElasticityController._migratable("env.invokelog")
        assert not ElasticityController._migratable("env.locksets")
        assert not ElasticityController._migratable(MIGRATIONS_TABLE)
        assert ElasticityController._migratable("env.profiles")
        assert ElasticityController._migratable("env.profiles.shadow")


class TestHeatTracking:
    def test_heat_and_shard_ops_follow_routed_traffic(self):
        store = make_store(2)
        store.enable_elasticity()
        store.put("data", {"Key": "h1", "RowId": "HEAD"})
        for _ in range(4):
            store.get("data", ("h1", "HEAD"))
        assert store.heat[("data", "h1")] == 5  # put + 4 gets
        assert sum(store.shard_ops) == 5

    def test_disabled_store_keeps_no_books(self):
        store = make_store(2)
        store.put("data", {"Key": "h2", "RowId": "HEAD"})
        assert store.heat is None
        assert store.shard_ops == []
