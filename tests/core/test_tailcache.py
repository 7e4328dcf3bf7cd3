"""TailCache staleness: every way a cached tail can rot, and the
fallback that must repair it without ever surfacing a stale value.

Three rot modes from the issue:

1. the cached row was *disconnected* by the GC (interior row whose log
   emptied — it keeps its ``NextRow``, so chasing re-joins the chain);
2. the cached row *filled and chained* (a successor appended);
3. the cached row's *lock state changed* under the cache (a commit
   flush released/stole it) — position caching must never serve the old
   owner or value.

Plus: a cached row the GC fully deleted, and ``without="fastpath"``
equivalence with the seed.
"""

from collections import Counter

import pytest

from repro.core import BeldiConfig, BeldiRuntime, TailCache, TailCacheStats
from repro.core import daal
from repro.core.gc import make_garbage_collector
from repro.kvstore import UnavailableError
from repro.kvstore.errors import ValidationError
from repro.sim import RandomSchedule, SimKernel


def build_runtime(**config):
    config.setdefault("gc_t", 500.0)
    config.setdefault("ic_restart_delay", 50.0)
    return BeldiRuntime(seed=11, config=BeldiConfig(**config))


def run_gc_now(runtime, env, times=1):
    handler = make_garbage_collector(runtime, env)
    results = []

    def client():
        class _Ctx:
            request_id = "gc-run"
            invocation_index = 0

            def crash_point(self, tag):
                pass

        for _ in range(times):
            results.append(handler(_Ctx(), {}))

    runtime.kernel.spawn(client)
    runtime.kernel.run()
    return results


def advance(runtime, ms):
    runtime.kernel.spawn(lambda: runtime.kernel.sleep(ms))
    runtime.kernel.run()


def chain_ids(store, table, key):
    return daal.load_skeleton(store, table, key).reachable


class TestStaleTailFallback:
    def test_cached_row_that_filled_and_chained(self):
        """Cache pinned to an old tail; writes chained past it. The read
        must chase to the real tail and return the newest value."""
        runtime = build_runtime(row_log_capacity=2, gc_t=1e12)

        def writer(ctx, payload):
            for value in payload:
                ctx.write("kv", "k", value)
            return "ok"

        ssf = runtime.register_ssf("w", writer, tables=["kv"])
        runtime.run_workflow("w", [1, 2])
        env = ssf.env
        table = env.data_table("kv")
        old_tail = chain_ids(env.store, table, "k")[-1]

        # Wind the cache back to the (current) tail, then chain past it.
        runtime.tail_cache.remember_tail(table, "k", old_tail)
        runtime.run_workflow("w", [3, 4, 5, 6, 7])
        runtime.tail_cache.remember_tail(table, "k", old_tail)

        assert env.peek("kv", "k") == 7  # chased, not stale
        # And the cache was repaired to the real tail.
        entry = runtime.tail_cache.tail_of(table, "k")
        assert entry.row_id == chain_ids(env.store, table, "k")[-1]
        runtime.kernel.shutdown()

    def test_cached_row_that_gc_disconnected(self):
        """Cache pinned to an interior row the GC disconnected: the row
        keeps its NextRow, so the fast path chases back onto the chain
        and still sees the live tail value."""
        runtime = build_runtime(row_log_capacity=1)

        def writer(ctx, payload):
            for value in payload:
                ctx.write("kv", "k", value)
            return "ok"

        ssf = runtime.register_ssf("w", writer, tables=["kv"])
        runtime.run_workflow("w", [1, 2, 3, 4])
        env = ssf.env
        table = env.data_table("kv")
        before = chain_ids(env.store, table, "k")
        assert len(before) >= 4
        interior = before[1]

        # GC pass 1 stamps finish times; after T the logs become
        # recyclable, entries are pruned, and interiors disconnect.
        run_gc_now(runtime, env)
        advance(runtime, 600.0)
        run_gc_now(runtime, env)
        after = chain_ids(env.store, table, "k")
        assert interior not in after  # actually disconnected
        disconnected = env.store.get(table, ("k", interior))
        assert disconnected is not None and "NextRow" in disconnected

        runtime.tail_cache.remember_tail(table, "k", interior)
        assert env.peek("kv", "k") == 4
        runtime.kernel.shutdown()

    def test_cached_row_that_gc_deleted(self):
        """Cache pinned to a row that dangled past T and was deleted:
        the get misses, the cache evicts, traversal recovers."""
        runtime = build_runtime(row_log_capacity=1)

        def writer(ctx, payload):
            for value in payload:
                ctx.write("kv", "k", value)
            return "ok"

        ssf = runtime.register_ssf("w", writer, tables=["kv"])
        runtime.run_workflow("w", [1, 2, 3, 4])
        env = ssf.env
        table = env.data_table("kv")
        interior = chain_ids(env.store, table, "k")[1]

        run_gc_now(runtime, env)          # stamp finish
        advance(runtime, 600.0)
        run_gc_now(runtime, env)          # prune + disconnect + stamp
        advance(runtime, 600.0)
        run_gc_now(runtime, env)          # delete the dangled row
        assert env.store.get(table, ("k", interior)) is None

        runtime.tail_cache.remember_tail(table, "k", interior)
        assert env.peek("kv", "k") == 4
        # The stale entry was evicted and replaced by the true tail.
        entry = runtime.tail_cache.tail_of(table, "k")
        assert entry is not None
        assert entry.row_id == chain_ids(env.store, table, "k")[-1]
        runtime.kernel.shutdown()

    def test_lock_stolen_under_cached_tail(self):
        """The cache pins positions, never lock state: after a commit
        flush releases the tail's lock, a cached-tail read of LockOwner
        sees the release, and a second locker can proceed."""
        runtime = build_runtime(gc_t=1e12)

        def locker(ctx, payload):
            ctx.lock("kv", "k")
            ctx.write("kv", "k", payload)
            ctx.unlock("kv", "k")
            return "ok"

        ssf = runtime.register_ssf("w", locker, tables=["kv"])
        ssf.env.seed("kv", "k", 0)
        runtime.run_workflow("w", 1)
        env = ssf.env
        table = env.data_table("kv")
        # Cache is hot from the first run; the tail row's lock cycled
        # under it. A fresh locked run must observe lock-free and win.
        entry = runtime.tail_cache.tail_of(table, "k")
        assert entry is not None
        row = env.store.get(table, ("k", entry.row_id))
        assert "LockOwner" not in row
        runtime.run_workflow("w", 2)
        assert env.peek("kv", "k") == 2
        runtime.kernel.shutdown()

    def test_release_lock_with_stale_cache_entry(self):
        """daal.release_lock aimed through a stale cached tail falls
        back instead of failing or unlocking the wrong row."""
        runtime = build_runtime(row_log_capacity=1, gc_t=1e12)

        def locker(ctx, payload):
            ctx.lock("kv", "k")
            for value in payload:
                ctx.write("kv", "k", value)
            return "ok"  # crashes-without-unlock analogue: lock stays

        ssf = runtime.register_ssf("w", locker, tables=["kv"])
        ssf.env.seed("kv", "k", 0)
        runtime.run_workflow("w", [1, 2, 3])
        env = ssf.env
        table = env.data_table("kv")
        tail = chain_ids(env.store, table, "k")[-1]
        owner = env.store.get(table, ("k", tail))["LockOwner"]["Id"]

        cache = runtime.tail_cache
        cache.remember_tail(table, "k", chain_ids(env.store, table,
                                                  "k")[0])
        released = daal.release_lock(env.store, table, "k", owner,
                                     cache=cache)
        assert released
        assert "LockOwner" not in env.store.get(table, ("k", tail))
        runtime.kernel.shutdown()


class TestWithoutFastpathParity:
    def test_without_fastpath_touches_no_cache(self):
        runtime = build_runtime(without="fastpath", gc_t=1e12)

        def handler(ctx, payload):
            ctx.write("kv", "k", payload)
            return ctx.read("kv", "k")

        ssf = runtime.register_ssf("w", handler, tables=["kv"])
        assert runtime.run_workflow("w", 42) == 42
        stats = runtime.tail_cache.stats.snapshot()
        assert all(v == 0 for v in stats.values())
        assert len(runtime.tail_cache) == 0
        assert ssf.env.tail_cache is None
        runtime.kernel.shutdown()

    @pytest.mark.parametrize("without", [None, "fastpath"])
    def test_request_pattern(self, without):
        """Without = seed: every read/write pays its skeleton query;
        ``current`` goes straight to the cached tail."""
        runtime = build_runtime(without=without, gc_t=1e12)

        def handler(ctx, payload):
            for i in range(10):
                ctx.write("kv", "k", i)
                ctx.read("kv", "k")
            return "ok"

        ssf = runtime.register_ssf("w", handler, tables=["kv"])
        before = runtime.store.metering.copy()
        runtime.run_workflow("w")
        delta = runtime.store.metering.diff(before)
        if without == "fastpath":
            # 10 writes probe (1 query each; +1 first-write re-probe
            # after head creation) and 10 reads traverse (1 query each).
            assert delta["query"].count >= 20
            assert ssf.env.tail_cache is None
        else:
            assert delta["query"].count <= 2
            assert runtime.tail_cache.stats.tail_hits > 0
        runtime.kernel.shutdown()


class TestCacheUnit:
    def test_note_logged_write_bumps_log_size(self):
        cache = TailCache()
        cache.remember_tail("t", "k", "HEAD", 0)
        cache.note_logged_write("t", "k", "HEAD", "i#0")
        assert cache.tail_of("t", "k").log_size == 1
        assert cache.position_of("t", "k", "i#0") == "HEAD"

    def test_note_logged_write_on_other_row_resets_size(self):
        cache = TailCache()
        cache.remember_tail("t", "k", "HEAD", 3)
        cache.note_logged_write("t", "k", "row-9", "i#1")
        entry = cache.tail_of("t", "k")
        assert entry.row_id == "row-9"
        assert entry.log_size is None  # unknown, not guessed

    def test_drop_row_only_evicts_matching_tail(self):
        cache = TailCache()
        cache.remember_tail("t", "k", "row-1")
        cache.drop_row("t", "k", "row-2")
        assert cache.tail_of("t", "k").row_id == "row-1"
        cache.drop_row("t", "k", "row-1")
        assert cache.tail_of("t", "k") is None

    def test_position_eviction_bounded_and_taints(self):
        cache = TailCache(max_positions=10)
        for i in range(25):
            cache.remember_position("t", "k", f"inst-{i}#0", "HEAD")
        assert len(cache) <= 11  # tails + bounded positions
        # An instance whose position was evicted must no longer have its
        # misses trusted (they would read as "never executed").
        evicted = [i for i in range(25)
                   if cache.position_of("t", "k", f"inst-{i}#0") is None]
        assert evicted, "bound never hit?"
        for i in evicted:
            assert not cache.trusts_miss(f"inst-{i}#0")
        kept = [i for i in range(25) if i not in evicted]
        for i in kept:
            assert cache.trusts_miss(f"inst-{i}#0")

    def test_evicted_instance_replays_via_full_probe(self):
        """End-to-end taint check: after position eviction, a replayed
        write of the same instance must not re-execute."""
        runtime = build_runtime(gc_t=1e12)
        runtime.tail_cache._max_positions = 4  # force eviction

        def handler(ctx, payload):
            for i in range(8):
                ctx.write("kv", "k", i)
            ctx.crash_point("mid")
            return "ok"

        from repro.platform import CrashOnce
        from repro.platform.errors import FunctionCrashed
        runtime.platform.crash_policy = CrashOnce("w", "mid")
        ssf = runtime.register_ssf("w", handler, tables=["kv"])
        runtime.start_collectors(ic_period=100.0, gc_period=1e12)

        def client():
            try:
                runtime.client_call("w", None)
            except FunctionCrashed:
                pass

        runtime.kernel.spawn(client)
        runtime.kernel.run(until=10_000.0)
        runtime.stop_collectors()
        runtime.kernel.run(until=11_000.0)
        env = ssf.env
        table = env.data_table("kv")
        rows = [env.store.get(table, ("k", rid)) for rid in
                daal.load_skeleton(env.store, table, "k").reachable]
        entries = [k for row in rows for k in row["RecentWrites"]]
        assert len(entries) == len(set(entries)) == 8  # exactly once
        assert env.peek("kv", "k") == 7
        runtime.kernel.shutdown()


class TestEvictionRegressions:
    """Audit of capacity eviction under ``max_positions`` pressure."""

    def test_bound_holds_at_max_positions_one(self):
        """The degenerate bound: ``max // 2 == 0`` must still evict one
        entry (and taint its instance), not let the map grow forever."""
        cache = TailCache(max_positions=1)
        for i in range(20):
            cache.remember_position("t", "k", f"solo-{i}#0", "HEAD")
            assert len(cache._positions) <= 1
        # Every displaced instance was tainted on its way out.
        for i in range(19):
            assert not cache.trusts_miss(f"solo-{i}#0")
        assert cache.trusts_miss("solo-19#0")

    def test_every_dropped_instance_is_tainted(self):
        """One eviction wave drops many entries; each dropped entry's
        instance must be tainted — not just the first."""
        cache = TailCache(max_positions=8)
        for i in range(8):
            cache.remember_position("t", f"k{i}", f"wave-{i}#0", "HEAD")
        # The 9th insert evicts max(1, 8 // 2) = 4 entries at once.
        cache.remember_position("t", "k8", "wave-8#0", "HEAD")
        dropped = [i for i in range(8)
                   if cache.position_of("t", f"k{i}", f"wave-{i}#0")
                   is None]
        assert len(dropped) == 4
        for i in dropped:
            assert not cache.trusts_miss(f"wave-{i}#0"), (
                f"instance wave-{i} lost a position but is still trusted")

    def test_overwrite_does_not_evict(self):
        """Re-recording an already-present position is not growth and
        must not trigger an eviction wave (which would taint innocents)."""
        cache = TailCache(max_positions=4)
        for i in range(4):
            cache.remember_position("t", f"k{i}", f"keep-{i}#0", "HEAD")
        for _ in range(10):
            cache.remember_position("t", "k0", "keep-0#0", "row-2")
        for i in range(4):
            assert cache.trusts_miss(f"keep-{i}#0")
        assert cache.position_of("t", "k0", "keep-0#0") == "row-2"


class TestHashableKeyRegressions:
    """``_hashable`` must keep distinct keys in distinct cache slots."""

    def test_dict_key_does_not_collide_with_its_repr(self):
        cache = TailCache()
        dict_key = {"a": 1}
        str_key = repr(dict_key)  # "{'a': 1}"
        cache.remember_tail("t", dict_key, "row-dict")
        cache.remember_tail("t", str_key, "row-str")
        assert cache.tail_of("t", dict_key).row_id == "row-dict"
        assert cache.tail_of("t", str_key).row_id == "row-str"
        cache.forget("t", str_key)
        assert cache.tail_of("t", dict_key).row_id == "row-dict"

    def test_list_key_does_not_collide_with_its_repr(self):
        cache = TailCache()
        cache.remember_position("t", [1, 2], "a#0", "row-list")
        cache.remember_position("t", "[1, 2]", "a#1", "row-str")
        assert cache.position_of("t", [1, 2], "a#0") == "row-list"
        assert cache.position_of("t", [1, 2], "a#1") is None
        assert cache.position_of("t", "[1, 2]", "a#1") == "row-str"

    def test_equal_dicts_share_a_slot_regardless_of_order(self):
        cache = TailCache()
        cache.remember_tail("t", {"a": 1, "b": 2}, "row-x")
        entry = cache.tail_of("t", {"b": 2, "a": 1})
        assert entry is not None and entry.row_id == "row-x"

    def test_tuple_key_with_unhashable_part(self):
        cache = TailCache()
        cache.remember_tail("t", ("k", ["r1"]), "row-t")
        assert cache.tail_of("t", ("k", ["r1"])).row_id == "row-t"
        assert cache.tail_of("t", ("k", "['r1']")) is None

    def test_tag_lookalike_tuple_does_not_collide_with_list(self):
        """The canonical encoding must be injective even against a
        genuine tuple key that mimics the tag shape."""
        cache = TailCache()
        cache.remember_tail("t", ["a"], "row-list")
        cache.remember_tail("t", ("__list__", ("a",)), "row-tuple")
        assert cache.tail_of("t", ["a"]).row_id == "row-list"
        assert cache.tail_of("t", ("__list__", ("a",))).row_id == (
            "row-tuple")


# ---------------------------------------------------------------------------
# Fill-and-extend: the writer that fills a row appends its successor,
# the runtime's other writers of the key wait for that one append
# ---------------------------------------------------------------------------

def hot_key_storm(seed, capacity, writers=5, writes=3, latency_scale=0.0,
                  **config):
    """``writers`` concurrent requests, each writing one key ``writes``
    times, under the schedule explorer. Returns the runtime (shut down),
    every row of the key and the round trips its table served."""
    kernel = SimKernel(seed=seed, schedule=RandomSchedule(seed))
    runtime = BeldiRuntime(
        kernel=kernel, seed=seed, latency_scale=latency_scale,
        config=BeldiConfig(row_log_capacity=capacity, gc_t=1e12,
                           ic_restart_delay=1e9, **config))

    def writer(ctx, payload):
        for index in range(writes):
            ctx.write("kv", "hot", [payload, index])
        return "ok"

    ssf = runtime.register_ssf("w", writer, tables=["kv"])
    ssf.env.seed("kv", "hot", None)
    table = ssf.env.data_table("kv")
    before = runtime.store.metering.per_table[table]
    results = []
    for index in range(writers):
        kernel.spawn(lambda index=index: results.append(
            runtime.client_call("w", index)))
    kernel.run()
    assert results == ["ok"] * writers
    round_trips = runtime.store.metering.per_table[table] - before
    rows = runtime.store.query(table, "hot").items
    kernel.shutdown()
    return runtime, table, rows, round_trips


def logged_entries(rows):
    return Counter(log_key for row in rows
                   for log_key in row["RecentWrites"])


class TestFillAndExtend:
    @pytest.mark.parametrize("capacity", [2, 3])
    def test_concurrent_writers_extend_once_per_fill(self, capacity):
        """Crash-free, any explored schedule: every entry logged exactly
        once, one append per filled row and none lost — so no orphan —
        and the writers that met a full row waited instead of racing."""
        writers, writes = 5, 3
        total = writers * writes
        fills = total // capacity
        waits = 0
        for seed in range(25):
            runtime, table, rows, round_trips = hot_key_storm(
                seed, capacity, writers, writes)
            entries = logged_entries(rows)
            assert len(entries) == total, seed
            assert set(entries.values()) == {1}, seed
            skeleton = daal.load_skeleton(runtime.store, table, "hot")
            assert skeleton.orphans == [], seed
            assert len(skeleton.reachable) == fills + 1, seed
            stats = runtime.tail_cache.stats
            assert stats.extensions == fills, seed
            assert stats.lazy_appends == 0, seed
            assert stats.append_races_lost == 0, seed
            # The bound: one landed update per write, a put + a CAS per
            # fill, and at most a doomed update + one read per fill for
            # each of the other writers (an update already in flight
            # when the row filled). Lazy case D is five per writer per
            # fill on top of the writes.
            assert round_trips <= total + 2 * writers * fills, seed
            waits += stats.extension_waits
        assert waits > 0, "no schedule made a writer wait"

    def test_waiting_does_not_count_as_a_cache_lookup(self):
        """A released waiter peeks the new tail: hits + misses stay one
        per operation start, so the hit ratio keeps its meaning."""
        for seed in range(10):
            runtime, _table, _rows, _rts = hot_key_storm(
                seed, 2, latency_scale=1.0)
            stats = runtime.tail_cache.stats
            if stats.extension_waits:
                assert stats.tail_hits + stats.tail_misses == 5 * 3
                return
        pytest.fail("no schedule made a writer wait")

    def test_without_fastpath_appends_lazily_as_before(self):
        runtime, table, rows, _rts = hot_key_storm(
            3, 2, latency_scale=1.0, without="fastpath")
        assert set(logged_entries(rows).values()) == {1}
        assert len(logged_entries(rows)) == 15
        assert runtime.tail_cache.stats.snapshot() == (
            TailCacheStats().snapshot())

    def test_a_pruned_row_that_fills_again_has_one_filler(self):
        cache = TailCache()
        kernel = SimKernel(seed=0)
        first, second = kernel.event(), kernel.event()
        with cache.extending("t", "k", "HEAD", first) as ours:
            assert ours
            assert cache.extension_of("t", "k", "HEAD") is first
            with cache.extending("t", "k", "HEAD", second) as again:
                assert not again
            assert cache.extension_of("t", "k", "HEAD") is first
            assert not second.is_set
        assert first.is_set
        assert cache.extension_of("t", "k", "HEAD") is None
        assert cache.stats.extensions == 1
        kernel.shutdown()

    def test_a_failed_filler_still_releases_its_waiters(self):
        cache = TailCache()
        kernel = SimKernel(seed=0)
        done = kernel.event()
        with pytest.raises(RuntimeError):
            with cache.extending("t", "k", "HEAD", done):
                raise RuntimeError("store went dark")
        assert done.is_set
        assert cache.extension_of("t", "k", "HEAD") is None
        kernel.shutdown()

    @pytest.mark.parametrize("error, swallowed", [
        (UnavailableError("node dark"), True),
        (ValidationError("bad candidate"), False),
    ])
    def test_the_filler_swallows_a_lost_store_and_nothing_else(
            self, monkeypatch, error, swallowed):
        """The op has landed, so a dark or throttling store is not its
        to report — but a malformed append is a bug, not a lazy append.
        Either way the row is full, unextended and unannounced."""
        def broken_append(*args, **kwargs):
            raise error

        monkeypatch.setattr(daal, "append_row", broken_append)
        runtime = build_runtime(row_log_capacity=1, gc_t=1e12)
        ssf = runtime.register_ssf(
            "w", lambda ctx, p: ctx.write("kv", "k", p), tables=["kv"])
        ssf.env.seed("kv", "k", 0)
        if swallowed:
            runtime.run_workflow("w", 1)
        else:
            with pytest.raises(ValidationError, match="bad candidate"):
                runtime.run_workflow("w", 1)
        table = ssf.env.data_table("kv")
        head = daal.read_row(runtime.store, table, "k", daal.HEAD_ROW_ID)
        assert head["Value"] == 1 and "NextRow" not in head
        assert runtime.tail_cache.extension_of(
            table, "k", daal.HEAD_ROW_ID) is None
        runtime.kernel.shutdown()
