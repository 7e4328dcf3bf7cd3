"""Property-based tests (hypothesis) on Beldi's core invariants."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lifecycle
from repro.core import BeldiConfig, BeldiRuntime
from repro.core import daal, intents
from repro.platform import CrashOnce, CrashPolicy, FunctionCrashed
from repro.platform.errors import TooManyRequests
from repro.sim import RandomSource

FAST = dict(deadline=None, max_examples=25,
            suppress_health_check=[HealthCheck.too_slow,
                                   HealthCheck.data_too_large])


class SeededCrash(CrashPolicy):
    """Crash pseudo-randomly, at most ``budget`` times, from a seed."""

    def __init__(self, seed: int, p: float, budget: int):
        self.rand = RandomSource(seed, "crash")
        self.p = p
        self.budget = budget

    def should_crash(self, function, invocation_index, tag):
        if self.budget <= 0 or tag in ("enter",):
            return False
        if self.rand.random() < self.p:
            self.budget -= 1
            return True
        return False


def run_with_recovery(runtime, entry, payloads, horizon=20_000.0):
    outcomes = []

    def client(payload):
        try:
            outcomes.append(runtime.client_call(entry, payload))
        except (FunctionCrashed, TooManyRequests):
            outcomes.append("crashed")

    runtime.start_collectors(ic_period=100.0, gc_period=1e11)
    for i, payload in enumerate(payloads):
        runtime.kernel.spawn(client, payload, delay=float(i) * 5.0)
    runtime.kernel.run(until=horizon)
    runtime.stop_collectors()
    runtime.kernel.run(until=horizon + 5_000.0)
    runtime.kernel.shutdown()
    return outcomes


class TestExactlyOnceProperty:
    @given(seed=st.integers(0, 10_000), crashes=st.integers(0, 4))
    @settings(**FAST)
    def test_locked_counter_counts_requests_exactly(self, seed, crashes):
        """For any crash schedule, N lock-protected read-modify-writes
        move the counter by exactly N.

        (Without the lock this property is rightly false: a crashed
        instance's replayed read is its *original* logged read, which is
        a legal racy interleaving — exactly-once, not serializability.
        §6.1's locks-with-intent are what make the counter exact.)
        """
        runtime = BeldiRuntime(seed=7, config=BeldiConfig(
            ic_restart_delay=50.0, gc_t=1e12, lock_retry_backoff=5.0,
            lock_retry_limit=2000))
        runtime.platform.crash_policy = SeededCrash(seed, p=0.15,
                                                    budget=crashes)

        def handler(ctx, payload):
            ctx.lock("kv", "n")
            n = ctx.read("kv", "n") or 0
            ctx.write("kv", "n", n + 1)
            ctx.unlock("kv", "n")
            return n + 1

        ssf = runtime.register_ssf("inc", handler, tables=["kv"])
        requests = 3
        run_with_recovery(runtime, "inc", [None] * requests)
        assert ssf.env.peek("kv", "n") == requests

    @given(seed=st.integers(0, 10_000))
    @settings(**FAST)
    def test_unlocked_replay_is_a_legal_interleaving(self, seed):
        """Without locks, the final counter must still be one of the
        values a crash-free concurrent interleaving could produce
        (between 1 and N) — never 0, never more than N."""
        runtime = BeldiRuntime(seed=7, config=BeldiConfig(
            ic_restart_delay=50.0, gc_t=1e12))
        runtime.platform.crash_policy = SeededCrash(seed, p=0.2, budget=2)

        def handler(ctx, payload):
            n = ctx.read("kv", "n") or 0
            ctx.write("kv", "n", n + 1)
            return n + 1

        ssf = runtime.register_ssf("inc", handler, tables=["kv"])
        requests = 3
        run_with_recovery(runtime, "inc", [None] * requests)
        final = ssf.env.peek("kv", "n")
        assert final is not None and 1 <= final <= requests

    @given(seed=st.integers(0, 10_000))
    @settings(**FAST)
    def test_invoke_fanout_exactly_once(self, seed):
        """Caller fans out to two callees; all ledgers settle exactly."""
        runtime = BeldiRuntime(seed=3, config=BeldiConfig(
            ic_restart_delay=50.0, gc_t=1e12, lock_retry_backoff=5.0,
            lock_retry_limit=2000))
        runtime.platform.crash_policy = SeededCrash(seed, p=0.1, budget=3)

        def ledger(ctx, payload):
            ctx.lock("books", "sum")
            total = (ctx.read("books", "sum") or 0) + payload
            ctx.write("books", "sum", total)
            ctx.unlock("books", "sum")
            return total

        led_a = runtime.register_ssf("led_a", ledger, tables=["books"])
        led_b = runtime.register_ssf("led_b", ledger, tables=["books"])

        def entry(ctx, payload):
            ctx.sync_invoke("led_a", 3)
            ctx.sync_invoke("led_b", 4)
            return "ok"

        runtime.register_ssf("entry", entry)
        run_with_recovery(runtime, "entry", [None, None])
        assert led_a.env.peek("books", "sum") == 6
        assert led_b.env.peek("books", "sum") == 8


class TestReadLogFrontierProperty:
    """Moving the read log's serialization point to the effect frontier
    (the ``async_io`` feature) changes how many rows hold the log and
    when they land — never what a program returns or writes."""

    KEYS = ("a", "b", "c")
    OPS = st.one_of(
        st.tuples(st.just("read"), st.sampled_from(KEYS)),
        st.tuples(st.just("write"), st.sampled_from(KEYS)),
        st.tuples(st.just("grow"), st.sampled_from(KEYS)),
        st.tuples(st.just("record"), st.none()),
        st.tuples(st.just("invoke"), st.sampled_from(KEYS)))

    @staticmethod
    def _run(program, config_args, crash_seed=None):
        """Run ``program`` once; returns ``(the root's recorded return,
        every data row, read-log row count)``."""
        runtime = BeldiRuntime(seed=13, config=BeldiConfig(
            ic_restart_delay=50.0, gc_t=1e12, **config_args))
        if crash_seed is not None:
            runtime.platform.crash_policy = SeededCrash(crash_seed, p=0.05,
                                                        budget=3)

        def leaf(ctx, payload):
            before = ctx.read("kv", payload["key"])
            ctx.write("kv", payload["key"], [before, payload["seen"]])
            return [before, ctx.read("kv", payload["key"])]

        def root(ctx, payload):
            seen = []
            for index, (kind, key) in enumerate(program):
                if kind == "read":
                    seen.append(ctx.read("kv", key))
                elif kind == "write":
                    # What lands depends on every value observed so far.
                    ctx.write("kv", key, {"at": index, "seen": len(seen),
                                          "last": seen[-1:]})
                elif kind == "grow":
                    # Read-modify-write *in place*: the handler owns the
                    # values it is handed, the log keeps what was there.
                    held = ctx.read("kv", key)
                    drawn = ctx.record(lambda: [f"rec-{index}"])
                    if not isinstance(held, list):
                        held = [held]
                    held.append(len(seen))
                    drawn.append(len(held))
                    ctx.write("kv", key, held)
                    seen.append(drawn)
                elif kind == "record":
                    seen.append(ctx.record(lambda: f"rec-{index}"))
                else:
                    seen.append(ctx.sync_invoke(
                        "leaf", {"key": key, "seen": len(seen)}))
            return seen

        envs = [runtime.register_ssf(name, handler, tables=["kv"]).env
                for name, handler in (("root", root), ("leaf", leaf))]
        for env in envs:
            for i, key in enumerate(TestReadLogFrontierProperty.KEYS):
                env.seed("kv", key, [i])
        run_with_recovery(runtime, "root", [None], horizon=5_000.0)
        (intent,) = envs[0].store.scan(envs[0].intent_table).items
        assert intent["Done"]
        data = [env.peek("kv", key) for env in envs
                for key in TestReadLogFrontierProperty.KEYS]
        log_rows = sum(env.store.item_count(env.read_log) for env in envs)
        return intent["Ret"], data, log_rows

    @given(program=st.lists(OPS, min_size=1, max_size=10),
           crash_seed=st.integers(0, 10_000))
    @settings(**FAST)
    def test_frontier_flush_matches_flush_per_read(self, program,
                                                   crash_seed):
        grouped = self._run(program, {})
        per_read = self._run(program, {"without": "async_io"})
        assert grouped[:2] == per_read[:2]
        assert grouped[2] <= per_read[2]
        # Random crashes + IC replay reproduce the crash-free run: a
        # replayed read answers from the log, whatever the program has
        # written over the row since.
        for config_args in ({}, {"without": "async_io"}):
            crashed = self._run(program, config_args, crash_seed)
            assert crashed[:2] == grouped[:2], config_args


class TestReplyOrderProperty:
    """For every sync callee of any workflow shape: read-log flush <
    reply ≤ callback recorded < ``Done`` — and without ``async_io``
    there is no early reply at all, only callback < ``Done``."""

    OPS = st.sampled_from(["read", "write", "leaf", "mid"])

    @staticmethod
    def _run(program, config_args, crash_seed=None):
        """Run ``root`` (which reads, writes, calls ``leaf`` or calls
        ``mid``, which calls ``leaf``) traced, check the ledger's
        orders and return its rows."""
        runtime = BeldiRuntime(
            seed=17, observability=True, config=BeldiConfig(
                ic_restart_delay=50.0, gc_t=1e12, **config_args))
        if crash_seed is not None:
            runtime.platform.crash_policy = SeededCrash(crash_seed, p=0.05,
                                                        budget=3)

        def leaf(ctx, payload):
            seen = [ctx.read("kv", "a"), ctx.read("kv", "b")]
            if payload % 2:
                ctx.write("kv", "a", payload)
            return seen

        def mid(ctx, payload):
            return [ctx.read("kv", "a"),
                    ctx.sync_invoke("leaf", payload + 1)]

        def root(ctx, payload):
            seen = []
            for index, op in enumerate(program):
                if op == "read":
                    seen.append(ctx.read("kv", "a"))
                elif op == "write":
                    ctx.write("kv", "b", index)
                else:
                    seen.append(ctx.sync_invoke(op, index))
            return seen

        for name, handler in (("root", root), ("mid", mid), ("leaf", leaf)):
            runtime.register_ssf(name, handler, tables=["kv"])
        run_with_recovery(runtime, "root", [None], horizon=5_000.0)
        lifecycle.check(runtime.obs.tracer.records)
        return lifecycle.rows(runtime.obs.tracer.records)

    @staticmethod
    def _callee_orders(rows) -> list:
        """Per finished execution of a called-back instance: the ledger
        positions of its last flush, its reply, the first callback for
        the instance after that, and its ``Done``."""
        called_back = {row[2] for row in rows if row[0] == "callback"}
        orders = []
        for done_at, (kind, execution, instance_id, _seq) in enumerate(
                rows):
            if kind != "done" or instance_id not in called_back:
                continue
            own = [(at, row[0]) for at, row in enumerate(rows)
                   if row[1] == execution]
            flushes = [at for at, what in own if what == "flush"]
            replies = [at for at, what in own if what == "reply"]
            start = replies[0] if replies else 0
            callback_at = next(
                at for at, row in enumerate(rows)
                if at >= start and row[0] == "callback"
                and row[2] == instance_id)
            orders.append((max(flushes, default=-1), replies,
                           callback_at, done_at))
        return orders

    @given(program=st.lists(OPS, min_size=1, max_size=8),
           crash_seed=st.integers(0, 10_000))
    @settings(**FAST)
    def test_flush_then_reply_then_callback_then_done(self, program,
                                                      crash_seed):
        callees = sum({"leaf": 1, "mid": 2}.get(op, 0) for op in program)
        for config_args in ({}, {"without": "async_io"}):
            orders = self._callee_orders(self._run(program, config_args))
            assert len(orders) == callees
            for flushed, replies, callback_at, done_at in orders:
                if config_args:
                    assert not replies
                    assert flushed < callback_at < done_at
                else:
                    (replied,) = replies
                    assert flushed < replied < callback_at < done_at
            # Under random crashes and IC replays no strict sequence is
            # promised per execution, the safety orders still are.
            self._run(program, config_args, crash_seed)


class TestTransactionProperties:
    @given(transfers=st.lists(
        st.tuples(st.sampled_from(["ann", "bob", "cyn"]),
                  st.sampled_from(["ann", "bob", "cyn"]),
                  st.integers(1, 40)),
        min_size=1, max_size=6))
    @settings(**FAST)
    def test_money_conserved_and_non_negative(self, transfers):
        runtime = BeldiRuntime(seed=21, config=BeldiConfig(
            ic_restart_delay=50.0, gc_t=1e12, lock_retry_backoff=5.0,
            lock_retry_limit=300))

        def transfer(ctx, payload):
            src, dst, amount = payload
            if src == dst:
                return "self"
            with ctx.transaction() as tx:
                a = ctx.read("accts", src)
                b = ctx.read("accts", dst)
                if a < amount:
                    ctx.abort_tx()
                ctx.write("accts", src, a - amount)
                ctx.write("accts", dst, b + amount)
            return tx.outcome

        ssf = runtime.register_ssf("transfer", transfer,
                                   tables=["accts"])
        for name in ("ann", "bob", "cyn"):
            ssf.env.seed("accts", name, 50)
        run_with_recovery(runtime, "transfer", transfers)
        balances = [ssf.env.peek("accts", name)
                    for name in ("ann", "bob", "cyn")]
        assert sum(balances) == 150
        assert all(b >= 0 for b in balances)

    @given(seed=st.integers(0, 5_000))
    @settings(**FAST)
    def test_paired_keys_stay_equal(self, seed):
        """Every committed txn writes x == y; opacity means no reader
        (even a doomed one) observes x != y."""
        runtime = BeldiRuntime(seed=seed % 17, config=BeldiConfig(
            ic_restart_delay=50.0, gc_t=1e12, lock_retry_backoff=5.0,
            lock_retry_limit=300))
        violations = []

        def bump(ctx, payload):
            with ctx.transaction() as tx:
                x = ctx.read("kv", "x") or 0
                y = ctx.read("kv", "y") or 0
                if x != y:
                    violations.append((x, y))
                ctx.write("kv", "x", x + 1)
                ctx.write("kv", "y", y + 1)
            return tx.outcome

        ssf = runtime.register_ssf("bump", bump, tables=["kv"])
        outcomes = run_with_recovery(runtime, "bump", [None] * 3)
        assert not violations
        committed = outcomes.count("committed")
        assert ssf.env.peek("kv", "x") == ssf.env.peek("kv", "y")
        if committed:
            assert ssf.env.peek("kv", "x") == committed


class TestDAALStructuralInvariants:
    @given(writes=st.lists(st.integers(0, 99), min_size=1, max_size=40),
           capacity=st.integers(1, 6))
    @settings(**FAST)
    def test_chain_structure_after_writes(self, writes, capacity):
        """After any write sequence: a single reachable chain, the tail
        holds the last value, interior rows are full, and log entries
        count exactly the number of writes."""
        runtime = BeldiRuntime(seed=5, config=BeldiConfig(
            row_log_capacity=capacity, gc_t=1e12))

        def handler(ctx, payload):
            for value in payload:
                ctx.write("kv", "k", value)
            return "ok"

        ssf = runtime.register_ssf("w", handler, tables=["kv"])
        runtime.run_workflow("w", list(writes))
        runtime.kernel.shutdown()
        env = ssf.env
        table = env.data_table("kv")
        skeleton = daal.load_skeleton(env.store, table, "k")
        rows = [env.store.get(table, ("k", rid))
                for rid in skeleton.reachable]
        # Tail value is the last write.
        assert rows[-1]["Value"] == writes[-1]
        # Interior rows are exactly full; only the tail may have space.
        for row in rows[:-1]:
            assert row["LogSize"] == capacity
            assert "NextRow" in row
        assert "NextRow" not in rows[-1]
        # Exactly one log entry per write, across the chain.
        total_entries = sum(len(r["RecentWrites"]) for r in rows)
        assert total_entries == len(writes)
        # No orphans in a crash-free run.
        assert skeleton.orphans == []

    @given(n_writers=st.integers(2, 5), per_writer=st.integers(1, 6),
           capacity=st.integers(1, 4))
    @settings(**FAST)
    def test_concurrent_writers_never_lose_log_entries(
            self, n_writers, per_writer, capacity):
        """Any interleaving of concurrent writers yields one entry per
        write and a consistent chain."""
        runtime = BeldiRuntime(seed=2, config=BeldiConfig(
            row_log_capacity=capacity, gc_t=1e12), latency_scale=1.0)

        def handler(ctx, payload):
            for i in range(per_writer):
                ctx.write("kv", "k", (payload, i))
            return "ok"

        ssf = runtime.register_ssf("w", handler, tables=["kv"])
        for w in range(n_writers):
            runtime.kernel.spawn(
                lambda w=w: runtime.client_call("w", w),
                delay=float(w) * 0.5)
        runtime.kernel.run()
        runtime.kernel.shutdown()
        env = ssf.env
        table = env.data_table("kv")
        skeleton = daal.load_skeleton(env.store, table, "k")
        rows = [env.store.get(table, ("k", rid))
                for rid in skeleton.reachable]
        total_entries = sum(len(r["RecentWrites"]) for r in rows)
        assert total_entries == n_writers * per_writer
        # Every log key is unique across the chain.
        seen = set()
        for row in rows:
            for log_key in row["RecentWrites"]:
                assert log_key not in seen
                seen.add(log_key)


class TestGCInterleavingProperties:
    """Append-row races interleaved with the GC: orphan rows are born
    (losing CAS candidates), stamped, and reclaimed — and neither the
    happy chain walk nor the §4.4 tail cache may ever observe them."""

    @given(n_writers=st.integers(2, 4), per_writer=st.integers(2, 5),
           seed=st.integers(0, 2_000),
           without=st.sampled_from([None, "fastpath"]),
           filler_dies=st.booleans())
    @settings(**FAST)
    def test_orphans_from_append_races_are_reclaimed(
            self, n_writers, per_writer, seed, without, filler_dies):
        """Concurrent writers with capacity-1 rows force an append on
        every write. Without the fast path the writers race it and the
        losers orphan their candidates; with it every writer fills its
        row and extends the chain itself while the others wait
        (fill-and-extend) — orphans are then born only when a filler
        dies between its candidate put and the CAS, which
        ``filler_dies`` arranges for the first one, releasing its
        waiters into lazy case D. After the writers finish and the GC
        horizon passes: every orphan is stamped then deleted, no log
        entry is lost while live, the final value survives collection,
        and a tail cache that watched the whole interleaving never
        serves a stale row."""
        from repro.core.gc import make_garbage_collector

        gc_t = 800.0
        runtime = BeldiRuntime(
            seed=seed % 29, latency_scale=1.0,
            config=BeldiConfig(row_log_capacity=1, gc_t=gc_t,
                               ic_restart_delay=1e12,
                               without=without))

        def handler(ctx, payload):
            for i in range(per_writer):
                ctx.write("kv", "k", (payload, i))
            return "ok"

        ssf = runtime.register_ssf("w", handler, tables=["kv"])
        env = ssf.env
        table = env.data_table("kv")
        gc_handler = make_garbage_collector(runtime, env)

        class _Ctx:
            request_id = "gc"
            invocation_index = 0

            def crash_point(self, tag):
                pass

        filler_dies = filler_dies and without is None
        if filler_dies:
            runtime.platform.crash_policy = CrashOnce(
                "w", "write:0:extend:put")

        def client(w):
            try:
                runtime.client_call("w", w)
            except FunctionCrashed:
                pass

        def finish_the_dead():
            # What the intent collector would do.
            for intent in intents.pending_intents(env):
                runtime.platform.client_request("w", {
                    "kind": "call", "input": intent["Args"],
                    "instance_id": intent["InstanceId"]})

        # Writers race; a GC pass runs *while* they are in flight (its
        # liveness rules must protect live instances' entries).
        for w in range(n_writers):
            runtime.kernel.spawn(client, w, delay=float(w) * 0.5)
        runtime.kernel.spawn(lambda: gc_handler(_Ctx(), {}), delay=5.0)
        runtime.kernel.run()
        runtime.kernel.spawn(finish_the_dead)
        runtime.kernel.run()

        skeleton = daal.load_skeleton(env.store, table, "k")
        if without is None:
            stats = runtime.tail_cache.stats
            if filler_dies:
                # Its candidate is an orphan, and whoever next met the
                # full tail — a released waiter, or its own re-run —
                # appended lazily (racing, if more than one did).
                assert skeleton.orphans and stats.lazy_appends >= 1
            else:
                # Crash-free, every writer extends behind itself and
                # nobody races an append.
                assert skeleton.orphans == []
                assert stats.extensions == n_writers * per_writer
                assert stats.lazy_appends == stats.append_races_lost == 0
        total = n_writers * per_writer
        rows = [env.store.get(table, ("k", rid))
                for rid in skeleton.reachable]
        entries = sum(len(r["RecentWrites"]) for r in rows)
        assert entries == total  # mid-run GC lost nothing live
        final_value = rows[-1]["Value"]
        # Tuples round-trip through the store as lists.
        assert final_value in [[w, per_writer - 1]
                               for w in range(n_writers)]

        # Capacity-1 chains make every write an append; any lost race
        # leaves an orphan. Sweep the GC past the horizon twice: stamp,
        # then delete. (Orphans may be zero if no race lost — hypothesis
        # explores seeds where they aren't.)
        def advance_and_collect():
            runtime.kernel.sleep(gc_t + 50.0)
            gc_handler(_Ctx(), {})
            runtime.kernel.sleep(gc_t + 50.0)
            gc_handler(_Ctx(), {})
            runtime.kernel.sleep(gc_t + 50.0)
            gc_handler(_Ctx(), {})

        runtime.kernel.spawn(advance_and_collect)
        runtime.kernel.run()

        after = daal.load_skeleton(env.store, table, "k")
        assert after.orphans == []  # every orphan reclaimed
        assert after.exists
        # Collection never disturbs the tail value, cached or not.
        assert env.peek("kv", "k") == final_value
        assert daal.tail_value(env.store, table, "k") == final_value
        if without is None:
            # The cache watched writes, disconnections, and deletions;
            # its view must match a cold traversal exactly.
            entry = runtime.tail_cache.tail_of(table, "k")
            if entry is not None:
                assert entry.row_id in after.reachable
        runtime.kernel.shutdown()

    @given(seed=st.integers(0, 2_000))
    @settings(**FAST)
    def test_stale_cache_across_gc_never_serves_deleted_rows(self, seed):
        """Pin the cache at every row of a chain in turn, GC the chain
        down, and re-read: every answer must equal the live tail value
        regardless of which (possibly deleted) row was pinned."""
        runtime = BeldiRuntime(seed=seed % 13, config=BeldiConfig(
            row_log_capacity=1, gc_t=300.0, ic_restart_delay=1e12))
        from repro.core.gc import make_garbage_collector

        def handler(ctx, payload):
            for i in range(5):
                ctx.write("kv", "k", i)
            return "ok"

        ssf = runtime.register_ssf("w", handler, tables=["kv"])
        runtime.run_workflow("w")
        env = ssf.env
        table = env.data_table("kv")
        all_rows = [row["RowId"]
                    for row in env.store.query(table, "k").items]
        gc_handler = make_garbage_collector(runtime, env)

        class _Ctx:
            request_id = "gc"
            invocation_index = 0

            def crash_point(self, tag):
                pass

        def collect():
            for _ in range(3):
                runtime.kernel.sleep(400.0)
                gc_handler(_Ctx(), {})

        runtime.kernel.spawn(collect)
        runtime.kernel.run()

        for row_id in all_rows:
            runtime.tail_cache.remember_tail(table, "k", row_id)
            assert env.peek("kv", "k") == 4, f"stale via {row_id}"
        runtime.kernel.shutdown()


class TestLogKeyProperties:
    @given(instance=st.text(
        alphabet=st.characters(blacklist_characters="#",
                               min_codepoint=33, max_codepoint=126),
        min_size=1, max_size=40),
        step=st.integers(0, 10_000))
    @settings(**FAST)
    def test_encode_decode_roundtrip(self, instance, step):
        from repro.core import logkeys
        encoded = logkeys.encode(instance, step)
        assert logkeys.decode(encoded) == (instance, step)
        assert logkeys.instance_of(encoded) == instance
