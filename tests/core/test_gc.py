"""Garbage collection (§5): pruning without breaking exactly-once."""

import pytest

from repro.core import BeldiConfig, BeldiRuntime
from repro.core import daal
from repro.core.gc import make_garbage_collector


@pytest.fixture
def runtime():
    rt = BeldiRuntime(seed=13, config=BeldiConfig(
        ic_restart_delay=50.0, gc_t=500.0))
    yield rt
    rt.kernel.shutdown()


def run_gc_now(runtime, env, times=1):
    """Invoke the env's GC directly (no timers) from a client process."""
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


class TestLogPruning:
    def test_two_phase_recycling(self, runtime):
        """Run 1 stamps FinishTime; run 2 (after T) recycles."""
        def handler(ctx, payload):
            ctx.read("kv", "a")
            ctx.write("kv", "a", 1)
            return "ok"

        ssf = runtime.register_ssf("w", handler, tables=["kv"])
        runtime.run_workflow("w")
        env = ssf.env
        assert env.store.item_count(env.read_log) == 1

        first = run_gc_now(runtime, env)[0]
        assert first["stamped"] == 1
        assert first["recycled_intents"] == 0
        assert env.store.item_count(env.read_log) == 1  # too fresh

        advance(runtime, 1_000.0)  # > T
        second = run_gc_now(runtime, env)[0]
        assert second["recycled_intents"] == 1
        assert env.store.item_count(env.read_log) == 0
        assert env.store.item_count(env.intent_table) == 0

    def test_invoke_log_pruned(self, runtime):
        runtime.register_ssf("leaf", lambda ctx, p: "v")
        ssf = runtime.register_ssf(
            "root", lambda ctx, p: ctx.sync_invoke("leaf", None))
        runtime.run_workflow("root")
        env = ssf.env
        assert env.store.item_count(env.invoke_log) == 1
        run_gc_now(runtime, env)
        advance(runtime, 1_000.0)
        run_gc_now(runtime, env)
        assert env.store.item_count(env.invoke_log) == 0

    def test_live_intent_logs_kept(self, runtime):
        """An unfinished instance's logs must survive any number of GCs."""
        from repro.platform.crashes import CrashOnce
        from repro.platform import FunctionCrashed
        runtime.platform.crash_policy = CrashOnce("w", tag="write:1:start")

        def handler(ctx, payload):
            ctx.read("kv", "a")
            ctx.write("kv", "a", 1)
            return "ok"

        ssf = runtime.register_ssf("w", handler, tables=["kv"])

        def client():
            try:
                runtime.client_call("w", None)
            except FunctionCrashed:
                pass

        runtime.kernel.spawn(client)
        runtime.kernel.run()
        env = ssf.env
        assert env.store.item_count(env.read_log) == 1
        for _ in range(3):
            advance(runtime, 1_000.0)
            run_gc_now(runtime, env)
        # Crashed-but-pending: everything retained for the IC.
        assert env.store.item_count(env.read_log) == 1
        assert env.store.item_count(env.intent_table) == 1


class TestChainCollection:
    def _hot_key_writer(self, runtime, writes=40):
        def handler(ctx, payload):
            for i in range(writes):
                ctx.write("kv", "hot", i)
            return "ok"

        return runtime.register_ssf("w", handler, tables=["kv"])

    def test_chain_shrinks_after_recycling(self, runtime):
        ssf = self._hot_key_writer(runtime)
        runtime.run_workflow("w")
        env = ssf.env
        table = env.data_table("kv")
        before = daal.chain_length(env.store, table, "hot")
        assert before >= 5
        run_gc_now(runtime, env)                 # stamp finish time
        advance(runtime, 1_000.0)
        run_gc_now(runtime, env)                 # disconnect interior rows
        after_disconnect = daal.chain_length(env.store, table, "hot")
        assert after_disconnect <= 2             # head + tail
        advance(runtime, 1_000.0)
        run_gc_now(runtime, env)                 # delete dangled rows
        total_rows = env.store.table(table).item_count()
        assert total_rows <= 2
        # The value must survive collection.
        assert env.peek("kv", "hot") == 39

    def test_chain_stays_short_under_steady_load(self, runtime):
        """Interleave writers and GC: bounded chain, correct final value."""
        def handler(ctx, payload):
            ctx.write("kv", "hot", payload)
            return payload

        ssf = runtime.register_ssf("w", handler, tables=["kv"])
        env = ssf.env
        table = env.data_table("kv")
        lengths = []
        for round_no in range(12):
            for j in range(4):
                runtime.run_workflow("w", round_no * 10 + j)
            advance(runtime, 600.0)
            run_gc_now(runtime, env)
            lengths.append(daal.chain_length(env.store, table, "hot"))
        assert env.peek("kv", "hot") == 113
        assert max(lengths[3:]) <= 4  # stays bounded once GC warms up

    def test_orphan_rows_collected(self, runtime):
        ssf = self._hot_key_writer(runtime, writes=2)
        runtime.run_workflow("w")
        env = ssf.env
        table = env.data_table("kv")
        # Simulate a crashed append: an unreachable row.
        env.store.put(table, {"Key": "hot", "RowId": "orphan-1",
                              "Value": 0, "RecentWrites": {},
                              "LogSize": 0})
        run_gc_now(runtime, env)  # stamps DangleTime on the orphan
        row = env.store.get(table, ("hot", "orphan-1"))
        assert "DangleTime" in row
        advance(runtime, 1_000.0)
        run_gc_now(runtime, env)
        assert env.store.get(table, ("hot", "orphan-1")) is None

    def test_value_and_semantics_survive_aggressive_gc(self, runtime):
        """GC after every request: counters still count exactly."""
        def handler(ctx, payload):
            n = ctx.read("kv", "n") or 0
            ctx.write("kv", "n", n + 1)
            return n + 1

        ssf = runtime.register_ssf("inc", handler, tables=["kv"])
        env = ssf.env
        for i in range(10):
            assert runtime.run_workflow("inc") == i + 1
            advance(runtime, 600.0)
            run_gc_now(runtime, env)
        assert env.peek("kv", "n") == 10


class TestStaleLockCopies:
    """A row that fills while its item is locked hands ``LockOwner`` to
    the next row and keeps the copy; the head is never disconnected, so
    its copy would outlive the lock for good."""

    def _locked_writer(self, runtime, release: bool):
        def handler(ctx, payload):
            ctx.lock("kv", "k")
            for i in range(2 * ctx.config.row_log_capacity):
                ctx.write("kv", "k", i)
            if release:
                ctx.unlock("kv", "k")
            return "ok"

        return runtime.register_ssf("lw", handler, tables=["kv"])

    def _owners(self, env):
        rows = daal.chain_rows(env.store, env.data_table("kv"), "k")
        assert len(rows) >= 2
        return [row.get("LockOwner", {}).get("Id") for row in rows]

    def _collect(self, runtime, env):
        stale_locks = 0
        for _ in range(3):
            stale_locks += sum(stats["stale_locks"]
                               for stats in run_gc_now(runtime, env))
            advance(runtime, 1_000.0)
        return stale_locks

    def test_a_released_locks_copies_are_stripped(self, runtime):
        env = self._locked_writer(runtime, release=True).env
        runtime.run_workflow("lw")
        before = self._owners(env)
        assert before[0] is not None and before[-1] is None
        assert self._collect(runtime, env) >= 1
        assert set(self._owners(env)) == {None}
        assert env.peek("kv", "k") == 2 * runtime.config.row_log_capacity - 1

    def test_a_held_locks_copies_stay(self, runtime):
        """While the tail still names the owner, a holder that resolved
        its tail before the row chained must find the copy where it
        looks (``daal.flush_value`` reads "no owner" as "already
        flushed")."""
        env = self._locked_writer(runtime, release=False).env
        runtime.run_workflow("lw")
        before = self._owners(env)
        assert before[0] is not None and before[0] == before[-1]
        assert self._collect(runtime, env) == 0
        assert self._owners(env)[0] == before[0]


class TestShadowCollection:
    def test_committed_txn_shadows_collected(self, runtime):
        def handler(ctx, payload):
            with ctx.transaction():
                ctx.write("kv", "a", payload)
            return "ok"

        ssf = runtime.register_ssf("txw", handler, tables=["kv"])
        runtime.run_workflow("txw", 7)
        env = ssf.env
        shadow = env.shadow_table("kv")
        assert env.store.table(shadow).item_count() > 0
        run_gc_now(runtime, env)       # finish-stamp the instance
        advance(runtime, 1_000.0)
        run_gc_now(runtime, env)       # writers recyclable: stamp chain
        advance(runtime, 1_000.0)
        run_gc_now(runtime, env)       # delete after a full T dangling
        assert env.store.table(shadow).item_count() == 0
        assert env.peek("kv", "a") == 7

    def test_lockset_rows_collected(self, runtime):
        def handler(ctx, payload):
            with ctx.transaction():
                ctx.write("kv", "a", 1)
            return "ok"

        ssf = runtime.register_ssf("txw", handler, tables=["kv"])
        runtime.run_workflow("txw")
        env = ssf.env
        assert env.store.item_count(env.lockset_table) == 1
        run_gc_now(runtime, env)
        advance(runtime, 1_000.0)
        run_gc_now(runtime, env)
        assert env.store.item_count(env.lockset_table) == 0

    def test_live_txn_shadows_kept(self, runtime):
        """A pending (crashed) transactional instance keeps its shadow."""
        from repro.platform.crashes import CrashOnce
        from repro.platform import FunctionCrashed
        runtime.platform.crash_policy = CrashOnce("txw", tag="body:done")

        def handler(ctx, payload):
            with ctx.transaction():
                ctx.write("kv", "a", 1)
            return "ok"

        ssf = runtime.register_ssf("txw", handler, tables=["kv"])

        def client():
            try:
                runtime.client_call("txw", None)
            except FunctionCrashed:
                pass

        runtime.kernel.spawn(client)
        runtime.kernel.run()
        env = ssf.env
        shadow = env.shadow_table("kv")
        rows_before = env.store.table(shadow).item_count()
        assert rows_before > 0
        for _ in range(3):
            advance(runtime, 1_000.0)
            run_gc_now(runtime, env)
        assert env.store.table(shadow).item_count() == rows_before


class TestGCConcurrency:
    def test_gc_safe_with_concurrent_writers(self, runtime):
        """GC runs while writers are mid-flight: no lost writes."""
        def handler(ctx, payload):
            for i in range(6):
                ctx.write("kv", "hot", (payload, i))
                ctx.sleep(10.0)
            return "ok"

        ssf = runtime.register_ssf("w", handler, tables=["kv"])
        env = ssf.env

        def gc_loop():
            handler_fn = make_garbage_collector(runtime, env)

            class _Ctx:
                request_id = "gc"
                invocation_index = 0

                def crash_point(self, tag):
                    pass

            for _ in range(20):
                runtime.kernel.sleep(7.0)
                handler_fn(_Ctx(), {})

        for i in range(3):
            runtime.kernel.spawn(
                lambda i=i: runtime.client_call("w", i), delay=float(i))
        runtime.kernel.spawn(gc_loop)
        runtime.kernel.run()
        final = env.peek("kv", "hot")
        assert final is not None and final[1] == 5

    def test_concurrent_gc_instances_converge(self, runtime):
        def handler(ctx, payload):
            for i in range(30):
                ctx.write("kv", "hot", i)
            return "ok"

        ssf = runtime.register_ssf("w", handler, tables=["kv"])
        runtime.run_workflow("w")
        env = ssf.env
        run_gc_now(runtime, env, times=2)
        advance(runtime, 1_000.0)
        # Two GC passes back-to-back (like overlapping timer fires).
        run_gc_now(runtime, env, times=3)
        advance(runtime, 1_000.0)
        run_gc_now(runtime, env, times=2)
        table = env.data_table("kv")
        assert env.store.table(table).item_count() <= 2
        assert env.peek("kv", "hot") == 29
