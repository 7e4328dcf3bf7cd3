"""The cross-table-transaction logging variant (Figs. 13/16 ablation)."""

import pytest

from repro.core import BeldiConfig, BeldiRuntime
from repro.platform import FunctionCrashed
from repro.platform.crashes import CrashOnce


@pytest.fixture
def runtime():
    rt = BeldiRuntime(seed=17, config=BeldiConfig(
        ic_restart_delay=50.0, gc_t=500.0))
    yield rt
    rt.kernel.shutdown()


class TestCrossTableBasics:
    def test_read_write_roundtrip(self, runtime):
        def handler(ctx, payload):
            ctx.write("kv", "k", payload)
            return ctx.read("kv", "k")

        ssf = runtime.register_ssf("ct", handler, tables=["kv"],
                                   storage_mode="crosstable")
        assert runtime.run_workflow("ct", "hello") == "hello"
        assert ssf.env.peek("kv", "k") == "hello"

    def test_data_stays_single_row(self, runtime):
        def handler(ctx, payload):
            for i in range(50):
                ctx.write("kv", "hot", i)
            return ctx.read("kv", "hot")

        ssf = runtime.register_ssf("ct", handler, tables=["kv"],
                                   storage_mode="crosstable")
        assert runtime.run_workflow("ct") == 49
        # No chain: exactly one row regardless of write count.
        assert ssf.env.store.item_count(ssf.env.data_table("kv")) == 1
        # But the write log grew one entry per write.
        assert ssf.env.store.item_count(ssf.env.write_log) == 50

    def test_cond_write_outcomes(self, runtime):
        from repro.kvstore import Eq
        from repro.kvstore.expressions import path

        def handler(ctx, payload):
            ctx.write("kv", "slot", {"s": "open"})
            won = ctx.cond_write("kv", "slot", {"s": "mine"},
                                 Eq(path("Value", "s"), "open"))
            lost = ctx.cond_write("kv", "slot", {"s": "theirs"},
                                  Eq(path("Value", "s"), "open"))
            return [won, lost]

        ssf = runtime.register_ssf("ct", handler, tables=["kv"],
                                   storage_mode="crosstable")
        assert runtime.run_workflow("ct") == [True, False]
        assert ssf.env.peek("kv", "slot") == {"s": "mine"}


class TestCrossTableExactlyOnce:
    def test_crash_recovery_counter(self, runtime):
        runtime.platform.crash_policy = CrashOnce("ct",
                                                  tag="write:1:done")

        def handler(ctx, payload):
            n = ctx.read("kv", "n") or 0
            ctx.write("kv", "n", n + 1)
            return n + 1

        ssf = runtime.register_ssf("ct", handler, tables=["kv"],
                                   storage_mode="crosstable")
        outcome = {}

        def client():
            try:
                outcome["r"] = runtime.client_call("ct", None)
            except FunctionCrashed:
                outcome["crashed"] = True

        runtime.start_collectors(ic_period=100.0, gc_period=1e11)
        runtime.kernel.spawn(client)
        runtime.kernel.run(until=3_000.0)
        runtime.stop_collectors()
        runtime.kernel.run(until=5_000.0)
        assert ssf.env.peek("kv", "n") == 1  # exactly once

    def test_duplicate_instance_writes_once(self, runtime):
        def handler(ctx, payload):
            n = ctx.read("kv", "n") or 0
            ctx.write("kv", "n", n + 1)
            return n + 1

        ssf = runtime.register_ssf("ct", handler, tables=["kv"],
                                   storage_mode="crosstable")

        def client():
            for _ in range(3):
                runtime.platform.sync_invoke(
                    "ct", {"kind": "call", "instance_id": "dup-1",
                           "input": None})

        runtime.kernel.spawn(client)
        runtime.kernel.run()
        assert ssf.env.peek("kv", "n") == 1

    def test_gc_prunes_write_log(self, runtime):
        from dst import advance, run_gc_now

        def handler(ctx, payload):
            ctx.write("kv", "k", payload)
            return "ok"

        ssf = runtime.register_ssf("ct", handler, tables=["kv"],
                                   storage_mode="crosstable")
        runtime.run_workflow("ct", 1)
        env = ssf.env
        assert env.store.item_count(env.write_log) == 1
        run_gc_now(runtime, env)
        advance(runtime, 1_000.0)
        run_gc_now(runtime, env)
        assert env.store.item_count(env.write_log) == 0
        assert env.peek("kv", "k") == 1

    def test_invocation_shared_with_daal_path(self, runtime):
        """Cross-table SSFs interoperate with DAAL SSFs via invoke."""
        runtime.register_ssf("leaf", lambda ctx, p: p * 2)

        def handler(ctx, payload):
            doubled = ctx.sync_invoke("leaf", payload)
            ctx.write("kv", "result", doubled)
            return doubled

        ssf = runtime.register_ssf("ct", handler, tables=["kv"],
                                   storage_mode="crosstable")
        assert runtime.run_workflow("ct", 21) == 42
        assert ssf.env.peek("kv", "result") == 42


class TestBaselineRuntime:
    def test_baseline_runs_same_handler_shape(self):
        from repro.core import BaselineRuntime
        rt = BaselineRuntime(seed=3)

        def handler(ctx, payload):
            n = ctx.read("kv", "n") or 0
            ctx.write("kv", "n", n + 1)
            return n + 1

        ssf = rt.register_ssf("counter", handler, tables=["kv"])
        assert rt.run_workflow("counter") == 1
        assert rt.run_workflow("counter") == 2
        assert ssf.env.peek("kv", "n") == 2
        rt.kernel.shutdown()

    def test_baseline_has_no_crash_recovery(self):
        from repro.core import BaselineRuntime
        rt = BaselineRuntime(seed=3)
        rt.platform.crash_policy = CrashOnce("counter", tag="mid")

        def handler(ctx, payload):
            n = ctx.read("kv", "n") or 0
            ctx.write("kv", "n", n + 1)
            ctx.crash_point("mid")
            ctx.write("kv", "other", "never")
            return "ok"

        ssf = rt.register_ssf("counter", handler, tables=["kv"])
        outcome = {}

        def client():
            try:
                rt.client_call("counter", None)
            except FunctionCrashed:
                outcome["crashed"] = True

        rt.kernel.spawn(client)
        rt.kernel.run(until=10_000.0)
        # Partial state: first write landed, second never did, and
        # nothing ever repairs it — the paper's baseline behaviour.
        assert outcome.get("crashed") is True
        assert ssf.env.peek("kv", "n") == 1
        assert ssf.env.peek("kv", "other") is None
        rt.kernel.shutdown()

    def test_baseline_transactions_are_not_isolated(self):
        """The control for §7.4: the baseline travel app is inconsistent."""
        from repro.core import BaselineRuntime
        rt = BaselineRuntime(seed=3, latency_scale=0.0)

        def transfer(ctx, payload):
            with ctx.transaction():
                a = ctx.read("kv", "a")
                ctx.sleep(50.0)  # interleaving window
                ctx.write("kv", "a", a - 10)
                b = ctx.read("kv", "b")
                ctx.write("kv", "b", b + 10)
            return "done"

        ssf = rt.register_ssf("transfer", transfer, tables=["kv"])
        ssf.env.seed("kv", "a", 100)
        ssf.env.seed("kv", "b", 0)
        for i in range(2):
            rt.kernel.spawn(lambda: rt.client_call("transfer", None))
        rt.kernel.run()
        # One decrement was lost: money not conserved.
        assert ssf.env.peek("kv", "a") == 90
        assert ssf.env.peek("kv", "b") == 20
        rt.kernel.shutdown()
