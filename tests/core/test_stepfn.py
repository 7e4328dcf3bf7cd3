"""Step functions (Fig. 21) and parallel invocation (§6.2 threads)."""

import pytest

from repro.core import BeldiConfig, BeldiRuntime
from repro.core.stepfn import (
    Parallel,
    StepFunction,
    Task,
    TxnScope,
    register_step_function,
)
from repro.platform import FunctionCrashed


@pytest.fixture
def runtime():
    rt = BeldiRuntime(seed=23, config=BeldiConfig(
        ic_restart_delay=50.0, gc_t=1e12, lock_retry_backoff=5.0))
    yield rt
    rt.kernel.shutdown()


class TestParallelInvoke:
    def test_results_in_call_order(self, runtime):
        runtime.register_ssf("slow", lambda ctx, p: (ctx.sleep(50.0), p)[1])
        runtime.register_ssf("fast", lambda ctx, p: p)

        def driver(ctx, payload):
            return ctx.parallel_invoke([("slow", "a"), ("fast", "b"),
                                        ("slow", "c")])

        runtime.register_ssf("driver", driver)
        assert runtime.run_workflow("driver") == ["a", "b", "c"]

    def test_parallel_overlaps_in_time(self, runtime):
        rt = BeldiRuntime(seed=23, latency_scale=0.0)
        rt.register_ssf("napper", lambda ctx, p: ctx.sleep(100.0))
        durations = {}

        def driver(ctx, payload):
            start = ctx.platform_ctx.now
            ctx.parallel_invoke([("napper", None)] * 3)
            durations["parallel"] = ctx.platform_ctx.now - start
            start = ctx.platform_ctx.now
            for _ in range(3):
                ctx.sync_invoke("napper", None)
            durations["serial"] = ctx.platform_ctx.now - start
            return "ok"

        rt.register_ssf("driver", driver)
        rt.run_workflow("driver")
        assert durations["parallel"] < durations["serial"] / 2
        rt.kernel.shutdown()

    def test_parallel_inside_transaction(self, runtime):
        def bump(ctx, payload):
            n = ctx.read("kv", payload) or 0
            ctx.write("kv", payload, n + 1)
            return n + 1

        bump_ssf = runtime.register_ssf("bump", bump, tables=["kv"])

        def driver(ctx, payload):
            with ctx.transaction() as tx:
                ctx.parallel_invoke([("bump", "x"), ("bump", "y")])
            return tx.outcome

        runtime.register_ssf("driver", driver)
        assert runtime.run_workflow("driver") == "committed"
        assert bump_ssf.env.peek("kv", "x") == 1
        assert bump_ssf.env.peek("kv", "y") == 1

    def test_parallel_branch_abort_rolls_back_all(self, runtime):
        def writer(ctx, payload):
            ctx.write("kv", "w", payload)
            return "wrote"

        writer_ssf = runtime.register_ssf("writer", writer, tables=["kv"])

        def aborter(ctx, payload):
            ctx.abort_tx()

        runtime.register_ssf("aborter", aborter)

        def driver(ctx, payload):
            with ctx.transaction() as tx:
                ctx.parallel_invoke([("writer", "v1"), ("aborter", None)])
            return tx.outcome

        runtime.register_ssf("driver", driver)
        assert runtime.run_workflow("driver") == "aborted"
        assert writer_ssf.env.peek("kv", "w") is None

    def test_parallel_replay_is_deterministic(self, runtime):
        """Crash after the fan-out: replay must reuse the same callee ids
        (i.e., not re-execute any branch)."""
        from repro.platform.crashes import CrashOnce
        runtime.platform.crash_policy = CrashOnce("driver",
                                                  tag="body:done")

        def bump(ctx, payload):
            # A key per branch: the branches run concurrently, and two
            # unlocked read-modify-writes of one key may lose an update.
            n = ctx.read("kv", f"n-{payload}") or 0
            ctx.write("kv", f"n-{payload}", n + 1)
            return n + 1

        bump_ssf = runtime.register_ssf("bump", bump, tables=["kv"])

        def driver(ctx, payload):
            ctx.parallel_invoke([("bump", i) for i in range(3)])
            return "ok"

        runtime.register_ssf("driver", driver)
        outcome = {}

        def client():
            try:
                outcome["r"] = runtime.client_call("driver", None)
            except FunctionCrashed:
                outcome["crashed"] = True

        runtime.start_collectors(ic_period=100.0, gc_period=1e11)
        runtime.kernel.spawn(client)
        runtime.kernel.run(until=3_000.0)
        runtime.stop_collectors()
        runtime.kernel.run(until=5_000.0)
        # Each branch ran once: not 2.
        assert [bump_ssf.env.peek("kv", f"n-{i}") for i in range(3)] == [
            1, 1, 1]


class TestStepFunctions:
    def test_sequential_chain(self, runtime):
        runtime.register_ssf("first", lambda ctx, p: p * 2)
        runtime.register_ssf("second", lambda ctx, p: p + 1)
        workflow = StepFunction("wf", [
            Task("doubled", "first"),
            Task("plus_one", "second",
                 payload=lambda r: r["doubled"]),
        ])
        register_step_function(runtime, workflow)
        results = runtime.run_workflow("wf", 5)
        assert results == {"doubled": 10, "plus_one": 11}

    def test_parallel_state(self, runtime):
        runtime.register_ssf("left", lambda ctx, p: "L")
        runtime.register_ssf("right", lambda ctx, p: "R")
        workflow = StepFunction("wf", [
            Parallel([[Task("l", "left")], [Task("r", "right")]]),
        ])
        register_step_function(runtime, workflow)
        assert runtime.run_workflow("wf") == {"l": "L", "r": "R"}

    def test_fig21_transactional_subgraph_commits(self, runtime):
        """begin -> SSF1 -> {SSF2, SSF3} -> end, all inside one txn."""
        def make_writer(table_env):
            def writer(ctx, payload):
                n = ctx.read("kv", payload) or 0
                ctx.write("kv", payload, n + 1)
                return n + 1
            return writer

        shared = runtime.create_env("team", tables=["kv"])
        for name in ("ssf1", "ssf2", "ssf3"):
            runtime.register_ssf(name, make_writer(shared), env=shared)
        workflow = StepFunction("wf", [
            TxnScope([
                Task("a", "ssf1", payload=lambda r: "k1"),
                Parallel([[Task("b", "ssf2",
                                payload=lambda r: "k2")],
                          [Task("c", "ssf3",
                                payload=lambda r: "k3")]]),
            ], on_abort="txn"),
        ])
        register_step_function(runtime, workflow)
        results = runtime.run_workflow("wf")
        assert results["txn"] == "committed"
        assert shared.peek("kv", "k1") == 1
        assert shared.peek("kv", "k2") == 1
        assert shared.peek("kv", "k3") == 1

    def test_fig21_abort_propagates_to_whole_scope(self, runtime):
        shared = runtime.create_env("team", tables=["kv"])

        def writer(ctx, payload):
            ctx.write("kv", payload, "dirty")
            return "wrote"

        def bouncer(ctx, payload):
            ctx.abort_tx()

        runtime.register_ssf("writer", writer, env=shared)
        runtime.register_ssf("bouncer", bouncer, env=shared)
        workflow = StepFunction("wf", [
            TxnScope([
                Task("w", "writer", payload=lambda r: "k1"),
                Task("x", "bouncer"),
            ], on_abort="txn"),
        ])
        register_step_function(runtime, workflow)
        results = runtime.run_workflow("wf")
        assert results["txn"] == "aborted"
        assert shared.peek("kv", "k1") is None  # rolled back

    def test_states_after_scope_still_run(self, runtime):
        runtime.register_ssf("inside", lambda ctx, p: "in")
        runtime.register_ssf("after", lambda ctx, p: "post")
        workflow = StepFunction("wf", [
            TxnScope([Task("t", "inside")], on_abort="txn"),
            Task("tail", "after"),
        ])
        register_step_function(runtime, workflow)
        results = runtime.run_workflow("wf")
        assert results["tail"] == "post"
        assert results["txn"] == "committed"

    def test_driver_crash_recovers_exactly_once(self, runtime):
        from repro.platform.crashes import CrashOnce
        runtime.platform.crash_policy = CrashOnce("wf", tag="body:done")

        def bump(ctx, payload):
            n = ctx.read("kv", "n") or 0
            ctx.write("kv", "n", n + 1)
            return n + 1

        bump_ssf = runtime.register_ssf("bump", bump, tables=["kv"])
        workflow = StepFunction("wf", [Task("one", "bump"),
                                       Task("two", "bump")])
        register_step_function(runtime, workflow)
        outcome = {}

        def client():
            try:
                outcome["r"] = runtime.client_call("wf", None)
            except FunctionCrashed:
                outcome["crashed"] = True

        runtime.start_collectors(ic_period=100.0, gc_period=1e11)
        runtime.kernel.spawn(client)
        runtime.kernel.run(until=3_000.0)
        runtime.stop_collectors()
        runtime.kernel.run(until=5_000.0)
        assert bump_ssf.env.peek("kv", "n") == 2  # not 4

    def test_ssf_count(self):
        workflow = StepFunction("wf", [
            Task("a", "x"),
            Parallel([[Task("b", "y")], [Task("c", "z")]]),
            TxnScope([Task("d", "w")]),
        ])
        assert workflow.ssf_count == 4
