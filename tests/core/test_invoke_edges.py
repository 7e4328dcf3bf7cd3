"""Invocation edge cases: spurious callbacks, id reuse, log contents."""

import pytest

from repro.core import BeldiConfig, BeldiRuntime
from repro.core.invoke import ASYNC_ACK, record_callback
from repro.platform import CrashOnce, FunctionCrashed


@pytest.fixture
def runtime():
    rt = BeldiRuntime(seed=31, config=BeldiConfig(
        ic_restart_delay=50.0, gc_t=1e12))
    yield rt
    rt.kernel.shutdown()


class TestSpuriousCallbacks:
    def test_callback_for_unknown_invoke_ignored(self, runtime):
        """Fig. 9's tail case: a re-executed callee calls back after the
        caller's logs were garbage collected — detected and dropped."""
        ssf = runtime.register_ssf("caller", lambda ctx, p: "x")
        recorded = record_callback(ssf.env, ssf.env.store,
                                   "ghost-instance", 3, "some-callee",
                                   "result")
        assert recorded is False
        # Nothing was created in the invoke log.
        assert ssf.env.store.item_count(ssf.env.invoke_log) == 0

    def test_callback_with_wrong_callee_id_ignored(self, runtime):
        runtime.register_ssf("leaf", lambda ctx, p: "v")
        ssf = runtime.register_ssf(
            "caller", lambda ctx, p: ctx.sync_invoke("leaf", None))
        runtime.run_workflow("caller")
        entry = ssf.env.store.scan(ssf.env.invoke_log).items[0]
        # A stale callback carrying a different callee id must not
        # overwrite the logged result.
        recorded = record_callback(ssf.env, ssf.env.store,
                                   entry["InstanceId"], entry["Step"],
                                   "imposter-id", "tampered")
        assert recorded is False
        entry_after = ssf.env.store.get(
            ssf.env.invoke_log, (entry["InstanceId"], entry["Step"]))
        assert entry_after["Result"] == "v"

    def test_duplicate_callback_is_idempotent(self, runtime):
        runtime.register_ssf("leaf", lambda ctx, p: "v")
        ssf = runtime.register_ssf(
            "caller", lambda ctx, p: ctx.sync_invoke("leaf", None))
        runtime.run_workflow("caller")
        entry = ssf.env.store.scan(ssf.env.invoke_log).items[0]
        recorded = record_callback(ssf.env, ssf.env.store,
                                   entry["InstanceId"], entry["Step"],
                                   entry["CalleeId"], "v")
        assert recorded is True  # same deterministic result, harmless
        entry_after = ssf.env.store.get(
            ssf.env.invoke_log, (entry["InstanceId"], entry["Step"]))
        assert entry_after["Result"] == "v"


class TestCalleeIdReuse:
    def test_reexecuted_caller_reuses_callee_id(self, runtime):
        """The core §4.5 guarantee: a replayed caller re-invokes with the
        *logged* callee id, so the callee can dedupe."""
        seen_ids = []

        def leaf(ctx, payload):
            seen_ids.append(ctx.instance_id)
            return "v"

        runtime.register_ssf("leaf", leaf)
        ssf = runtime.register_ssf(
            "caller", lambda ctx, p: ctx.sync_invoke("leaf", None))

        def client():
            # Same caller instance delivered twice (duplicate delivery).
            for _ in range(2):
                runtime.platform.sync_invoke(
                    "caller", {"kind": "call", "instance_id": "dup-A",
                               "input": None})

        runtime.kernel.spawn(client)
        runtime.kernel.run()
        # The leaf may have been *delivered* twice, but always under one
        # instance id, and its intent executed once.
        assert len(set(seen_ids)) <= 1
        leaf_env = runtime.ssfs["leaf"].env
        intents = leaf_env.store.scan(leaf_env.intent_table).items
        assert len(intents) == 1

    def test_replayed_caller_answers_a_none_result_from_the_log(
            self, runtime):
        """A callee that legitimately returned ``None`` has a result in
        the invoke log like any other: the replayed caller answers from
        it instead of paying another invocation and callback."""
        runtime.register_ssf("leaf", lambda ctx, p: None)
        runtime.register_ssf(
            "caller", lambda ctx, p: [ctx.sync_invoke("leaf", None)])
        runtime.platform.crash_policy = CrashOnce(
            "caller", "invoke:0:after-call")
        results = []

        def client():
            for _ in range(2):  # the crashed delivery, then its replay
                try:
                    results.append(runtime.platform.sync_invoke(
                        "caller", {"kind": "call", "instance_id": "dup-N",
                                   "input": None}))
                except FunctionCrashed:
                    results.append("crashed")

        runtime.kernel.spawn(client)
        runtime.kernel.run()
        assert results == ["crashed", [None]]
        assert runtime.platform._entry("leaf").invocation_counter == 1

    def test_invoke_log_schema(self, runtime):
        runtime.register_ssf("leaf", lambda ctx, p: p)
        ssf = runtime.register_ssf(
            "caller",
            lambda ctx, p: ctx.sync_invoke("leaf", {"k": 1}))
        runtime.run_workflow("caller")
        entry = ssf.env.store.scan(ssf.env.invoke_log).items[0]
        assert entry["Callee"] == "leaf"
        assert entry["Async"] is False
        assert entry["InTxn"] is False
        assert entry["Result"] == {"k": 1}
        assert "CalleeId" in entry


class TestAsyncAck:
    def test_registration_acks_into_invoke_log(self, runtime):
        sink_calls = []

        def sink(ctx, payload):
            sink_calls.append(payload)
            return "done"

        runtime.register_ssf("sink", sink)
        ssf = runtime.register_ssf(
            "caller",
            lambda ctx, p: ctx.async_invoke("sink", {"m": 1}) or "sent")
        runtime.run_workflow("caller")
        runtime.kernel.run()
        entry = ssf.env.store.scan(ssf.env.invoke_log).items[0]
        assert entry["Result"] == ASYNC_ACK
        assert entry["Async"] is True
        assert sink_calls == [{"m": 1}]

    def test_async_exec_without_registration_is_dropped(self, runtime):
        ran = []
        runtime.register_ssf("sink", lambda ctx, p: ran.append(p))

        def client():
            # An async exec delivery whose intent was never registered
            # (e.g. a stray retry after GC) must be ignored (Fig. 20).
            runtime.platform.sync_invoke(
                "sink", {"kind": "call", "instance_id": "never-registered",
                         "async": True})

        runtime.kernel.spawn(client)
        runtime.kernel.run()
        assert ran == []

    def test_async_exec_after_done_is_dropped(self, runtime):
        count = []

        def sink(ctx, payload):
            count.append(1)
            return "done"

        runtime.register_ssf("sink", sink)
        runtime.register_ssf(
            "caller",
            lambda ctx, p: ctx.async_invoke("sink", None) or "sent")
        runtime.run_workflow("caller")
        runtime.kernel.run()
        assert len(count) == 1
        sink_env = runtime.ssfs["sink"].env
        intent = sink_env.store.scan(sink_env.intent_table).items[0]

        def replay():
            runtime.platform.sync_invoke(
                "sink", {"kind": "call",
                         "instance_id": intent["InstanceId"],
                         "async": True})

        runtime.kernel.spawn(replay)
        runtime.kernel.run()
        assert len(count) == 1  # the duplicate dispatch did nothing


class TestGCPaging:
    def test_page_limit_still_recycles_everything_eventually(self):
        from tests.core.test_gc import advance, run_gc_now
        runtime = BeldiRuntime(seed=37, config=BeldiConfig(
            gc_t=500.0, gc_page_limit=2))
        ssf = runtime.register_ssf(
            "w", lambda ctx, p: ctx.write("kv", f"k{p}", p) or p,
            tables=["kv"])
        for i in range(5):
            runtime.run_workflow("w", i)
        env = ssf.env
        assert env.store.item_count(env.intent_table) == 5
        # Paged runs: each processes at most 2 intent records, but
        # repeated ticks drain the table.
        for _ in range(10):
            advance(runtime, 700.0)
            run_gc_now(runtime, env)
        assert env.store.item_count(env.intent_table) == 0
        for i in range(5):
            assert env.peek("kv", f"k{i}") == i
        runtime.kernel.shutdown()

    def test_paged_gc_never_prunes_live_entries(self):
        from tests.core.test_gc import advance, run_gc_now
        from repro.platform.crashes import CrashOnce
        from repro.platform import FunctionCrashed
        runtime = BeldiRuntime(seed=38, config=BeldiConfig(
            gc_t=500.0, gc_page_limit=1, ic_restart_delay=1e12))
        runtime.platform.crash_policy = CrashOnce("w", tag="write:1:start")

        def w(ctx, payload):
            ctx.read("kv", "a")
            ctx.write("kv", "a", payload)
            return payload

        ssf = runtime.register_ssf("w", w, tables=["kv"])

        def client():
            try:
                runtime.client_call("w", 1)
            except FunctionCrashed:
                pass

        runtime.kernel.spawn(client)
        runtime.kernel.run()
        for _ in range(6):
            advance(runtime, 700.0)
            run_gc_now(runtime, ssf.env)
        # The crashed instance is pending: its read log must survive
        # every paged GC pass.
        assert ssf.env.store.item_count(ssf.env.read_log) == 1
        runtime.kernel.shutdown()
