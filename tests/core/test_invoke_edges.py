"""Invocation edge cases: spurious callbacks, id reuse, log contents,
and the window between a callee's reply and its callback."""

import pytest

import dst
import lifecycle
from repro.core import BeldiConfig, BeldiRuntime, intents
from repro.core.gc import make_garbage_collector
from repro.core.invoke import (ASYNC_ACK, _derived_callee_id,
                               record_callback)
from repro.platform import CrashOnce, CrashScript, FunctionCrashed


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


def _log_platform_calls(runtime) -> list:
    """Every ``sync_invoke`` the platform serves, as it happens:
    ``{start, end, function, kind, result}`` (no ``result`` when the
    invocation failed), plus ``claimed`` — when its ``meanwhile``
    returned — for a pipelined open."""
    calls = []
    real = runtime.platform.sync_invoke

    def logged(name, payload, meanwhile=None):
        row = {"start": runtime.kernel.now, "function": name,
               "kind": (payload or {}).get("kind", "call")}
        calls.append(row)

        def claim():
            meanwhile()
            row["claimed"] = runtime.kernel.now

        try:
            row["result"] = real(name, payload,
                                 meanwhile=claim if meanwhile else None)
            return row["result"]
        finally:
            row["end"] = runtime.kernel.now

    runtime.platform.sync_invoke = logged
    return calls


class TestReplyBeforeCallback:
    """A sync callee replies once its result is fixed (read log flushed)
    and runs callback + ``Done`` as a tail beside its caller. The window
    that opens — replied, callback not landed — must cost nothing."""

    GC_T = 400.0

    def _runtime(self, **config):
        config.setdefault("ic_restart_delay", 50.0)
        config.setdefault("gc_t", self.GC_T)
        return BeldiRuntime(seed=31, latency_scale=1.0,
                            config=BeldiConfig(**config))

    def _counter_pair(self, runtime):
        """``caller`` invokes ``leaf``; each bumps a counter of its own,
        so a repeated effect on either side shows."""
        bodies = []

        def leaf(ctx, payload):
            bodies.append(ctx.instance_id)
            ctx.write("kv", "n", (ctx.read("kv", "n") or 0) + 1)
            return "v"

        def caller(ctx, payload):
            ctx.write("kv", "calls", (ctx.read("kv", "calls") or 0) + 1)
            return [ctx.sync_invoke("leaf", None)]

        return (runtime.register_ssf("leaf", leaf, tables=["kv"]),
                runtime.register_ssf("caller", caller, tables=["kv"]),
                bodies)

    @staticmethod
    def _assert_settled(runtime):
        for env in runtime.envs.values():
            assert not intents.pending_intents(env), env.name

    def test_callee_dying_after_its_reply_costs_the_caller_nothing(self):
        from tests.core.test_crashpoint_sweep import run_gc_passes
        runtime = self._runtime()
        leaf, caller, _bodies = self._counter_pair(runtime)
        runtime.platform.crash_policy = CrashOnce("leaf", "reply:sent")
        box = {}

        def client():
            box["result"] = runtime.client_call("caller")
            box["leaf_pending"] = len(intents.pending_intents(leaf.env))
            box["logged"] = caller.env.store.scan(
                caller.env.invoke_log).items[0].get("Result", "nothing")

        runtime.start_collectors(ic_period=100.0, gc_period=1e12)
        runtime.kernel.spawn(client)
        runtime.kernel.run(until=5_000.0)
        runtime.stop_collectors()
        runtime.kernel.run(until=6_000.0)
        # The caller finished on the reply alone: the callee was dead,
        # its intent unfinished, its callback never sent.
        assert box == {"result": ["v"], "leaf_pending": 1,
                       "logged": "nothing"}
        assert runtime.platform.stats.crashes == 1
        # The intent collector finished the callee: same value, the
        # callback landed late, and nothing happened twice.
        self._assert_settled(runtime)
        (intent,) = leaf.env.store.scan(leaf.env.intent_table).items
        assert intent["Done"] and intent["Ret"] == "v"
        (entry,) = caller.env.store.scan(caller.env.invoke_log).items
        assert entry["Result"] == "v"
        assert leaf.env.peek("kv", "n") == 1
        assert caller.env.peek("kv", "calls") == 1
        run_gc_passes(runtime)
        dst.assert_store_clean(runtime.store, [runtime])
        runtime.kernel.shutdown()

    def test_caller_replayed_before_the_callback_lands_reinvokes_same_id(
            self):
        """The caller consumes the reply and dies; its replay finds no
        result in the invoke log (the callback is held back: its first
        delivery dies and the callee's tail backs off) and re-invokes
        the *same* callee id. The callee, still unfinished, answers from
        its logs: same value, one effect."""
        runtime = self._runtime(invoke_retry_backoff=2_000.0)
        leaf, caller, bodies = self._counter_pair(runtime)
        # caller#0 is the request, caller#1 the callback delivery.
        runtime.platform.crash_policy = CrashScript.of(
            ("caller", 0, "invoke:2:after-call"), ("caller", 1, "enter"))
        calls = _log_platform_calls(runtime)
        results = []

        def client():
            for _ in range(2):  # the crashed delivery, then its replay
                try:
                    results.append(runtime.platform.sync_invoke(
                        "caller", {"kind": "call", "instance_id": "dup-R",
                                   "input": None}))
                except FunctionCrashed:
                    results.append("crashed")
            results.append(runtime.kernel.now)

        runtime.kernel.spawn(client)
        runtime.kernel.run()
        replayed_at = results.pop()
        assert results == ["crashed", ["v"]]
        leaf_calls = [c for c in calls if c["function"] == "leaf"]
        assert len(leaf_calls) == 2 and len(set(bodies)) == 1
        assert [c["result"] for c in leaf_calls] == ["v", "v"]
        held_back = [c for c in calls if c["kind"] == "sync_callback"][0]
        assert "result" not in held_back
        # The replay was answered while the first execution's callback
        # was still backing off, not by waiting it out.
        assert replayed_at < held_back["end"] + 2_000.0
        assert leaf.env.peek("kv", "n") == 1
        assert caller.env.peek("kv", "calls") == 1
        assert leaf.env.store.item_count(leaf.env.intent_table) == 1
        self._assert_settled(runtime)
        runtime.kernel.shutdown()

    def test_callback_after_the_caller_was_collected_is_ignored(self):
        """The caller completes on the reply, is marked ``Done`` and
        garbage collected while the callee's callback is still backing
        off. The late callback finds no invoke-log row, is ignored — and
        resurrects nothing — and the callee still finishes."""
        runtime = self._runtime(invoke_retry_backoff=5_000.0,
                                ic_restart_delay=1e12)
        leaf, caller, _bodies = self._counter_pair(runtime)
        runtime.platform.crash_policy = CrashScript.of(
            ("caller", 1, "enter"))
        calls = _log_platform_calls(runtime)
        box = {}
        runtime.kernel.spawn(
            lambda: box.update(result=runtime.client_call("caller")))
        runtime.kernel.run(until=1_000.0)
        assert box == {"result": ["v"]}
        collect = make_garbage_collector(runtime, caller.env)

        class _Ctx:
            request_id = "gc-run"
            invocation_index = 0

            def crash_point(self, tag):
                pass

        for at in (1_000.0, 1_500.0):  # stamp, then (T later) recycle
            runtime.kernel.spawn(lambda: collect(_Ctx(), {}))
            runtime.kernel.run(until=at + 450.0)
        store = caller.env.store
        assert store.item_count(caller.env.intent_table) == 0
        assert store.item_count(caller.env.invoke_log) == 0
        assert len(intents.pending_intents(leaf.env)) == 1
        runtime.kernel.run()
        callbacks = [c for c in calls if c["kind"] == "sync_callback"]
        assert [c.get("result", "died") for c in callbacks] == [
            "died", "ignored"]
        assert callbacks[1]["start"] > 2_000.0
        assert store.item_count(caller.env.invoke_log) == 0
        self._assert_settled(runtime)
        assert leaf.env.peek("kv", "n") == 1
        runtime.kernel.shutdown()

    def test_abort_marker_rides_the_reply_and_abort_runs_beside_the_tail(
            self):
        """A non-owner that dies inside the transaction replies
        ``TXN_ABORT_MARKER`` early; the owner starts the abort protocol
        on it while the callee is still delivering its callback."""
        runtime = self._runtime()

        def hotel(ctx, payload):
            ctx.write("rooms", "H1", {"left": 4})
            return "hotel-ok"

        def flight(ctx, payload):
            ctx.read("seats", "F1")
            ctx.abort_tx()

        def reserve(ctx, payload):
            with ctx.transaction() as tx:
                ctx.sync_invoke("hotel", None)
                ctx.sync_invoke("flight", None)
            return tx.outcome

        hotel_ssf = runtime.register_ssf("hotel", hotel, tables=["rooms"])
        flight_ssf = runtime.register_ssf("flight", flight,
                                          tables=["seats"])
        runtime.register_ssf("reserve", reserve)
        hotel_ssf.env.seed("rooms", "H1", {"left": 5})
        flight_ssf.env.seed("seats", "F1", {"left": 0})
        calls = _log_platform_calls(runtime)
        assert runtime.run_workflow("reserve") == "aborted"
        flight_call = next(c for c in calls if c["function"] == "flight"
                           and c["kind"] == "call")
        assert flight_call["result"] == "__beldi_txn_abort__"
        flight_callback = [c for c in calls
                           if c["kind"] == "sync_callback"][-1]
        first_signal = next(c for c in calls if c["kind"] == "txn_signal")
        assert flight_callback["start"] == flight_call["end"]
        assert (flight_call["end"] <= first_signal["start"]
                < flight_callback["end"])
        # The abort rolled the hotel write back and left no lock behind.
        assert hotel_ssf.env.peek("rooms", "H1") == {"left": 5}
        for env, table, key in ((hotel_ssf.env, "rooms", "H1"),
                                (flight_ssf.env, "seats", "F1")):
            rows = env.store.query(env.data_table(table), key).items
            assert all("LockOwner" not in row for row in rows)
        self._assert_settled(runtime)
        (entry,) = [e for e in runtime.envs["reserve"].store.scan(
            runtime.envs["reserve"].invoke_log).items
            if e["Callee"] == "flight"]
        assert entry["Result"] == "__beldi_txn_abort__"
        runtime.kernel.shutdown()

    @pytest.mark.parametrize("config, replies_first", [
        (dict(), True),                      # the _intent_cache hit
        (dict(without="fastpath"), True),    # the intent["Done"] branch
        (dict(without="async_io"), False),
        (dict(profile="paper"), False)])
    def test_duplicate_delivery_replies_before_its_callback(
            self, config, replies_first):
        """A delivery of an already finished callee re-issues the
        callback; with ``async_io`` its waiter is answered first, like a
        first delivery's, and the callee body never runs again."""
        runtime = self._runtime(**config)
        leaf, caller, bodies = self._counter_pair(runtime)
        assert runtime.run_workflow("caller") == ["v"]
        (claim,) = caller.env.store.scan(caller.env.invoke_log).items
        calls = _log_platform_calls(runtime)
        hits = runtime.tail_cache.stats.intent_hits
        box = {}

        def duplicate():
            box["result"] = runtime.platform.sync_invoke("leaf", {
                "kind": "call", "instance_id": claim["CalleeId"],
                "input": None, "async": False,
                "caller": {"ssf": "caller",
                           "instance_id": claim["InstanceId"],
                           "step": claim["Step"]}})
            box["answered"] = runtime.kernel.now

        runtime.kernel.spawn(duplicate)
        runtime.kernel.run()
        assert box["result"] == "v" and len(bodies) == 1
        assert (runtime.tail_cache.stats.intent_hits - hits
                == runtime.config.has_fastpath)
        (callback,) = [c for c in calls if c["kind"] == "sync_callback"]
        assert callback["result"] == "recorded"
        if replies_first:
            assert callback["start"] == box["answered"] < callback["end"]
        else:
            assert callback["end"] <= box["answered"]
        assert leaf.env.peek("kv", "n") == 1
        runtime.kernel.shutdown()


class TestPipelinedOpen:
    """A first execution outside a transaction starts its callee first
    and claims the step while the dispatch is in flight. The window that
    opens — callee running, claim not durable — must cost nothing, and
    every execution that could already depend on the old order keeps
    it."""

    GC_T = 400.0
    _counter_pair = TestReplyBeforeCallback._counter_pair
    _assert_settled = staticmethod(TestReplyBeforeCallback._assert_settled)

    def _runtime(self, platform_config=None, fault_timeline=None,
                 **config):
        config.setdefault("ic_restart_delay", 50.0)
        config.setdefault("gc_t", self.GC_T)
        return BeldiRuntime(seed=31, latency_scale=1.0,
                            platform_config=platform_config,
                            fault_timeline=fault_timeline,
                            config=BeldiConfig(**config))

    def test_caller_dying_before_its_claim_orphans_nothing(self):
        """(i) The caller dies with its callee running and no claim: the
        orphan finishes, its callback finds no row and is ignored, and
        the intent collector's replay claims the *same* id and is
        answered from the ``Done`` intent — the body ran once."""
        from tests.core.test_crashpoint_sweep import run_gc_passes
        runtime = self._runtime(ic_restart_delay=1_500.0)
        leaf, caller, bodies = self._counter_pair(runtime)
        runtime.platform.crash_policy = CrashOnce(
            "caller", "invoke:2:dispatched")
        calls = _log_platform_calls(runtime)
        box = {}

        def client():
            try:
                runtime.client_call("caller")
            except FunctionCrashed:
                box["result"] = "crashed"
            box["claims"] = caller.env.store.item_count(
                caller.env.invoke_log)

        runtime.start_collectors(ic_period=100.0, gc_period=1e12)
        runtime.kernel.spawn(client)
        runtime.kernel.run(until=1_000.0)
        # Nobody waits for the orphan, and it finished all the same.
        assert box == {"result": "crashed", "claims": 0}
        (intent,) = leaf.env.store.scan(leaf.env.intent_table).items
        assert intent["Done"] and intent["Ret"] == "v"
        callbacks = [c for c in calls if c["kind"] == "sync_callback"]
        assert [c["result"] for c in callbacks] == ["ignored"]
        assert caller.env.store.item_count(caller.env.invoke_log) == 0
        runtime.kernel.run(until=5_000.0)
        runtime.stop_collectors()
        runtime.kernel.run(until=6_000.0)
        self._assert_settled(runtime)
        (entry,) = caller.env.store.scan(caller.env.invoke_log).items
        assert entry["CalleeId"] == intent["InstanceId"] == (
            _derived_callee_id(entry["InstanceId"], entry["Step"]))
        assert entry["Result"] == "v"
        assert [c["result"] for c in calls
                if c["kind"] == "sync_callback"] == ["ignored", "recorded"]
        assert len(bodies) == 1
        assert leaf.env.peek("kv", "n") == 1
        assert caller.env.peek("kv", "calls") == 1
        run_gc_passes(runtime)
        dst.assert_store_clean(runtime.store, [runtime])
        runtime.kernel.shutdown()

    def _leaf_call_start(self) -> float:
        """When the caller's first execution starts its callee (and, in
        the same instant, issues its claim)."""
        runtime = self._runtime()
        self._counter_pair(runtime)
        calls = _log_platform_calls(runtime)
        assert runtime.run_workflow("caller") == ["v"]
        runtime.kernel.shutdown()
        (leaf_call,) = [c for c in calls if c["function"] == "leaf"]
        assert leaf_call["start"] < leaf_call["claimed"] < leaf_call["end"]
        return leaf_call["start"]

    def test_a_claim_slower_than_the_callee_holds_the_reply_back(self):
        """(ii) The store is slow for exactly the claim (a gray window
        that only the claim's put starts in): the callee replies, calls
        back into a log with no row yet (ignored) and finishes, all
        before the claim lands — and the caller resumes only then. A
        later replay finds the claim without a result and re-records."""
        from repro.kvstore.faults import FaultTimeline
        start = self._leaf_call_start()
        runtime = self._runtime(
            invoke_retry_backoff=2_000.0,
            fault_timeline=FaultTimeline().gray(
                start, start + 1e-3, multiplier=400.0,
                ops="db.cond_write"))
        leaf, caller, bodies = self._counter_pair(runtime)
        runtime.platform.crash_policy = CrashOnce(
            "caller", "invoke:2:after-call")
        calls = _log_platform_calls(runtime)
        results = []

        def client():
            for _ in range(2):  # the crashed delivery, then its replay
                try:
                    results.append(runtime.platform.sync_invoke(
                        "caller", {"kind": "call", "instance_id": "dup-S",
                                   "input": None}))
                except FunctionCrashed:
                    results.append("crashed")
                    results.append(logged_result())

        def logged_result():
            return caller.env.store.get(
                caller.env.invoke_log, ("dup-S", 2)).get("Result")

        runtime.kernel.spawn(client)
        runtime.kernel.run()
        assert results == ["crashed", None, ["v"]]
        assert logged_result() == "v"
        first, replayed = [c for c in calls if c["function"] == "leaf"]
        callbacks = [c for c in calls if c["kind"] == "sync_callback"]
        assert [c["result"] for c in callbacks] == ["ignored", "recorded"]
        # The whole callee — reply, callback, Done — fit inside the claim.
        assert first["start"] == start
        assert callbacks[0]["end"] < first["claimed"]
        assert first["claimed"] - first["start"] > 1_000.0
        # The reply was there all along; it was consumed at the claim.
        assert first["end"] == first["claimed"] and first["result"] == "v"
        # The replay kept the old order: no claim beside its dispatch.
        assert "claimed" not in replayed and replayed["result"] == "v"
        assert len(bodies) == 1
        assert leaf.env.peek("kv", "n") == 1
        assert caller.env.peek("kv", "calls") == 1
        self._assert_settled(runtime)
        runtime.kernel.shutdown()

    @pytest.mark.parametrize("duplicate_claims_first", [True, False])
    def test_a_duplicate_racing_the_open_shares_the_callee(
            self, duplicate_claims_first):
        """(iii) A relaunched duplicate of a live caller reaches the step
        while the first execution has its callee running — before its
        claim lands (the claim is slow, as in (ii), and the duplicate's
        conditional put wins) or after. Both name the callee by the same
        derived id, so whoever claims first, one callee instance runs.
        (With a fresh id on either side the callee ran twice.)"""
        from repro.kvstore.faults import FaultTimeline
        start = self._leaf_call_start()
        timeline = FaultTimeline()
        if duplicate_claims_first:
            timeline.gray(start, start + 1e-3, multiplier=400.0,
                          ops="db.cond_write")
        runtime = self._runtime(fault_timeline=timeline)
        leaf, caller, bodies = self._counter_pair(runtime)
        calls = _log_platform_calls(runtime)
        results = []

        def first():
            results.append(runtime.client_call("caller"))

        def relaunch():
            (intent,) = caller.env.store.scan(
                caller.env.intent_table).items
            runtime.platform.async_invoke("caller", {
                "kind": "call", "instance_id": intent["InstanceId"],
                "input": intent.get("Args"), "async": False,
                "caller": None, "txn": None})

        runtime.kernel.spawn(first)
        runtime.kernel.spawn(relaunch, delay=start + 5.0)
        runtime.kernel.run()
        assert results == [["v"]]
        speculated, duplicate = [c for c in calls
                                 if c["function"] == "leaf"]
        # The duplicate kept the old order: its claim was durable before
        # its (claim-less) invoke started.
        assert "claimed" not in duplicate
        assert (duplicate["start"] < speculated["claimed"]) == (
            duplicate_claims_first)
        assert len(set(bodies)) == 1
        (intent,) = leaf.env.store.scan(leaf.env.intent_table).items
        (entry,) = caller.env.store.scan(caller.env.invoke_log).items
        assert entry["CalleeId"] == intent["InstanceId"]
        assert entry["Result"] == "v"
        assert leaf.env.peek("kv", "n") == 1
        assert caller.env.peek("kv", "calls") == 1
        self._assert_settled(runtime)
        runtime.kernel.shutdown()

    def test_inside_a_transaction_the_claim_still_comes_first(self):
        """(iv) A callee that may take a lock must be discoverable
        through the invoke log from its first instant."""
        runtime = self._runtime(observability=True)

        def hotel(ctx, payload):
            ctx.write("rooms", "H1", {"left": 4})
            return "hotel-ok"

        def reserve(ctx, payload):
            with ctx.transaction() as tx:
                ctx.sync_invoke("hotel", None)
            return tx.outcome

        runtime.register_ssf("hotel", hotel, tables=["rooms"])
        reserve_ssf = runtime.register_ssf("reserve", reserve)
        runtime.register_ssf(
            "frontend", lambda ctx, p: ctx.sync_invoke("reserve", None))
        seen = {}

        def start(entry, payload):
            if entry.name == "hotel" and payload.get("kind") == "call":
                seen["claims"] = reserve_ssf.env.store.item_count(
                    reserve_ssf.env.invoke_log)
            return real(entry, payload)

        calls = _log_platform_calls(runtime)
        real = runtime.platform._start_instance
        runtime.platform._start_instance = start
        assert runtime.run_workflow("frontend") == "committed"
        trace = runtime.obs.tracer.records
        lifecycle.check(trace)
        assert seen == {"claims": 1}
        assert len(lifecycle.kinds(trace, "txn-start")) == 1
        opened = {c["function"]: "claimed" in c for c in calls
                  if c["kind"] == "call"}
        assert opened == {"reserve": True, "hotel": False}
        runtime.kernel.shutdown()

    def test_no_slot_for_the_callee_falls_back_to_claim_then_retry(self):
        """(v) ``TooManyRequests`` means no worker started: the claim
        has nothing to run beside, so it is written first and the retry
        is an ordinary claimed invoke."""
        from repro.platform import PlatformConfig, RecordingPolicy
        runtime = self._runtime(platform_config=PlatformConfig(
            concurrency_limit=2, entry_admission_fraction=1.0,
            internal_retry_limit=0))
        leaf, caller, bodies = self._counter_pair(runtime)
        runtime.platform.register(
            "blocker", lambda platform_ctx, payload: platform_ctx.sleep(
                150.0))
        recording = RecordingPolicy()
        runtime.platform.crash_policy = recording
        calls = _log_platform_calls(runtime)
        box = {}
        runtime.kernel.spawn(runtime.platform.sync_invoke, "blocker", {})
        runtime.kernel.spawn(
            lambda: box.update(result=runtime.client_call("caller")))
        runtime.kernel.run()
        assert box == {"result": ["v"]}
        leaf_calls = [c for c in calls if c["function"] == "leaf"]
        assert len(leaf_calls) >= 2
        assert all("result" not in c for c in leaf_calls[:-1])
        assert leaf_calls[-1]["result"] == "v"
        # No attempt ran a claim beside a dispatch: the first found no
        # slot, the others were already claimed.
        assert all("claimed" not in c for c in leaf_calls)
        assert "invoke:2:dispatched" not in {
            tag for _f, _i, tag in recording.points}
        (entry,) = caller.env.store.scan(caller.env.invoke_log).items
        assert entry["Result"] == "v"
        assert len(bodies) == 1 and leaf.env.peek("kv", "n") == 1
        self._assert_settled(runtime)
        runtime.kernel.shutdown()


def _event(seq, name, execution, **args):
    """A lifecycle event as the tracer records it, minus what the
    ledger never reads."""
    function, invocation = execution
    return {"cat": "lifecycle", "name": name, "seq": seq,
            "parent_id": None,
            "args": dict(args, function=function, invocation=invocation)}


def _serves(seq, execution, step, txn=False):
    """The ``request:`` span that says ``execution`` serves ``step``."""
    function, invocation = execution
    return {"cat": "request", "name": f"request:{function}", "seq": seq,
            "parent_id": step,
            "args": {"function": function, "invocation": invocation,
                     "txn": txn}}


CALLER, LEAF, HANDLER = ("caller", 0), ("leaf", 0), ("caller", 1)

#: One pipelined sync invoke of ``leaf`` by step 2 of ``caller``, in the
#: order ``current`` runs it.
CLEAN = [
    _event(1, "start", LEAF),
    _event(2, "claim", CALLER, instance="R", step=2),
    _serves(3, LEAF, "R#2"),
    _event(4, "flush", LEAF, instance="c-1"),
    _event(5, "reply", LEAF, instance="c-1"),
    _event(6, "consumed", LEAF),
    _event(7, "callback", HANDLER, callee="c-1"),
    _event(8, "done", LEAF, instance="c-1"),
]


#: The same invoke inside a transaction (not in order: claim after start).
IN_TXN = [_serves(3, LEAF, "R#2", txn=True) if r["seq"] == 3 else r
          for r in CLEAN]


def _moved(records, seq, before):
    """``records`` with event ``seq`` moved to just ahead of ``before``."""
    moved = next(r for r in records if r["seq"] == seq)
    rest = [r for r in records if r is not moved]
    at = next(i for i, r in enumerate(rest) if r["seq"] == before)
    return rest[:at] + [moved] + rest[at:]


#: name -> (records, the message, the ``seq`` it must name).
BROKEN_ORDERS = {
    "flush after reply": (
        _moved(CLEAN, 5, before=4), "flushed its read log after", 4),
    "reply after Done": (
        _moved(_moved(CLEAN, 7, before=5), 8, before=5),
        "replied after marking Done", 5),
    "Done before any callback": (
        _moved(CLEAN, 8, before=7), "Done before any callback", 8),
    "consumed before claim": (
        _moved(CLEAN, 6, before=2), "consumed before", 6),
    "txn-start before claim": (
        IN_TXN, "inside a transaction before", 1),
}


class TestLedgerCatchesTheNewOrders:
    """``lifecycle.check`` runs inside every sweep. A checker that cannot
    fail checks nothing: each order it asserts is broken once in a
    literal event list, and three of them once more in the
    implementation, and it has to say so."""

    def test_a_clean_list_passes(self):
        lifecycle.check(CLEAN)
        assert [row[0] for row in lifecycle.rows(CLEAN)] == [
            "start", "claim", "flush", "reply", "consumed", "callback",
            "done"]
        # Inside a transaction the same events are in order only with
        # the claim ahead of the start.
        lifecycle.check(_moved(IN_TXN, 2, before=1))

    @pytest.mark.parametrize("name", sorted(BROKEN_ORDERS))
    def test_each_order_broken_in_a_literal_list(self, name):
        records, message, seq = BROKEN_ORDERS[name]
        with pytest.raises(AssertionError, match=message) as caught:
            lifecycle.check(records)
        assert str(caught.value).startswith(f"seq {seq}: ")

    @pytest.fixture
    def traced(self):
        rt = BeldiRuntime(seed=31, observability=True, config=BeldiConfig(
            ic_restart_delay=50.0, gc_t=1e12))
        yield rt
        rt.kernel.shutdown()

    @staticmethod
    def _reserve(runtime):
        def hotel(ctx, payload):
            ctx.write("rooms", "H1", {"left": 4})
            return "hotel-ok"

        def reserve(ctx, payload):
            with ctx.transaction() as tx:
                ctx.sync_invoke("hotel", None)
            return tx.outcome

        runtime.register_ssf("hotel", hotel, tables=["rooms"])
        runtime.register_ssf("reserve", reserve)

    def test_a_reply_consumed_before_the_claim(self, traced, monkeypatch):
        from repro.platform import ServerlessPlatform

        def await_then_claim(platform, name, payload, meanwhile=None):
            entry = platform._entry(name)
            platform._acquire_slot_with_retry()
            proc, ctx = platform._start_instance(entry, payload)
            result = platform._await_result(proc, ctx)
            if meanwhile is not None:
                meanwhile()
            return result

        monkeypatch.setattr(ServerlessPlatform, "sync_invoke",
                            await_then_claim)
        self._reserve(traced)
        trace = traced.obs.tracer.records
        assert traced.run_workflow("reserve") == "committed"
        # In-transaction opens never had a ``meanwhile``.
        lifecycle.check(trace)
        traced.register_ssf(
            "frontend", lambda ctx, p: ctx.sync_invoke("reserve", None))
        assert traced.run_workflow("frontend") == "committed"
        with pytest.raises(AssertionError, match="consumed before"):
            lifecycle.check(trace)

    def test_a_callee_speculated_inside_a_transaction(self, traced,
                                                      monkeypatch):
        from repro.core.context import BeldiContext
        monkeypatch.setattr(
            BeldiContext, "pipelines_invokes",
            property(lambda ctx: ctx.first_execution))
        self._reserve(traced)
        assert traced.run_workflow("reserve") == "committed"
        with pytest.raises(AssertionError,
                           match="inside a transaction before"):
            lifecycle.check(traced.obs.tracer.records)

    def test_done_marked_ahead_of_the_callback(self, traced, monkeypatch):
        """``mark_done`` moved ahead of ``_deliver``: a ``Done`` callee
        may be collected before its caller holds the result (§4.5)."""
        deliver = BeldiRuntime._deliver

        def done_then_deliver(runtime, platform_ctx, reply, caller,
                              callee_id, result):
            # The moved statement takes the event that says it along.
            intents.mark_done(runtime.ssfs[platform_ctx.function].env,
                              callee_id, result)
            platform_ctx.lifecycle("done", instance=callee_id)
            deliver(runtime, platform_ctx, reply, caller, callee_id,
                    result)

        monkeypatch.setattr(BeldiRuntime, "_deliver", done_then_deliver)
        traced.register_ssf("leaf", lambda ctx, p: "v")
        traced.register_ssf(
            "caller", lambda ctx, p: ctx.sync_invoke("leaf", None))
        assert traced.run_workflow("caller") == "v"
        with pytest.raises(AssertionError,
                           match="Done before any callback"):
            lifecycle.check(traced.obs.tracer.records)

    def test_a_parallel_branch_books_events_under_its_owner(self, traced):
        """A lone parallel invoke opens pipelined, so its claim is
        written in the branch's own process — and still says which
        execution it belongs to."""
        traced.register_ssf("leaf", lambda ctx, p: "v")
        traced.register_ssf(
            "caller", lambda ctx, p: ctx.parallel_invoke([("leaf", None)]))
        assert traced.run_workflow("caller") == ["v"]
        trace = traced.obs.tracer.records
        lifecycle.check(trace)
        (claim,) = lifecycle.kinds(trace, "claim")
        assert claim[1][:2] == ("caller", 0)
        # ... which nesting would not have told: the branch is a root.
        (event,) = [r for r in trace if r["name"] == "claim"]
        (owner,) = [r for r in trace if r["name"] == "request:caller"]
        assert event["track"] != owner["track"]


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
