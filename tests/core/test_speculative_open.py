"""The speculative callee open: a sync callee outside a transaction puts
its intent beside its first reads and joins the put at its first effect
frontier (``docs/async_io.md``, "Speculative callee open")."""

import pytest

import dst
import history
from repro.core import BeldiConfig, BeldiRuntime, daal, intents
from repro.kvstore import Set
from repro.platform import CrashOnce
from repro.sim.latency import LatencyModel

LEAF_VALUE = 42
#: What :func:`_nested_read` metered and waited before the open existed
#: (``paper`` and ``without="async_io"`` alike at this seed).
INTENT_FIRST_COUNTS = {"cond_write": 6, "query": 1, "read": 1, "write": 2}
INTENT_FIRST_WAIT = 293.98499764295616


def _median_latencies(monkeypatch) -> None:
    """Every draw is its primitive's median: two runs that order their
    round trips differently pay the same for each."""
    def median(self, name, units=0.0):
        _mu, _sigma, per_unit, body = self._compiled[name]
        return (body + per_unit * units) * self.scale

    monkeypatch.setattr(LatencyModel, "sample", median)


def _intent_first(runtime, env, record):
    """``intents.put_beside`` as the intent-first order pays for it: the
    put lands before the read runs; the join finds it done."""
    outcome = intents.put_intent(env, record)
    return runtime.kernel.spawn(lambda: outcome)


def _nested_read(config: BeldiConfig) -> tuple:
    """``parent`` invokes the read-only ``leaf``; returns ``(the virtual
    ms the parent waited, the runtime)``."""
    runtime = BeldiRuntime(seed=3, latency_scale=1.0, config=config,
                           observability=True)
    leaf = runtime.register_ssf("leaf", lambda ctx, p: ctx.read("kv", "k"),
                                tables=["kv"])
    leaf.env.seed("kv", "k", LEAF_VALUE)
    waited = {}

    def parent(ctx, payload):
        start = ctx.platform_ctx.now
        value = ctx.sync_invoke("leaf", None)
        waited["ms"] = ctx.platform_ctx.now - start
        return value

    runtime.register_ssf("parent", parent)
    assert runtime.run_workflow("parent") == LEAF_VALUE
    runtime.kernel.shutdown()
    return waited["ms"], runtime


class TestTheOpenOverlaps:
    def test_a_read_only_callee_replies_the_shorter_of_intent_and_read_sooner(
            self, monkeypatch):
        """At real latency the intent put (5.5 ms) and the read (a cold
        tail: a query and a get, 8.28 ms) run side by side, so the
        callee replies ``min`` of the two sooner than when the put comes
        first."""
        _median_latencies(monkeypatch)
        config = BeldiConfig(gc_t=1e12)
        speculated, runtime = _nested_read(config)
        trace = history.of(runtime.obs.tracer.records)
        (put,) = trace.named("op.intent")
        (read,) = trace.named("op.read")
        (flush,) = trace.named("op.read_flush")
        assert (put["dur"], read["dur"]) == pytest.approx((5.5, 8.28))
        monkeypatch.setattr(intents, "put_beside", _intent_first)
        serial, _ = _nested_read(config)
        assert serial - speculated == pytest.approx(
            min(put["dur"], read["dur"]))
        # The trace says why: the put and the read open at one instant,
        # and the flush waits for the later of the two.
        assert put["ts"] == read["ts"]
        assert flush["ts"] == pytest.approx(
            max(put["ts"] + put["dur"], read["ts"] + read["dur"]))
        (store_put,) = trace.children(put["span_id"])
        assert (store_put["name"], store_put["args"]["table"]) == (
            "store.cond_write", "leaf.intent")

    @pytest.mark.parametrize("config", ["paper", "async_io", "current"])
    def test_the_same_call_meters_what_the_intent_first_order_did(
            self, config):
        """The open moves the put, it adds no round trip: the nested
        call's requests per op kind are what they were before the open
        existed. ``paper`` and ``without="async_io"`` never open
        speculatively: there the parent waits exactly as long as it
        did before, to the last bit."""
        waited, runtime = _nested_read(
            BeldiConfig(gc_t=1e12, profile="paper") if config == "paper"
            else BeldiConfig(gc_t=1e12, without="async_io")
            if config == "async_io" else BeldiConfig(gc_t=1e12))
        counts = {op: entry["count"] for op, entry
                  in runtime.store.metering.snapshot().items()}
        assert counts == INTENT_FIRST_COUNTS
        opened = history.of(runtime.obs.tracer.records).named("op.intent")
        assert bool(opened) == (config == "current")
        if config != "current":
            assert waited == INTENT_FIRST_WAIT


class TestALostOpen:
    @staticmethod
    def _pair(runtime, holds, strict=False):
        """``caller`` invokes ``leaf``, which reads ``k``, records what
        it saw, then holds for ``holds.pop(0)`` ms (0 once empty). A
        ``strict`` leaf raises, ahead of its first frontier, on any
        ``k`` but 1."""
        runs = []

        def leaf(ctx, payload):
            value = ctx.read("kv", "k")
            if strict and value != 1:
                raise ValueError(f"k is {value}")
            ctx.write("kv", f"seen-{value}", value)
            runs.append(value)
            ctx.sleep(holds.pop(0) if holds else 0.0)
            return value

        leaf_ssf = runtime.register_ssf("leaf", leaf, tables=["kv"])
        caller = runtime.register_ssf(
            "caller", lambda ctx, p: ctx.sync_invoke("leaf", None))
        leaf_ssf.env.seed("kv", "k", 1)
        return leaf_ssf, caller, runs

    @staticmethod
    def _duplicate(runtime, caller, box, after=None):
        """Deliver the caller's callee id once more, as a duplicate
        would, ``after()`` running first."""
        kernel = runtime.kernel
        env = caller.env
        while not (claims := env.store.scan(env.invoke_log).items):
            kernel.sleep(1.0)
        if after is not None:
            after()
        (claim,) = claims
        box["duplicate"] = runtime.platform.sync_invoke("leaf", {
            "kind": "call", "instance_id": claim["CalleeId"],
            "input": None, "async": False,
            "caller": {"ssf": "caller", "instance_id": claim["InstanceId"],
                       "step": claim["Step"]}})

    @pytest.mark.parametrize("strict", [False, True])
    def test_two_deliveries_that_read_apart_log_one_run_and_answer_alike(
            self, strict):
        """The first delivery reads ``k`` = 1 and holds; ``k`` becomes 2
        and a second delivery of the same callee reads that. Its join
        finds the first one's unfinished intent: it rolls back, replays
        the logged run and answers 1, as the first does — also when the
        read it made raised, which is joined before it surfaces."""
        runtime = BeldiRuntime(seed=7, observability=True,
                               config=BeldiConfig(gc_t=1e12))
        leaf, caller, runs = self._pair(runtime, holds=[50.0],
                                        strict=strict)
        box = {}

        def client():
            box["result"] = runtime.client_call("caller")

        def rewrite():
            leaf.env.store.update(leaf.env.data_table("kv"),
                                  ("k", daal.HEAD_ROW_ID), [Set("Value", 2)])
            runtime.kernel.sleep(1.0)

        runtime.kernel.spawn(client)
        runtime.kernel.spawn(self._duplicate, runtime, caller, box, rewrite)
        runtime.kernel.run()
        trace = runtime.obs.tracer.records
        history.check(trace)
        runtime.kernel.shutdown()
        assert box == {"result": 1, "duplicate": 1}
        # One logged run; the loser's own read (2) ran and was dropped.
        (row,) = leaf.env.store.scan(leaf.env.read_log).items
        assert row["Value"] == 1 and "Run" not in row
        assert runs == [1, 1]
        assert leaf.env.peek("kv", "seen-1") == 1
        assert leaf.env.peek("kv", "seen-2") is None
        ledger = history.of(trace)
        assert ledger.count("readlog:rollback") == 1
        # The root's, the first delivery's and the duplicate's.
        assert len(ledger.kinds("intent")) == 3

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("without", [None, "fastpath"])
    def test_a_delivery_that_finds_its_intent_done_answers_its_ret(
            self, without, strict):
        """Once the callee is ``Done`` a late delivery answers ``Ret``
        and re-runs no effect. With the intent cache the runtime answers
        before the handler; without it the open speculates, so the
        handler's first reads run and its first frontier finds the
        ``Done`` intent. A ``strict`` handler raises on what it read
        instead: the put is joined before the error surfaces, and the
        delivery still answers ``Ret``."""
        runtime = BeldiRuntime(seed=7, config=BeldiConfig(
            gc_t=1e12, **({"without": without} if without else {})))
        leaf, caller, runs = self._pair(runtime, holds=[], strict=strict)
        assert runtime.run_workflow("caller") == 1
        leaf.env.store.update(leaf.env.data_table("kv"),
                              ("k", daal.HEAD_ROW_ID),
                              [Set("Value", LEAF_VALUE)])
        before = {table: leaf.env.store.scan(table).items
                  for table in (leaf.env.read_log, leaf.env.intent_table,
                                leaf.env.data_table("kv"))}
        box = {}
        runtime.kernel.spawn(self._duplicate, runtime, caller, box)
        runtime.kernel.run()
        after = {table: leaf.env.store.scan(table).items for table in before}
        runtime.kernel.shutdown()
        assert box == {"duplicate": 1}
        assert runs == [1]
        assert after == before
        assert leaf.env.peek("kv", f"seen-{LEAF_VALUE}") is None


#: Where the open leaves a callee's first run: its put issued and the
#: first read about to run, and the put joined (after the reads).
OPEN_POINTS = ["read:0:start", "intent:ensured"]


@pytest.mark.parametrize("tag", OPEN_POINTS)
def test_a_crash_at_each_open_point_leaves_a_clean_store(tag):
    """The callee dies with its put in flight (``read:0:start``) or
    joined (``intent:ensured``, after its first read): the put lands
    with or without it, the caller's retry or the intent collector
    finishes the instance once, and after the GC nothing is left."""
    runtime = BeldiRuntime(seed=11, observability=True, config=BeldiConfig(
        ic_restart_delay=50.0, gc_t=dst.GC_T))
    writes = []

    def leaf(ctx, payload):
        value = ctx.read("kv", "k")
        ctx.write("kv", "out", value + 1)
        writes.append(value)
        return value + 1

    leaf_ssf = runtime.register_ssf("leaf", leaf, tables=["kv"])
    leaf_ssf.env.seed("kv", "k", 1)
    runtime.register_ssf("caller", lambda ctx, p: ctx.sync_invoke("leaf", p))
    runtime.platform.crash_policy = CrashOnce("leaf", tag)
    box = {}

    def client():
        box["result"] = runtime.client_call("caller")

    runtime.start_collectors(ic_period=100.0, gc_period=1e12)
    runtime.kernel.spawn(client)
    runtime.kernel.run(until=2_000.0)
    runtime.stop_collectors()
    runtime.kernel.run(until=2_500.0)
    try:
        assert runtime.platform.stats.injected_crashes == 1
        assert box == {"result": 2}
        # Past its first effect once: the killed run never got there.
        assert writes == [1] and leaf_ssf.env.peek("kv", "out") == 2
        history.check(runtime.obs.tracer.records)
        dst.run_gc_passes(runtime)
        dst.assert_store_clean(runtime.store, [runtime])
    finally:
        runtime.kernel.shutdown()
