"""Trace↔stats parity for the resilience layer's observability hooks.

Every retry the wrapper performs must show up two ways, in exact
agreement: a ``resilience.backoff`` span in the trace and the
``ResilienceStats`` counter the snapshot exports (its one home). If the
two drift the instrumentation is lying about what the layer did.
"""

from repro.core import BeldiConfig, BeldiRuntime
from repro.kvstore import (
    AttrNotExists,
    FaultTimeline,
    TableNotFound,
    UnavailableError,
)

import pytest


class ThrottleScript:
    """Deterministic duck-typed FaultPolicy: throttle the first ``n``
    (of ``only_op``, when given)."""

    def __init__(self, n, only_op=None):
        self.remaining = n
        self.only_op = only_op

    def should_throttle(self, rand, op="", shard=None):
        if self.only_op is not None and op != self.only_op:
            return False
        if self.remaining > 0:
            self.remaining -= 1
            return True
        return False

    def should_crash_leader(self, rand, op="", shard=None):
        return False

    def latency_multiplier(self, rand, op="", shard=None):
        return 1.0


def run_counter(runtime):
    def handler(ctx, payload):
        count = ctx.read("kv", "counter") or 0
        ctx.write("kv", "counter", count + 1)
        return count + 1

    runtime.register_ssf("counter", handler, tables=["kv"])
    return runtime.run_workflow("counter")


def make_runtime(**kwargs):
    return BeldiRuntime(seed=11,
                        config=BeldiConfig(observability=True), **kwargs)


class TestRetryParity:
    def test_backoff_spans_match_retry_counters(self):
        runtime = make_runtime(store_faults=ThrottleScript(n=3))
        try:
            run_counter(runtime)
            stats = runtime.resilience.stats
            assert stats.retries >= 3

            spans = [r for r in runtime.obs.tracer.sorted_records()
                     if r.get("name") == "resilience.backoff"]
            assert len(spans) == stats.retries
            # The spans *are* the backoff sleeps: their summed duration
            # is the backoff the stats booked.
            span_total = sum(r["dur"] for r in spans)
            assert span_total == pytest.approx(stats.backoff_ms)
        finally:
            runtime.kernel.shutdown()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_backoff_span_is_labelled_with_the_op_the_call_pays(
            self, shards):
        """The label comes from the store surface declaration: a
        conditional ``put`` pays — and is retried as — ``db.cond_write``,
        an unconditional ``update`` ``db.write``, ``query_index``
        ``db.query``."""
        runtime = make_runtime(shards=shards)
        try:
            store = runtime._resilient_store
            store.create_table("t", hash_key="K")
            store.table("t").add_index("by_v", "V")
            calls = {
                "db.cond_write": lambda: store.put(
                    "t", {"K": "a", "V": 1}, AttrNotExists("K")),
                "db.write": lambda: store.update("t", "a", []),
                "db.query": lambda: store.query_index("t", "by_v", 1),
            }
            labels = []

            def client():
                for op, call in calls.items():
                    script = ThrottleScript(1, only_op=op)
                    for node in getattr(runtime.store, "nodes",
                                        [runtime.store]):
                        node.faults = script
                    call()
                    assert script.remaining == 0, op
                    labels.append(op)

            runtime.kernel.spawn(client)
            runtime.kernel.run()
            assert labels == list(calls)
            spans = [r for r in runtime.obs.tracer.sorted_records()
                     if r.get("name") == "resilience.backoff"]
            assert [span["args"]["op"] for span in spans] == labels
            assert runtime.resilience.stats.retries == len(labels)
        finally:
            runtime.kernel.shutdown()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_missing_table_is_not_an_environment_error(self, shards):
        """``TableNotFound`` passes straight through: no retry, no
        backoff, no breaker — whether it surfaces while resolving the
        breaker endpoint (sharded) or from the node itself."""
        runtime = make_runtime(shards=shards)
        try:
            with pytest.raises(TableNotFound):
                runtime._resilient_store.get("nope", "a")
            stats = runtime.resilience.stats
            assert (stats.retries, stats.fast_fails,
                    stats.breaker_opens) == (0, 0, 0)
            assert (stats.throttled_errors, stats.unavailable_errors) == (
                0, 0)
        finally:
            runtime.kernel.shutdown()

    def test_snapshot_exports_resilience_section(self):
        runtime = make_runtime(store_faults=ThrottleScript(n=2))
        try:
            run_counter(runtime)
            snap = runtime.obs.snapshot(runtime)
            section = snap["resilience"]
            assert section["retries"] == runtime.resilience.stats.retries
            assert section["throttled_errors"] >= 2
            assert "breakers" in section
        finally:
            runtime.kernel.shutdown()


class TestBreakerParity:
    def test_breaker_state_and_open_events(self):
        config = BeldiConfig(observability=True, breaker_threshold=2,
                             retry_max_attempts=6)
        runtime = BeldiRuntime(seed=11, config=config)
        timeline = FaultTimeline().outage(0.0, 1e12)
        BeldiRuntime._install_timeline(runtime.store, timeline)
        runtime.fault_timeline = timeline
        try:
            with pytest.raises(UnavailableError):
                run_counter(runtime)
            stats = runtime.resilience.stats
            assert stats.breaker_opens >= 1
            breakers = runtime.obs.snapshot(runtime)["resilience"]["breakers"]
            assert "open" in breakers.values()
            events = [r for r in runtime.obs.tracer.sorted_records()
                      if str(r.get("name", "")).startswith("breaker:open")]
            assert len(events) == stats.breaker_opens
        finally:
            runtime.kernel.shutdown()


class TestFaultEdgeEvents:
    def test_outage_edges_land_in_the_trace(self):
        runtime = make_runtime()
        timeline = FaultTimeline().outage(0.0, 30.0)
        BeldiRuntime._install_timeline(runtime.store, timeline)
        runtime.fault_timeline = timeline
        try:
            run_counter(runtime)
            names = [r.get("name") for r in
                     runtime.obs.tracer.sorted_records()]
            assert "fault:outage:start:0" in names
        finally:
            runtime.kernel.shutdown()
