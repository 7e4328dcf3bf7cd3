"""Trace↔stats parity for the resilience layer's observability hooks.

Every retry the wrapper performs must show up two ways, in exact
agreement: a ``resilience.backoff`` span in the trace and the
``ResilienceStats`` counter the snapshot exports (its one home). If the
two drift the instrumentation is lying about what the layer did.
"""

from repro.core import BeldiConfig, BeldiRuntime
from repro.kvstore import AttrNotExists, TableNotFound, UnavailableError
from repro.kvstore.surface import leaves

import pytest


def run_counter(runtime):
    def handler(ctx, payload):
        count = ctx.read("kv", "counter") or 0
        ctx.write("kv", "counter", count + 1)
        return count + 1

    runtime.register_ssf("counter", handler, tables=["kv"])
    return runtime.run_workflow("counter")


def make_runtime(**kwargs):
    return BeldiRuntime(seed=11, observability=True, **kwargs)


def throttled_runtime(until):
    """Every store op throttles before virtual ``until``: at zero
    latency time only moves in backoffs of 5-10, 10-20, 20-40 ms, so
    ``until=15`` throttles two ops and ``until=35`` three."""
    runtime = make_runtime()
    runtime.fault_timeline.error_burst(0.0, until)
    return runtime


class TestRetryParity:
    def test_backoff_spans_match_retry_counters(self):
        runtime = throttled_runtime(35.0)
        try:
            run_counter(runtime)
            stats = runtime.resilience.stats
            assert stats.retries == 3

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
            for leaf in leaves(store):
                leaf.table("t").add_index("by_v", "V")
            calls = {
                "db.cond_write": lambda: store.put(
                    "t", {"K": "a", "V": 1}, AttrNotExists("K")),
                "db.write": lambda: store.update("t", "a", []),
                "db.query": lambda: store.query_index("t", "by_v", 1),
            }
            labels = []

            def client():
                for op, call in calls.items():
                    # One op of this kind throttles: its retry comes
                    # after a backoff, past the window.
                    now = runtime.kernel.now
                    runtime.fault_timeline.error_burst(now, now + 1.0,
                                                       ops=op)
                    call()
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
        runtime = throttled_runtime(15.0)
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
        config = BeldiConfig(breaker_threshold=2, retry_max_attempts=6)
        runtime = BeldiRuntime(seed=11, config=config, observability=True)
        runtime.fault_timeline.outage(0.0, 1e12)
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
        runtime.fault_timeline.outage(0.0, 30.0)
        try:
            run_counter(runtime)
            names = [r.get("name") for r in
                     runtime.obs.tracer.sorted_records()]
            assert "fault:outage:start:0" in names
        finally:
            runtime.kernel.shutdown()
