"""The resilience layer: retry/backoff, breakers, deadlines, fallbacks.

Unit tests for the pure policies, then end-to-end runtime tests proving
the contract the layer exists for: injected-environment errors
(throttles, scheduled outages) no longer kill workflows when the budget
covers them, the off-flag reproduces the raw-propagation behavior, and a
deadline abort is clean — the intent collector still finishes the work
exactly once.
"""

import pytest

from repro.core import BeldiConfig, BeldiRuntime
from repro.core.errors import DeadlineExceeded
from repro.kvstore import ThrottledError, UnavailableError
from repro.kvstore.rebalance import ElasticityController
from repro.kvstore.surface import leaves
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.sim import RandomSource


class TestRetryPolicy:
    def test_exponential_and_capped(self):
        policy = RetryPolicy(base_backoff=10.0, max_backoff=100.0,
                             jitter=0.0)
        rand = RandomSource(1, "r")
        delays = [policy.backoff(n, rand) for n in range(1, 7)]
        assert delays == [10.0, 20.0, 40.0, 80.0, 100.0, 100.0]

    def test_jitter_shrinks_within_bounds(self):
        policy = RetryPolicy(base_backoff=100.0, jitter=0.5)
        rand = RandomSource(2, "r")
        for _ in range(50):
            delay = policy.backoff(1, rand)
            assert 50.0 < delay <= 100.0

    def test_jitter_is_seed_deterministic(self):
        policy = RetryPolicy()
        a = [policy.backoff(n, RandomSource(3, "r")) for n in (1, 2, 3)]
        b = [policy.backoff(n, RandomSource(3, "r")) for n in (1, 2, 3)]
        assert a == b


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        b = CircuitBreaker(threshold=3, cooldown=100.0)
        for _ in range(2):
            b.record_failure(0.0)
        assert b.allow(0.0)  # still closed
        b.record_failure(0.0)
        assert b.state == "open"
        assert not b.allow(50.0)

    def test_success_resets_the_streak(self):
        b = CircuitBreaker(threshold=3, cooldown=100.0)
        b.record_failure(0.0)
        b.record_failure(0.0)
        b.record_success()
        b.record_failure(0.0)
        b.record_failure(0.0)
        assert b.state == "closed"

    def test_half_open_probe_after_cooldown(self):
        b = CircuitBreaker(threshold=1, cooldown=100.0)
        b.record_failure(10.0)
        assert not b.allow(109.0)
        assert b.allow(110.0)  # half-open probe passes
        assert b.state == "half_open"
        b.record_success()
        assert b.state == "closed"

    def test_failed_probe_reopens_for_another_cooldown(self):
        b = CircuitBreaker(threshold=1, cooldown=100.0)
        b.record_failure(10.0)
        assert b.allow(110.0)
        b.record_failure(110.0)
        assert b.state == "open"
        assert not b.allow(200.0)
        assert b.allow(210.0)


def run_counter(runtime):
    def handler(ctx, payload):
        count = ctx.read("kv", "counter") or 0
        ctx.write("kv", "counter", count + 1)
        return count + 1

    ssf = runtime.register_ssf("counter", handler, tables=["kv"])
    result = runtime.run_workflow("counter")
    return result, ssf


def throttled_runtime(until, **kwargs):
    """Every store op throttles before virtual ``until``. At zero latency
    the request's first op runs at t=0 and time only moves in backoffs
    (the first lasts 5–10 ms), so ``until=1`` throttles exactly one op."""
    runtime = BeldiRuntime(seed=11, **kwargs)
    runtime.fault_timeline.error_burst(0.0, until)
    return runtime


class TestThrottleRecovery:
    """Satellite regression: point-op throttles used to escape
    ``core/ops.py``/``core/daal.py`` raw and abort the whole workflow."""

    def test_single_throttle_no_longer_aborts(self):
        runtime = throttled_runtime(1.0)
        try:
            result, ssf = run_counter(runtime)
            assert result == 1
            assert ssf.env.peek("kv", "counter") == 1
            assert runtime.resilience.stats.retries == 1
            assert runtime.resilience.stats.throttled_errors == 1
        finally:
            runtime.kernel.shutdown()

    def test_burst_of_throttles_survives_within_budget(self):
        runtime = throttled_runtime(60.0)
        try:
            result, _ = run_counter(runtime)
            assert result == 1
            assert runtime.resilience.stats.throttled_errors >= 3
        finally:
            runtime.kernel.shutdown()

    def test_without_resilience_reproduces_raw_propagation(self):
        runtime = throttled_runtime(
            1.0, config=BeldiConfig(without="resilience"))
        try:
            assert runtime.resilience is None
            with pytest.raises(ThrottledError):
                run_counter(runtime)
        finally:
            runtime.kernel.shutdown()

    def test_throttles_never_trip_the_breaker(self):
        runtime = throttled_runtime(60.0)
        try:
            run_counter(runtime)
            assert runtime.resilience.stats.breaker_opens == 0
        finally:
            runtime.kernel.shutdown()


class TestOutageRecovery:
    def make_runtime(self, outage_end, **kwargs):
        runtime = BeldiRuntime(seed=11, **kwargs)
        runtime.fault_timeline.outage(0.0, outage_end)
        return runtime

    def test_workflow_rides_out_a_short_outage(self):
        runtime = self.make_runtime(outage_end=40.0)
        try:
            result, ssf = run_counter(runtime)
            assert result == 1
            assert ssf.env.peek("kv", "counter") == 1
            stats = runtime.resilience.stats
            assert stats.unavailable_errors >= 1
            assert stats.retries >= 1
        finally:
            runtime.kernel.shutdown()

    def test_endless_outage_exhausts_the_budget(self):
        runtime = self.make_runtime(outage_end=1e12)
        try:
            with pytest.raises(UnavailableError):
                run_counter(runtime)
        finally:
            runtime.kernel.shutdown()

    def test_breaker_opens_under_a_long_outage(self):
        config = BeldiConfig(breaker_threshold=2, retry_max_attempts=8)
        runtime = self.make_runtime(outage_end=1e12, config=config)
        try:
            with pytest.raises(UnavailableError):
                run_counter(runtime)
            stats = runtime.resilience.stats
            assert stats.breaker_opens >= 1
            assert stats.fast_fails >= 1
        finally:
            runtime.kernel.shutdown()


class TestDeadlines:
    def test_deadline_abort_is_clean_and_ic_finishes(self):
        """The client sees ``DeadlineExceeded``; the pending intent stays
        for the collector, which completes it after the heal — the write
        lands exactly once."""
        config = BeldiConfig(request_deadline=100.0,
                             ic_restart_delay=50.0)
        runtime = BeldiRuntime(seed=11, config=config)
        # Scoped to chain reads so the intent record itself lands: the
        # deadline then aborts a request whose intent is pending — the
        # recovery case (an unreachable intent table is a clean
        # never-started failure instead).
        runtime.fault_timeline.outage(0.0, 600.0, ops="db.query")

        def handler(ctx, payload):
            count = ctx.read("kv", "counter") or 0
            ctx.write("kv", "counter", count + 1)
            return count + 1

        ssf = runtime.register_ssf("counter", handler, tables=["kv"])
        box = {}

        def client():
            try:
                box["result"] = runtime.client_call("counter")
            except DeadlineExceeded:
                box["result"] = "deadline"

        try:
            runtime.start_collectors(ic_period=100.0, gc_period=1e12)
            runtime.kernel.spawn(client, name="client")
            # Drive past the heal: the IC re-runs the instance with a
            # fresh budget and the effect lands exactly once.
            runtime.kernel.run(until=2_000.0)
            runtime.stop_collectors()
            runtime.kernel.run(until=2_500.0)
            assert box["result"] == "deadline"
            assert runtime.resilience.stats.deadline_aborts >= 1
            assert ssf.env.peek("kv", "counter") == 1
        finally:
            runtime.kernel.shutdown()

    def test_no_deadline_outside_invocations(self):
        runtime = BeldiRuntime(
            seed=11, config=BeldiConfig(request_deadline=50.0))
        try:
            assert runtime.resilience.current_deadline() is None
            run_counter(runtime)
            assert runtime.resilience.current_deadline() is None
        finally:
            runtime.kernel.shutdown()


class TestDegradedReads:
    def test_dark_leader_serves_stale_follower_read(self):
        runtime = BeldiRuntime(seed=11, shards=1, replicas=2)
        store = runtime.store
        wrapped = runtime._resilient_store
        store.ensure_table("app.data", hash_key="Key")
        store.put("app.data", {"Key": "a", "V": 1})
        box = {}

        def probe():
            for leaf in leaves(store):
                leaf.time.sleep(5_000.0)  # let the write ship
            runtime.fault_timeline.outage(5_000.0, role="leader")
            box["value"] = wrapped.get("app.data", "a")

        try:
            runtime.kernel.spawn(probe)
            runtime.kernel.run()
            assert box["value"]["V"] == 1
            assert runtime.resilience.stats.degraded_reads == 1
        finally:
            runtime.kernel.shutdown()

    def test_protocol_tables_never_degrade(self):
        runtime = BeldiRuntime(seed=11, shards=1, replicas=2)
        store = runtime.store
        wrapped = runtime._resilient_store
        store.ensure_table("app.intent", hash_key="Key")
        store.put("app.intent", {"Key": "a", "V": 1})

        def probe():
            for leaf in leaves(store):
                leaf.time.sleep(5_000.0)
            runtime.fault_timeline.outage(5_000.0, role="leader")
            wrapped.get("app.intent", "a")

        try:
            proc = runtime.kernel.spawn(probe)
            runtime.kernel.run()
            assert isinstance(proc.error, UnavailableError)
            assert runtime.resilience.stats.degraded_reads == 0
        finally:
            runtime.kernel.shutdown()


    @pytest.mark.parametrize("storage_mode", ["daal", "crosstable"])
    def test_every_log_table_reads_strong_and_stays_put(self,
                                                        storage_mode):
        """One list of protocol tables: each log a mode keeps neither
        degrades nor migrates (the write log once did degrade)."""
        runtime = BeldiRuntime(seed=11, shards=1, replicas=2)
        store = runtime.store
        wrapped = runtime._resilient_store
        env = runtime.create_env("app", ["kv"], storage_mode=storage_mode)
        names = env.log_table_names()
        assert (env.write_log in names) == (storage_mode == "crosstable")
        outcomes = {}

        def probe():
            runtime.fault_timeline.outage(0.0, role="leader")
            for name in names:
                try:
                    wrapped.get(name, "missing" if name == env.intent_table
                                else ("missing", 0))
                except UnavailableError:
                    outcomes[name] = "unavailable"

        try:
            runtime.kernel.spawn(probe)
            runtime.kernel.run()
            assert outcomes == dict.fromkeys(names, "unavailable")
            assert runtime.resilience.stats.degraded_reads == 0
            assert not any(ElasticityController._migratable(name)
                           for name in names)
        finally:
            runtime.kernel.shutdown()


class TestAblationDiscipline:
    def test_fault_free_runs_identical_with_and_without(self):
        """With no faults injected the layer must be pure overhead-free
        pass-through: same virtual time, same metering, same results."""
        def run(without):
            runtime = BeldiRuntime(seed=11, latency_scale=1.0,
                                   config=BeldiConfig(without=without))
            try:
                result, ssf = run_counter(runtime)
                return (result, runtime.kernel.now,
                        runtime.store.metering.snapshot(),
                        ssf.env.peek("kv", "counter"))
            finally:
                runtime.kernel.shutdown()

        assert run(None) == run("resilience")
