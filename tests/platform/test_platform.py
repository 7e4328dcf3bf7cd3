"""Unit tests for the serverless platform emulator."""

import gc

import pytest

from repro.platform import (
    CrashOnce,
    CrashScript,
    FunctionCrashed,
    FunctionNotFound,
    FunctionTimeout,
    PlatformConfig,
    ServerlessPlatform,
    TooManyRequests,
)
from repro.sim import LatencyModel, RandomSource, SimKernel
from repro.sim.kernel import Process


def make_platform(seed=1, scale=0.0, **config_kwargs):
    kernel = SimKernel(seed=seed)
    rand = RandomSource(seed)
    platform = ServerlessPlatform(
        kernel, rand=rand.child("platform"),
        latency=LatencyModel(rand.child("latency"), scale=scale),
        config=PlatformConfig(**config_kwargs))
    return kernel, platform


class TestInvocation:
    def test_sync_invoke_returns_result(self):
        kernel, platform = make_platform()
        platform.register("double", lambda ctx, payload: payload * 2)
        results = []

        def client():
            results.append(platform.sync_invoke("double", 21))

        kernel.spawn(client)
        kernel.run()
        assert results == [42]

    def test_handler_gets_unique_request_ids(self):
        kernel, platform = make_platform()
        seen = []
        platform.register("f", lambda ctx, p: seen.append(ctx.request_id))

        def client():
            platform.sync_invoke("f", None)
            platform.sync_invoke("f", None)

        kernel.spawn(client)
        kernel.run()
        assert len(seen) == 2 and seen[0] != seen[1]

    def test_invocation_index_increments(self):
        kernel, platform = make_platform()
        indexes = []
        platform.register("f",
                          lambda ctx, p: indexes.append(
                              ctx.invocation_index))

        def client():
            for _ in range(3):
                platform.sync_invoke("f", None)

        kernel.spawn(client)
        kernel.run()
        assert indexes == [0, 1, 2]

    def test_unknown_function_rejected(self):
        kernel, platform = make_platform()
        errors = []

        def client():
            try:
                platform.sync_invoke("ghost", None)
            except FunctionNotFound:
                errors.append("not-found")

        kernel.spawn(client)
        kernel.run()
        assert errors == ["not-found"]

    def test_nested_invocation_through_context(self):
        kernel, platform = make_platform()
        platform.register("inner", lambda ctx, p: p + 1)
        platform.register("outer",
                          lambda ctx, p: ctx.sync_invoke("inner", p) * 10)
        results = []
        kernel.spawn(lambda: results.append(
            platform.client_request("outer", 1)))
        kernel.run()
        assert results == [20]

    def test_async_invoke_runs_eventually(self):
        kernel, platform = make_platform()
        ran = []
        platform.register("bg", lambda ctx, p: ran.append(p))

        def client():
            platform.async_invoke("bg", "payload")

        kernel.spawn(client)
        kernel.run()
        assert ran == ["payload"]

    def test_application_error_propagates_to_sync_caller(self):
        kernel, platform = make_platform()

        def bad(ctx, payload):
            raise ValueError("app bug")

        platform.register("bad", bad)
        caught = []

        def client():
            try:
                platform.sync_invoke("bad", None)
            except ValueError as exc:
                caught.append(str(exc))

        kernel.spawn(client)
        kernel.run()
        assert caught == ["app bug"]


class TestConcurrencyCap:
    def test_client_rejected_at_cap(self):
        kernel, platform = make_platform(concurrency_limit=2,
                                         entry_admission_fraction=1.0)

        def slow(ctx, payload):
            ctx.sleep(100.0)
            return "ok"

        platform.register("slow", slow)
        outcomes = []

        def client(i):
            try:
                outcomes.append((i, platform.client_request("slow", None)))
            except TooManyRequests:
                outcomes.append((i, "rejected"))

        for i in range(4):
            kernel.spawn(client, i, delay=float(i))
        kernel.run()
        rejected = [o for o in outcomes if o[1] == "rejected"]
        assert len(rejected) == 2
        assert platform.stats.rejected == 2

    def test_gateway_reserves_headroom_for_internal_invokes(self):
        """With admission at 50%, half the cap stays available for the
        workflow-internal invocations of admitted requests."""
        kernel, platform = make_platform(concurrency_limit=4,
                                         entry_admission_fraction=0.5)
        platform.register("inner", lambda ctx, p: ctx.sleep(50.0))

        def outer(ctx, payload):
            ctx.sync_invoke("inner", None)
            return "ok"

        platform.register("outer", outer)
        outcomes = []

        def client(i):
            try:
                outcomes.append(platform.client_request("outer", None))
            except TooManyRequests:
                outcomes.append("rejected")

        # While one request runs it holds 2 of 4 slots (outer + inner),
        # which is exactly the admission limit: overlapping arrivals are
        # rejected, spaced ones are admitted.
        for delay in (0.0, 10.0, 20.0, 100.0):
            kernel.spawn(client, delay, delay=delay)
        kernel.run()
        assert outcomes.count("ok") == 2
        assert outcomes.count("rejected") == 2

    def test_internal_invoke_waits_for_slot(self):
        kernel, platform = make_platform(concurrency_limit=1)

        def slow(ctx, payload):
            ctx.sleep(50.0)
            return payload

        platform.register("slow", slow)
        results = []
        kernel.spawn(lambda: results.append(platform.sync_invoke("slow", 1)))
        kernel.spawn(lambda: results.append(platform.sync_invoke("slow", 2)),
                     delay=1.0)
        kernel.run()
        assert sorted(results) == [1, 2]

    def test_peak_concurrency_tracked(self):
        kernel, platform = make_platform(concurrency_limit=10)
        platform.register("slow", lambda ctx, p: ctx.sleep(100.0))
        for i in range(5):
            kernel.spawn(lambda: platform.sync_invoke("slow", None))
        kernel.run()
        assert platform.stats.peak_concurrency == 5


class TestTimeout:
    def test_runaway_function_killed(self):
        kernel, platform = make_platform(default_timeout=50.0)

        def runaway(ctx, payload):
            ctx.sleep(10_000.0)

        platform.register("runaway", runaway)
        caught = []

        def client():
            try:
                platform.sync_invoke("runaway", None)
            except FunctionTimeout:
                caught.append(kernel.now)

        kernel.spawn(client)
        kernel.run()
        assert caught and caught[0] == pytest.approx(50.0)
        assert platform.stats.timeouts == 1

    def test_fast_function_not_killed(self):
        kernel, platform = make_platform(default_timeout=50.0)
        platform.register("fast", lambda ctx, p: "ok")
        results = []
        kernel.spawn(lambda: results.append(platform.sync_invoke("fast", 0)))
        kernel.run()
        assert results == ["ok"]
        assert platform.stats.timeouts == 0

    def test_armed_timer_does_not_keep_a_finished_worker(self):
        """The watchdog holds a worker's ``Process`` only while it runs:
        the exiting worker leaves it, so what a finished invocation
        retains (semaphore, context, payload, result) goes when it ends,
        not when its timeout would have fired.

        ``Process`` has ``__slots__`` without ``__weakref__`` and the
        kernel's pooled thread keeps its last process in a local until
        its next job, so "collectable" is checked as: nothing the armed
        timer can reach (the watchdog, its platform and kernel) is that
        process or its payload."""
        kernel, platform = make_platform(default_timeout=50.0)
        platform.register("fast", lambda ctx, p: "ok")
        timers = []
        call_at = kernel.call_at

        def spy(when, callback):
            timers.append((when, callback))
            return call_at(when, callback)

        kernel.call_at = spy

        class Payload:
            pass

        def held_by(root):
            seen, stack, held = set(), [root], []
            while stack:
                obj = stack.pop()
                if id(obj) in seen:
                    continue
                seen.add(id(obj))
                if isinstance(obj, Payload) or (
                        isinstance(obj, Process)
                        and obj.name.startswith("fn:fast")):
                    held.append(obj)
                stack.extend(gc.get_referents(obj))
            return held

        seen = []

        def client():
            platform.sync_invoke("fast", Payload())
            kernel.sleep(1.0)
            seen.append((kernel.now, held_by(timers[0][1])))

        kernel.spawn(client)
        kernel.run()
        assert seen == [(pytest.approx(1.0), [])]
        assert [when for when, _callback in timers] == [50.0]  # one timer
        assert platform.stats.timeouts == 0

    def test_overrunning_worker_is_killed_by_the_watchdog(self):
        kernel, platform = make_platform(default_timeout=50.0)
        died = []

        def runaway(ctx, payload):
            try:
                ctx.sleep(10_000.0)
            finally:
                died.append(kernel.now)

        platform.register("runaway", runaway)
        platform.register("fast", lambda ctx, p: "ok")

        def client():
            platform.async_invoke("runaway", None)
            platform.sync_invoke("fast", 0)

        kernel.spawn(client)
        kernel.run()
        assert died == [pytest.approx(50.0)]
        assert platform.stats.timeouts == 1  # the runaway, not the fast one
        assert platform.active_instances == 0

    def test_per_function_timeout_override(self):
        kernel, platform = make_platform(default_timeout=1000.0)

        def napper(ctx, payload):
            ctx.sleep(100.0)
            return "done"

        platform.register("napper", napper, timeout=10.0)
        caught = []

        def client():
            try:
                platform.sync_invoke("napper", None)
            except FunctionTimeout:
                caught.append(True)

        kernel.spawn(client)
        kernel.run()
        assert caught == [True]


class TestCrashInjection:
    def test_crash_once_at_tag(self):
        kernel, platform = make_platform()
        attempts = []

        def handler(ctx, payload):
            attempts.append(ctx.invocation_index)
            ctx.crash_point("mid")
            return "survived"

        platform.register("f", handler)
        platform.crash_policy = CrashOnce("f", tag="mid")
        outcomes = []

        def client():
            try:
                outcomes.append(platform.sync_invoke("f", None))
            except FunctionCrashed:
                outcomes.append("crashed")
            outcomes.append(platform.sync_invoke("f", None))

        kernel.spawn(client)
        kernel.run()
        assert outcomes == ["crashed", "survived"]
        assert platform.stats.injected_crashes == 1

    def test_crash_script_targets_specific_invocation(self):
        kernel, platform = make_platform()

        def handler(ctx, payload):
            ctx.crash_point("mid")
            return ctx.invocation_index

        platform.register("f", handler)
        platform.crash_policy = CrashScript.of(("f", 1, "mid"))
        outcomes = []

        def client():
            for _ in range(3):
                try:
                    outcomes.append(platform.sync_invoke("f", None))
                except FunctionCrashed:
                    outcomes.append("crashed")

        kernel.spawn(client)
        kernel.run()
        assert outcomes == [0, "crashed", 2]

    def test_crash_is_not_catchable_by_handler(self):
        kernel, platform = make_platform()

        def sneaky(ctx, payload):
            try:
                ctx.crash_point("mid")
            except Exception:  # noqa: BLE001 - the point of the test
                return "caught"
            return "no-crash"

        platform.register("f", sneaky)
        platform.crash_policy = CrashOnce("f", tag="mid")
        outcomes = []

        def client():
            try:
                outcomes.append(platform.sync_invoke("f", None))
            except FunctionCrashed:
                outcomes.append("crashed")

        kernel.spawn(client)
        kernel.run()
        assert outcomes == ["crashed"]


class TestCrashCounting:
    """``PlatformStats.crashes`` counts worker deaths where they happen,
    each once, whether or not anyone is waiting for the worker."""

    @staticmethod
    def _crashy(ctx, payload):
        if payload == "respond-first":
            ctx.respond("early")
        ctx.crash_point("mid")
        return "survived"

    def test_sync_death_counted_once(self):
        kernel, platform = make_platform()
        platform.register("f", self._crashy)
        platform.crash_policy = CrashOnce("f", tag="mid")
        outcomes = []

        def client():
            try:
                platform.sync_invoke("f", None)
            except FunctionCrashed:
                outcomes.append("crashed")

        kernel.spawn(client)
        kernel.run()
        assert outcomes == ["crashed"]
        assert platform.stats.crashes == 1

    def test_async_death_counted_though_nobody_awaits_it(self):
        kernel, platform = make_platform()
        platform.register("f", self._crashy)
        platform.crash_policy = CrashOnce("f", tag="mid")
        kernel.spawn(lambda: platform.async_invoke("f", None))
        kernel.run()
        assert platform.stats.crashes == 1
        assert platform.stats.completions == 0
        assert platform.active_instances == 0

    def test_death_after_the_response_counted_and_not_reported(self):
        kernel, platform = make_platform()
        platform.register("f", self._crashy)
        platform.crash_policy = CrashOnce("f", tag="mid")
        outcomes = []
        kernel.spawn(lambda: outcomes.append(
            platform.sync_invoke("f", "respond-first")))
        kernel.run()
        assert outcomes == ["early"]
        assert platform.stats.crashes == 1
        assert platform.active_instances == 0


class TestEarlyResponse:
    """``ctx.respond``: the waiter resumes at the response; slot, timeout
    and warm container follow the worker's exit, as on Lambda's Runtime
    API when a runtime posts its response and works on."""

    def test_waiter_resumes_at_the_response_worker_runs_on(self):
        kernel, platform = make_platform()
        marks = {}

        def handler(ctx, payload):
            ctx.sleep(10.0)
            ctx.respond("early")
            ctx.sleep(30.0)
            marks["worker_exit"] = kernel.now
            return "ignored"

        platform.register("f", handler)

        def client():
            marks["result"] = platform.sync_invoke("f", None)
            marks["client_resumed"] = kernel.now
            marks["active_at_resume"] = platform.active_instances

        kernel.spawn(client)
        kernel.run()
        assert marks["result"] == "early"
        assert marks["client_resumed"] == pytest.approx(10.0)
        assert marks["active_at_resume"] == 1  # slot held by the tail
        assert marks["worker_exit"] == pytest.approx(40.0)
        assert platform.active_instances == 0
        assert platform.stats.completions == 1

    def test_only_the_first_response_counts(self):
        kernel, platform = make_platform()

        def handler(ctx, payload):
            ctx.respond("first")
            ctx.respond("second")
            return "third"

        platform.register("f", handler)
        results = []
        kernel.spawn(lambda: results.append(platform.sync_invoke("f", 0)))
        kernel.run()
        assert results == ["first"]

    def test_timeout_stays_armed_over_the_tail(self):
        kernel, platform = make_platform(default_timeout=50.0)

        died = []

        def handler(ctx, payload):
            ctx.respond("early")
            try:
                ctx.sleep(10_000.0)
            finally:
                died.append(kernel.now)

        platform.register("f", handler)
        results = []
        kernel.spawn(lambda: results.append(platform.sync_invoke("f", 0)))
        kernel.run()
        assert results == ["early"]
        assert platform.stats.timeouts == 1
        assert died == [pytest.approx(50.0)]
        assert platform.active_instances == 0

    def test_no_response_fires_the_same_kernel_events(self):
        """An invocation that never responds early schedules exactly what
        it scheduled before there was an early response (the response
        rides the waiter's own event, no new one)."""
        def run(respond):
            kernel, platform = make_platform()
            kernel.capture_trace = True

            def handler(ctx, payload):
                ctx.sleep(5.0)
                if respond:
                    ctx.respond("r")
                return "r"

            platform.register("f", handler)
            kernel.spawn(lambda: platform.sync_invoke("f", None))
            kernel.run()
            return kernel.fired_trace

        plain = run(respond=False)
        assert plain == run(respond=True)
        assert [label for _, label in plain if ":event:" in label] == [
            "<lambda>#0:event:fn:f#1.done"]


class TestWarmStarts:
    def test_second_invocation_is_warm(self):
        kernel, platform = make_platform(scale=1.0)
        platform.register("f", lambda ctx, p: ctx.cold_start)
        observed = []

        def client():
            observed.append(platform.sync_invoke("f", None))
            observed.append(platform.sync_invoke("f", None))

        kernel.spawn(client)
        kernel.run()
        assert observed == [True, False]
        assert platform.stats.cold_starts == 1
        assert platform.stats.warm_starts == 1

    def test_warm_container_expires(self):
        kernel, platform = make_platform(scale=0.0, warm_keepalive=10.0)
        platform.register("f", lambda ctx, p: ctx.cold_start)
        observed = []

        def client():
            observed.append(platform.sync_invoke("f", None))
            kernel.sleep(100.0)
            observed.append(platform.sync_invoke("f", None))

        kernel.spawn(client)
        kernel.run()
        assert observed == [True, True]

    def test_crashed_container_not_reused(self):
        kernel, platform = make_platform()

        def handler(ctx, payload):
            ctx.crash_point("mid")
            return ctx.cold_start

        platform.register("f", handler)
        platform.crash_policy = CrashOnce("f", tag="mid")
        observed = []

        def client():
            try:
                platform.sync_invoke("f", None)
            except FunctionCrashed:
                pass
            observed.append(platform.sync_invoke("f", None))

        kernel.spawn(client)
        kernel.run()
        assert observed == [True]  # still a cold start


class TestTimers:
    def test_timer_fires_periodically(self):
        kernel, platform = make_platform()
        fired = []
        platform.register("tick", lambda ctx, p: fired.append(kernel.now))
        platform.add_timer("tick", period=10.0)
        kernel.run(until=45.0)
        platform.stop_timers()
        kernel.run()
        assert len(fired) == 4

    def test_timer_survives_handler_errors(self):
        kernel, platform = make_platform()
        calls = []

        def flaky(ctx, payload):
            calls.append(1)
            raise RuntimeError("boom")

        platform.register("flaky", flaky)
        handle = platform.add_timer("flaky", period=10.0)
        kernel.run(until=35.0)
        platform.stop_timers()
        kernel.run()
        assert len(calls) == 3
        assert handle["errors"] == 3

    def test_stop_timers(self):
        kernel, platform = make_platform()
        fired = []
        platform.register("tick", lambda ctx, p: fired.append(1))
        platform.add_timer("tick", period=10.0)
        kernel.run(until=25.0)
        platform.stop_timers()
        kernel.run()
        assert len(fired) == 2
