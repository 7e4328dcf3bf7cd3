"""Tests for the open-loop harness: arrival processes, admission
control, measurement semantics, and exactly-once under crashes.

Four layers, mirroring the module's own structure:

- **arrival generators** — determinism (same seed, same sequence),
  empirical rate against theory, stable merges (hypothesis drives the
  shape properties);
- **admission window** — deterministic shedding, FIFO slot handoff,
  queue bounds, and the kill-a-queued-waiter path that crash sweeps
  exercise (no capacity may leak);
- **open-loop driver** — response time runs from the *intended*
  arrival (coordinated omission is structurally impossible), warmup
  exclusion, shed accounting, and overload on a real store: shedding
  without collapse at a flat $/request;
- **crash sweep** — an open-loop mix with an injected crash at every
  sampled crash point still applies each request's effect exactly
  once after intent-collector recovery.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BeldiConfig, BeldiRuntime, daal, intents
from repro.platform import CrashOnce, PlatformConfig, RecordingPolicy
from repro.sim.kernel import SimKernel
from repro.sim.randsrc import RandomSource
from repro.workload import (
    AdmissionWindow,
    OpenLoopConfig,
    OpenLoopResult,
    merge_streams,
    poisson_arrivals,
    run_open_loop,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
RATES = st.floats(min_value=0.5, max_value=2000.0,
                  allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------

class TestPoissonArrivals:
    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, rate=RATES)
    def test_same_seed_same_sequence(self, seed, rate):
        """The sweep's reproducibility rests on this: arrivals are a pure
        function of (seed, rate, horizon)."""
        first = poisson_arrivals(rate, 2_000.0, RandomSource(seed, "p"))
        second = poisson_arrivals(rate, 2_000.0, RandomSource(seed, "p"))
        assert first == second

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, rate=RATES)
    def test_sorted_within_horizon(self, seed, rate):
        times = poisson_arrivals(rate, 2_000.0, RandomSource(seed, "p"))
        assert all(a < b for a, b in zip(times, times[1:]))
        assert all(0.0 <= t < 2_000.0 for t in times)

    def test_different_seed_differs(self):
        a = poisson_arrivals(100.0, 5_000.0, RandomSource(1, "p"))
        b = poisson_arrivals(100.0, 5_000.0, RandomSource(2, "p"))
        assert a != b

    def test_empirical_rate_matches_target(self):
        """500 RPS over 200 virtual seconds: the count is Poisson with
        mean 100,000, sigma ~316 — a 4-sigma band is [98.7k, 101.3k]."""
        times = poisson_arrivals(500.0, 200_000.0, RandomSource(9, "p"))
        assert 98_700 <= len(times) <= 101_300

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 1_000.0, RandomSource(1, "p"))
        with pytest.raises(ValueError):
            poisson_arrivals(100.0, -1.0, RandomSource(1, "p"))


class TestMergeStreams:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.floats(min_value=0.0, max_value=1e6),
                             max_size=50),
                    max_size=5))
    def test_sorted_and_complete(self, raw):
        streams = [(f"class-{i}", sorted(times))
                   for i, times in enumerate(raw)]
        merged = merge_streams(streams)
        assert len(merged) == sum(len(times) for _, times in streams)
        assert all(a[0] <= b[0] for a, b in zip(merged, merged[1:]))
        for name, times in streams:
            assert [t for t, tag in merged if tag == name] == times

    def test_stable_tie_order(self):
        """Equal arrival instants fire in stream-declaration order, so a
        multi-class mix is deterministic even under ties."""
        merged = merge_streams([("a", [1.0, 2.0]),
                                ("b", [1.0, 2.0]),
                                ("c", [2.0])])
        assert merged == [(1.0, "a"), (1.0, "b"),
                          (2.0, "a"), (2.0, "b"), (2.0, "c")]

    def test_empty(self):
        assert merge_streams([]) == []
        assert merge_streams([("a", [])]) == []


# ---------------------------------------------------------------------------
# admission window / backpressure
# ---------------------------------------------------------------------------

def _drive(kernel: SimKernel) -> None:
    kernel.run()
    kernel.shutdown()


class TestAdmissionWindow:
    def _shed_run(self) -> tuple[list, AdmissionWindow]:
        kernel = SimKernel(seed=3)
        window = AdmissionWindow(kernel, max_in_flight=2, policy="shed")
        outcomes: list[tuple[str, bool]] = []

        def client(tag: str) -> None:
            admitted = window.try_enter()
            outcomes.append((tag, admitted))
            if admitted:
                kernel.sleep(10.0)
                window.leave()

        for i in range(5):
            kernel.spawn(client, f"c{i}", name=f"c{i}")
        _drive(kernel)
        return outcomes, window

    def test_shed_policy_is_deterministic(self):
        """5 simultaneous arrivals into a 2-slot shed window: the first
        two (in spawn order) win, the rest shed — identically on
        every run."""
        first, w1 = self._shed_run()
        second, w2 = self._shed_run()
        assert first == second
        assert first == [("c0", True), ("c1", True),
                         ("c2", False), ("c3", False), ("c4", False)]
        assert w1.stats.shed == w2.stats.shed == 3
        assert w1.stats.admitted == 2
        assert w1.stats.max_in_flight == 2
        assert w1.in_flight == 0

    def test_queue_policy_fifo_handoff(self):
        """One slot, queued arrivals 1ms apart: admission order and
        times follow arrival order exactly (10ms service each)."""
        kernel = SimKernel(seed=3)
        window = AdmissionWindow(kernel, max_in_flight=1,
                                 policy="queue", max_queue=10)
        admitted: list[tuple[str, float]] = []

        def client(tag: str) -> None:
            assert window.try_enter()
            admitted.append((tag, kernel.now))
            kernel.sleep(10.0)
            window.leave()

        for i in range(4):
            kernel.spawn(client, f"c{i}", name=f"c{i}", delay=float(i))
        _drive(kernel)
        assert admitted == [("c0", 0.0), ("c1", 10.0),
                            ("c2", 20.0), ("c3", 30.0)]
        assert window.stats.queued == 3
        assert window.stats.max_queue_depth == 3
        assert window.in_flight == 0

    def test_max_queue_bound_sheds(self):
        kernel = SimKernel(seed=3)
        window = AdmissionWindow(kernel, max_in_flight=1,
                                 policy="queue", max_queue=1)
        outcomes: list[tuple[str, bool]] = []

        def client(tag: str) -> None:
            admitted = window.try_enter()
            outcomes.append((tag, admitted))
            if admitted:
                kernel.sleep(50.0)
                window.leave()

        for i in range(3):
            kernel.spawn(client, f"c{i}", name=f"c{i}", delay=float(i))
        _drive(kernel)
        # c0 holds the slot, c1 queues, c2 finds the queue full.
        assert (f"c2", False) in outcomes
        assert window.stats.shed == 1
        assert window.stats.admitted == 2
        assert window.in_flight == 0

    def test_killed_waiter_returns_slot(self):
        """Killing a queued waiter (what a crash sweep does) must not
        leak window capacity or stall later waiters."""
        kernel = SimKernel(seed=3)
        window = AdmissionWindow(kernel, max_in_flight=1,
                                 policy="queue", max_queue=10)
        admitted: list[str] = []

        def client(tag: str) -> None:
            if window.try_enter():
                admitted.append(tag)
                kernel.sleep(100.0)
                window.leave()

        kernel.spawn(client, "holder", name="holder")
        victim = kernel.spawn(client, "victim", name="victim", delay=1.0)
        kernel.spawn(client, "patient", name="patient", delay=2.0)
        kernel.spawn(lambda: victim.kill(), name="killer", delay=10.0)
        _drive(kernel)
        assert admitted == ["holder", "patient"]
        assert window.stats.abandoned == 1
        assert window.stats.queued == 2
        assert window.stats.admitted == 2
        assert window.in_flight == 0

    def test_rejects_bad_parameters(self):
        kernel = SimKernel(seed=1)
        with pytest.raises(ValueError):
            AdmissionWindow(kernel, 0)
        with pytest.raises(ValueError):
            AdmissionWindow(kernel, 4, policy="drop")
        with pytest.raises(ValueError):
            AdmissionWindow(kernel, 4, max_queue=-1)
        kernel.shutdown()


# ---------------------------------------------------------------------------
# the open-loop driver's measurement semantics
# ---------------------------------------------------------------------------

class _StubRuntime:
    """Just enough runtime for run_open_loop: a fixed service time."""

    def __init__(self, service_ms: float) -> None:
        self.kernel = SimKernel(seed=2)
        self.service_ms = service_ms
        self.calls: list[tuple[float, dict]] = []

    def client_call(self, entry: str, payload: dict) -> dict:
        self.calls.append((self.kernel.now, payload))
        self.kernel.sleep(self.service_ms)
        return {"ok": True}


class TestOpenLoopDriver:
    def test_latency_runs_from_intended_arrival(self):
        """The anti-coordinated-omission property itself: with a 1-slot
        window and 50ms service, the request arriving at t=10 is served
        at t=50 and finishes at t=100 — its latency is 90ms (measured
        from its intended arrival), not 50ms (its service time)."""
        runtime = _StubRuntime(service_ms=50.0)
        config = OpenLoopConfig(max_in_flight=1, policy="queue",
                                max_queue=10)
        result = run_open_loop(runtime, "stub", lambda rand: {},
                               [0.0, 10.0], config=config,
                               duration_ms=100.0)
        runtime.kernel.shutdown()
        assert result.recorder.samples == [50.0, 90.0]
        assert result.offered == 2
        assert result.completed == 2
        assert result.goodput_rps == pytest.approx(20.0)

    def test_warmup_arrivals_execute_unrecorded(self):
        runtime = _StubRuntime(service_ms=5.0)
        config = OpenLoopConfig(max_in_flight=8, warmup_ms=25.0)
        result = run_open_loop(runtime, "stub", lambda rand: {},
                               [0.0, 20.0, 30.0], config=config,
                               duration_ms=75.0)
        runtime.kernel.shutdown()
        # All three ran (they warm caches), only the post-warmup one counts.
        assert len(runtime.calls) == 3
        assert result.offered == 1
        assert result.recorder.samples == [5.0]

    def test_shed_policy_records_shed(self):
        runtime = _StubRuntime(service_ms=50.0)
        config = OpenLoopConfig(max_in_flight=1, policy="shed")
        result = run_open_loop(runtime, "stub", lambda rand: {},
                               [0.0, 10.0], config=config,
                               duration_ms=100.0)
        runtime.kernel.shutdown()
        assert result.completed == 1
        assert result.shed == 1
        assert result.admission.shed == 1
        assert result.recorder.samples == [50.0]

    def test_tagged_arrivals_reach_sample(self):
        runtime = _StubRuntime(service_ms=1.0)
        arrivals = merge_streams([("hot", [0.0, 2.0]), ("cold", [1.0])])
        result = run_open_loop(
            runtime, "stub", lambda rand, tag: {"class": tag},
            arrivals, config=OpenLoopConfig(max_in_flight=8),
            duration_ms=10.0)
        runtime.kernel.shutdown()
        assert [p["class"] for _t, p in runtime.calls] == [
            "hot", "cold", "hot"]
        assert result.completed == 3


# ---------------------------------------------------------------------------
# a real store: overload, and exactly-once under an open-loop crash sweep
# ---------------------------------------------------------------------------

def _bump_runtime(latency_scale: float = 0.0
                  ) -> tuple[BeldiRuntime, object]:
    runtime = BeldiRuntime(
        seed=5, latency_scale=latency_scale,
        config=BeldiConfig(ic_restart_delay=200.0, gc_t=1e12,
                           lock_retry_backoff=5.0, lock_retry_limit=500),
        platform_config=PlatformConfig(concurrency_limit=400),
        shards=1)

    def bump(ctx, payload):
        uid = payload["user"]
        record = ctx.read("profiles", uid) or {"visits": 0}
        ctx.write("profiles", uid, {"visits": record["visits"] + 1})
        return {"ok": True}

    ssf = runtime.register_ssf("bump", bump, tables=["profiles"])
    return runtime, ssf


def _written_rows(ssf) -> list[int]:
    """visit counts of every key any request wrote."""
    table = ssf.env.data_table("profiles")
    return [ssf.env.peek("profiles", key)["visits"]
            for key in daal.all_keys(ssf.env.store, table)]


def _make_sample():
    """Each request targets its own key, so 'applied exactly once' is
    directly countable: one row per effect, every row at visits=1.
    (A shared counter would instead race at the application level —
    read and write are separate exactly-once ops, not a transaction.)"""
    counter = itertools.count()

    def sample(rand: RandomSource, tag: str) -> dict:
        return {"user": f"{tag}-{next(counter):04d}"}

    return sample


def _open_loop_mix(runtime) -> OpenLoopResult:
    arrivals = merge_streams([
        ("hot", poisson_arrivals(80.0, 300.0,
                                 RandomSource(7, "crash/hot"))),
        ("cold", poisson_arrivals(40.0, 300.0,
                                  RandomSource(7, "crash/cold"))),
    ])
    config = OpenLoopConfig(max_in_flight=4, policy="queue",
                            max_queue=200, drain_ms=5_000.0)
    return run_open_loop(runtime, "bump", _make_sample(), arrivals,
                         config=config, seed=7)


def _shed_run(rate_rps: float) -> tuple[OpenLoopResult, float]:
    """``rate_rps`` for 3 virtual seconds into an 8-slot shed window at
    real latencies (a request is ~63 ms, so the window serves ~120 RPS);
    returns the result and the metered $ per completed request."""
    runtime, _ssf = _bump_runtime(latency_scale=1.0)
    sample = _make_sample()
    arrivals = poisson_arrivals(rate_rps, 3_000.0,
                                RandomSource(7, "overload"))
    before = runtime.store.metering.dollar_cost()
    result = run_open_loop(
        runtime, "bump", lambda rand: sample(rand, "user"), arrivals,
        config=OpenLoopConfig(max_in_flight=8, policy="shed",
                              drain_ms=5_000.0),
        seed=7, duration_ms=3_000.0)
    dollars = runtime.store.metering.dollar_cost() - before
    runtime.kernel.shutdown()
    return result, dollars / result.completed


def test_overload_sheds_without_collapse_at_flat_cost():
    """Ten times what the window can serve: the excess is shed on
    arrival (accounted, never a crash or a timeout), goodput holds at
    what the window serves, and a served request costs what it costs on
    an unsaturated system."""
    calm, calm_cost = _shed_run(40.0)
    assert calm.shed == 0 and calm.errors == 0
    assert calm.completed == calm.offered

    loaded, loaded_cost = _shed_run(1_200.0)
    assert loaded.shed > 0
    assert loaded.errors == 0 and loaded.rejected == 0
    assert loaded.completed + loaded.shed == loaded.offered
    assert loaded.goodput_rps >= 0.7 * calm.goodput_rps
    assert loaded_cost <= 1.25 * calm_cost


def _recover(runtime) -> None:
    elapsed = runtime.kernel.now
    for _ in range(100):
        if all(not intents.pending_intents(env)
               for env in runtime.envs.values()):
            return
        elapsed += 500.0
        runtime.kernel.run(until=elapsed)
    raise AssertionError("unfinished intents survived recovery")


def test_open_loop_crash_sweep_exactly_once():
    """Open-loop mix + CrashOnce at each sampled crash point: after
    intent-collector recovery, the per-user counters account for every
    admitted request exactly once — no lost increments, no replays —
    and the admission window's books balance."""
    runtime, ssf = _bump_runtime()
    recording = RecordingPolicy()
    runtime.platform.crash_policy = recording
    assert runtime.run_workflow("bump", {"user": "warm-0000"}).get("ok")
    runtime.kernel.shutdown()
    points = recording.unique_points()
    assert len(points) > 10, "suspiciously small crash space"
    step = max(1, len(points) // 10)
    sampled = points[::step]

    for function, index, tag in sampled:
        runtime, ssf = _bump_runtime()
        runtime.platform.crash_policy = CrashOnce(
            function, tag, invocation_index=index)
        runtime.start_collectors(ic_period=200.0, gc_period=1e12)
        result = _open_loop_mix(runtime)
        _recover(runtime)
        runtime.stop_collectors()

        n = result.offered
        ok = result.completed
        crashed = result.recorder.total("crashed")
        label = f"{function}@{tag}#{index}"
        assert runtime.platform.stats.injected_crashes == 1, (
            f"{label}: crash point never reached")
        assert crashed == 1, f"{label}: crashed={crashed}"
        assert result.shed == 0 and result.rejected == 0, label
        assert result.recorder.total("timeout") == 0, label
        assert ok + crashed == n, f"{label}: lost requests"
        # Exactly once: every completed request wrote its own row once;
        # the crashed one wrote zero or one rows (zero only when the
        # crash preceded its intent record) — and no row was ever
        # written twice, even after intent-collector re-execution.
        rows = _written_rows(ssf)
        assert all(v == 1 for v in rows), (
            f"{label}: duplicated effect, rows={rows}")
        assert ok <= len(rows) <= ok + crashed, (
            f"{label}: rows={len(rows)} ok={ok} crashed={crashed}")
        # No leaked window capacity either way.
        assert result.admission.admitted == n, label
        runtime.kernel.shutdown()
