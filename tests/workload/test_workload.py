"""Tests for the load generator and latency recorder."""

import threading

import pytest

from repro.core import BaselineRuntime, BeldiRuntime
from repro.platform import PlatformConfig
from repro.sim import RandomSource
from repro.workload import (
    LatencyRecorder,
    ZipfSampler,
    run_constant_load,
    run_sweep,
    skewed_keys,
    zipf_weights,
)


class TestZipfSkew:
    def test_same_seed_same_sequence(self):
        """Determinism: the elasticity benchmark's static and elastic
        runs must see the byte-identical request series."""
        first = ZipfSampler(64, 1.1, RandomSource(7, "zipf"))
        second = ZipfSampler(64, 1.1, RandomSource(7, "zipf"))
        assert first.sequence(500) == second.sequence(500)

    def test_different_seed_differs(self):
        first = ZipfSampler(64, 1.1, RandomSource(7, "zipf"))
        second = ZipfSampler(64, 1.1, RandomSource(8, "zipf"))
        assert first.sequence(200) != second.sequence(200)

    def test_weights_shape(self):
        w = zipf_weights(100, 1.1)
        assert len(w) == 100
        assert abs(sum(w) - 1.0) < 1e-9
        # Strictly decreasing by rank, and rank 0 carries the head.
        assert all(a > b for a, b in zip(w, w[1:]))
        assert w[0] == pytest.approx(2 ** 1.1 * w[1])

    def test_s_zero_is_uniform(self):
        w = zipf_weights(10, 0.0)
        assert all(weight == pytest.approx(0.1) for weight in w)

    def test_empirical_distribution_matches_theory(self):
        """Distribution-shape sanity: over many draws, the hot rank's
        empirical share lands near its theoretical weight and the
        frequency ordering follows rank for the head of the curve."""
        n, s = 64, 1.1
        sampler = ZipfSampler(n, s, RandomSource(3, "zipf"))
        counts = [0] * n
        draws = 20_000
        for rank in sampler.sequence(draws):
            counts[rank] += 1
        weights = zipf_weights(n, s)
        assert counts[0] / draws == pytest.approx(weights[0], rel=0.1)
        assert counts[1] / draws == pytest.approx(weights[1], rel=0.15)
        # The head dominates the tail decisively.
        assert counts[0] > 3 * counts[10] > 0

    def test_skewed_keys_maps_ranks_to_keys(self):
        keys = [f"k{i}" for i in range(8)]
        rand = RandomSource(5, "sk")
        picks = skewed_keys(keys, 400, 1.1, rand)
        assert len(picks) == 400
        assert set(picks) <= set(keys)
        from collections import Counter
        histogram = Counter(picks)
        assert histogram["k0"] == max(histogram.values())

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            zipf_weights(0, 1.1)
        with pytest.raises(ValueError):
            zipf_weights(10, -0.5)


class TestLatencyRecorder:
    def test_percentiles(self):
        rec = LatencyRecorder()
        for latency in range(1, 101):
            rec.record(0.0, float(latency))
        assert rec.p50 == 50.0
        assert rec.p99 == 99.0
        assert rec.percentile(100.0) == 100.0

    def test_empty_recorder_is_nan(self):
        import math
        rec = LatencyRecorder()
        assert math.isnan(rec.p50)

    def test_failures_not_in_latency_stats(self):
        rec = LatencyRecorder()
        rec.record(0.0, 10.0, "ok")
        rec.record_failure("rejected")
        assert rec.count == 1
        assert rec.total("rejected") == 1

    def test_time_series_buckets(self):
        rec = LatencyRecorder(bucket_width=100.0)
        rec.record(10.0, 15.0)    # bucket 0, latency 5
        rec.record(50.0, 65.0)    # bucket 0, latency 15
        rec.record(150.0, 160.0)  # bucket 1, latency 10
        series = rec.series(q=50.0)
        assert series == [(0.0, 5.0), (100.0, 10.0)]

    def test_series_requires_bucket_width(self):
        with pytest.raises(ValueError):
            LatencyRecorder().series()


class TestConstantLoad:
    def _runtime(self, scale=1.0, cap=50):
        runtime = BeldiRuntime(
            seed=4, latency_scale=scale,
            platform_config=PlatformConfig(concurrency_limit=cap))
        runtime.register_ssf("echo", lambda ctx, p: p)
        return runtime

    def test_open_loop_offers_requested_rate(self):
        runtime = self._runtime()
        result = run_constant_load(
            runtime, "echo", lambda rand: {"n": rand.randint(0, 9)},
            rate_rps=50.0, duration_ms=2_000.0)
        # 50 rps for 2 virtual seconds ~ 100 requests.
        assert 90 <= result.completed <= 110
        assert result.recorder.p50 > 0
        runtime.kernel.shutdown()

    def test_latency_measured_in_virtual_ms(self):
        runtime = self._runtime()
        result = run_constant_load(
            runtime, "echo", lambda rand: None,
            rate_rps=10.0, duration_ms=1_000.0)
        # A single warm invoke is dominated by the dispatch latency
        # (median ~12 virtual ms) plus cold-start effects early on.
        assert 5.0 <= result.recorder.p50 <= 300.0
        runtime.kernel.shutdown()

    def test_saturation_rejects_clients(self):
        runtime = BeldiRuntime(
            seed=4, latency_scale=1.0,
            platform_config=PlatformConfig(concurrency_limit=2))

        def slow(ctx, payload):
            ctx.sleep(500.0)
            return "ok"

        runtime.register_ssf("slow", slow)
        result = run_constant_load(runtime, "slow", lambda rand: None,
                                   rate_rps=40.0, duration_ms=1_000.0)
        assert result.rejected > 0
        runtime.kernel.shutdown()

    def test_warmup_requests_excluded(self):
        runtime = self._runtime()
        result = run_constant_load(
            runtime, "echo", lambda rand: None,
            rate_rps=20.0, duration_ms=1_000.0, warmup_ms=500.0)
        assert result.completed <= 25  # only the measured second counts
        runtime.kernel.shutdown()

    def test_deterministic_given_seed(self):
        def one_run():
            runtime = self._runtime()
            result = run_constant_load(
                runtime, "echo", lambda rand: rand.randint(0, 99),
                rate_rps=30.0, duration_ms=1_000.0, seed=9)
            runtime.kernel.shutdown()
            return (result.completed, result.recorder.p50,
                    result.recorder.p99)

        assert one_run() == one_run()


class TestSweep:
    def test_sweep_builds_fresh_runtime_per_point(self):
        built = []

        def build():
            runtime = BaselineRuntime(seed=2, latency_scale=1.0)
            runtime.register_ssf("echo", lambda ctx, p: p)
            built.append(runtime)
            return runtime, "echo", lambda rand: None

        points = run_sweep(build, rates=[10.0, 20.0],
                           duration_ms=500.0)
        assert len(points) == 2
        assert len(built) == 2
        assert points[1].result.completed > points[0].result.completed

    def test_rows_are_reportable(self):
        def build():
            runtime = BaselineRuntime(seed=2, latency_scale=1.0)
            runtime.register_ssf("echo", lambda ctx, p: p)
            return runtime, "echo", lambda rand: None

        (point,) = run_sweep(build, rates=[10.0], duration_ms=500.0)
        row = point.row()
        assert set(row) >= {"offered_rps", "achieved_rps", "p50_ms",
                            "p99_ms", "completed", "rejected"}


class TestClosedLoop:
    def _runtime(self, **kwargs):
        runtime = BeldiRuntime(seed=2, latency_scale=1.0, **kwargs)

        def echo(ctx, payload):
            ctx.write("kv", payload["key"], payload["value"])
            return payload["value"]

        ssf = runtime.register_ssf("echo", echo, tables=["kv"])
        return runtime, ssf

    def test_all_requests_complete_and_are_measured(self):
        from repro.workload import run_closed_loop
        runtime, ssf = self._runtime()
        result = run_closed_loop(
            runtime, "echo",
            [[{"key": f"u{u}", "value": k} for k in range(3)]
             for u in range(5)])
        assert result.completed == 15
        assert result.failures == 0
        assert result.makespan_ms > 0
        assert result.throughput_rps > 0
        assert result.recorder.p99 >= result.recorder.p50 > 0
        for u in range(5):
            assert ssf.env.peek("kv", f"u{u}") == 2
        runtime.kernel.shutdown()

    def test_makespan_excludes_watchdog_drain(self):
        """The platform's execution-timeout watchdogs fire long after the
        last user finishes; they must not stretch the makespan."""
        from repro.workload import run_closed_loop
        runtime, _ssf = self._runtime(
            platform_config=PlatformConfig(default_timeout=500_000.0))
        result = run_closed_loop(runtime, "echo",
                                 [[{"key": "a", "value": 1}]])
        assert result.makespan_ms < 100_000.0
        runtime.kernel.shutdown()

    def test_rejections_counted_not_raised(self):
        from repro.workload import run_closed_loop
        runtime, _ssf = self._runtime(
            platform_config=PlatformConfig(concurrency_limit=1))
        # 8 users x 1 request against a 1-slot gateway: most get
        # TooManyRequests, which must surface as counted failures.
        result = run_closed_loop(runtime, "echo",
                                 [[{"key": f"u{u}", "value": 0}]
                                  for u in range(8)])
        assert result.completed + result.failures == 8
        assert result.failures > 0
        runtime.kernel.shutdown()

    def test_returns_while_collectors_are_armed(self):
        """Collector timers re-arm forever; the last user to finish must
        stop them or ``kernel.run()`` never drains. Run on a side thread
        so a regression fails the join instead of hanging CI."""
        from repro.workload import run_closed_loop
        runtime, _ssf = self._runtime()
        runtime.start_collectors(ic_period=1_000.0, gc_period=1_000.0)
        box = {}
        worker = threading.Thread(
            target=lambda: box.update(result=run_closed_loop(
                runtime, "echo",
                [[{"key": "a", "value": k} for k in range(3)]])),
            daemon=True)
        worker.start()
        worker.join(timeout=20.0)
        hung = worker.is_alive()
        if hung:
            runtime.stop_collectors()
            worker.join(timeout=20.0)
        runtime.kernel.shutdown()
        assert not hung, "run_closed_loop did not return"
        assert box["result"].completed == 3
        assert box["result"].makespan_ms < 1_000.0

    def test_an_ordinary_error_is_counted_and_the_loop_still_returns(self):
        """A request that raises something other than a platform failure
        (here a handler bug) is a counted ``error:<Type>`` outcome: its
        user goes on with the rest of its payloads, and the last user out
        still stops the collectors. Side thread, as above."""
        from repro.workload import run_closed_loop
        runtime = BeldiRuntime(seed=2, latency_scale=1.0)

        def echo(ctx, payload):
            if payload["value"] == "boom":
                raise ValueError("handler bug")
            ctx.write("kv", payload["key"], payload["value"])
            return payload["value"]

        ssf = runtime.register_ssf("echo", echo, tables=["kv"])
        runtime.start_collectors(ic_period=1_000.0, gc_period=1_000.0)
        box = {}
        worker = threading.Thread(
            target=lambda: box.update(result=run_closed_loop(
                runtime, "echo",
                [[{"key": "a", "value": v} for v in (0, "boom", 2)],
                 [{"key": "b", "value": v} for v in (0, 1)]])),
            daemon=True)
        worker.start()
        worker.join(timeout=20.0)
        hung = worker.is_alive()
        if hung:
            runtime.stop_collectors()
            worker.join(timeout=20.0)
        runtime.kernel.shutdown()
        assert not hung, "run_closed_loop did not return"
        result = box["result"]
        assert result.failures == 1
        assert result.recorder.total("error:ValueError") == 1
        assert result.completed == 4
        assert ssf.env.peek("kv", "a") == 2  # the payload after the error
        assert ssf.env.peek("kv", "b") == 1
