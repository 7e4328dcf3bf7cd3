"""Open-loop latency-vs-offered-RPS curves at the deep topology.

The scale figure the closed-loop benches cannot produce: a target-RPS
sweep with Poisson arrivals launched on schedule regardless of
completion (no coordinated omission — see
:mod:`repro.workload.openloop`), against the sharded + replicated +
elastic runtime. Each offered rate reports goodput, p50/p95/p99
measured from the *intended* arrival, shed/rejected counts from the
admission window, and $/op from the store's metering books; the sweep
ends past the saturation knee so :func:`repro.workload.find_knee` can
identify it.

The default sweep offers >= 10^5 simulated requests in total (the
ROADMAP's "million-user" scale step; beyond-knee points are cheap
because shed arrivals never reach the backend), and exists in a
CI-smoke size via ``run_sweep(rates=..., duration_ms=...)``.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.bench.reporting import format_table
from repro.core import BeldiConfig, BeldiRuntime
from repro.platform import PlatformConfig
from repro.sim.randsrc import RandomSource
from repro.workload import (
    OpenLoopConfig,
    poisson_arrivals,
    run_open_loop,
)

#: Offered rates (requests per virtual second). The tail rates sit far
#: past saturation so the knee is bracketed, not extrapolated.
RATES = (50.0, 100.0, 150.0, 200.0, 300.0, 450.0, 700.0, 1000.0, 1500.0)
DURATION_MS = 25_000.0
WARMUP_MS = 1_000.0
N_KEYS = 256
SHARDS = 4
REPLICAS = 2
SHARD_CAPACITY = 2
MAX_IN_FLIGHT = 64
MAX_QUEUE = 128


def build_runtime(seed: int = 11) -> tuple[BeldiRuntime, str,
                                           Callable[..., Any]]:
    """Fresh sharded/replicated/elastic runtime + the profile app."""
    runtime = BeldiRuntime(
        seed=seed, latency_scale=1.0,
        config=BeldiConfig(gc_t=1e12),
        platform_config=PlatformConfig(concurrency_limit=400),
        shards=SHARDS, shard_capacity=SHARD_CAPACITY, replicas=REPLICAS)

    def profile(ctx, payload):
        uid = payload["user"]
        record = ctx.read("profiles", uid) or {"visits": 0}
        record = {"visits": record["visits"] + 1}
        ctx.write("profiles", uid, record)
        return {"user": uid, "visits": record["visits"]}

    ssf = runtime.register_ssf("profile", profile, tables=["profiles"])
    for i in range(N_KEYS):
        ssf.env.seed("profiles", f"user-{i:04d}", {"visits": 0})

    def sample(rand: RandomSource) -> dict:
        return {"user": f"user-{rand.randint(0, N_KEYS - 1):04d}"}

    return runtime, "profile", sample


def run_point(rate: float, duration_ms: float = DURATION_MS,
              warmup_ms: float = WARMUP_MS, seed: int = 11) -> dict:
    """One offered rate from a clean system, with $/op metering."""
    runtime, entry, sample = build_runtime(seed)
    cost_before = runtime.store.metering.dollar_cost()
    arrivals = poisson_arrivals(
        rate, warmup_ms + duration_ms,
        RandomSource(seed, f"openloop/arrivals/{rate}"))
    config = OpenLoopConfig(max_in_flight=MAX_IN_FLIGHT, policy="queue",
                            max_queue=MAX_QUEUE, warmup_ms=warmup_ms)
    result = run_open_loop(runtime, entry, sample, arrivals,
                           config=config, seed=seed, offered_rps=rate,
                           duration_ms=duration_ms)
    dollars = runtime.store.metering.dollar_cost() - cost_before
    point = dict(result.row())
    point["arrivals"] = len(arrivals)
    point["dollars_per_op"] = dollars / max(1, result.completed)
    point["queued"] = result.admission.queued
    point["max_queue_depth"] = result.admission.max_queue_depth
    runtime.stop_collectors()
    runtime.kernel.shutdown()
    return point


def run_sweep(rates=RATES, duration_ms: float = DURATION_MS,
              warmup_ms: float = WARMUP_MS, seed: int = 11) -> dict:
    """The full curve + knee; ``points`` rows are JSON-ready."""
    points = [run_point(rate, duration_ms, warmup_ms, seed)
              for rate in rates]
    knee = _knee_from_rows(points)
    return {
        "points": points,
        "knee": knee,
        "total_arrivals": sum(p["arrivals"] for p in points),
        "config": {
            "rates": list(rates),
            "duration_ms": duration_ms,
            "warmup_ms": warmup_ms,
            "shards": SHARDS,
            "replicas": REPLICAS,
            "shard_capacity": SHARD_CAPACITY,
            "max_in_flight": MAX_IN_FLIGHT,
            "max_queue": MAX_QUEUE,
            "seed": seed,
        },
    }


def _knee_from_rows(points: list[dict],
                    latency_factor: float = 3.0,
                    goodput_floor: float = 0.95) -> dict:
    """find_knee over already-summarized rows (same rules, row inputs)."""
    baseline_p99 = points[0]["p99_ms"]
    knee = None
    saturated_at = None
    for point in points:
        offered = point["offered_rps"]
        p99 = point["p99_ms"]
        goodput_ok = point["completed"] >= goodput_floor * point["offered"]
        latency_ok = (baseline_p99 is not None and p99 is not None
                      and p99 <= latency_factor * baseline_p99)
        if goodput_ok and latency_ok:
            knee = offered
        elif saturated_at is None:
            saturated_at = offered
    return {
        "knee_rps": knee,
        "saturated_at": saturated_at,
        "baseline_p99_ms": baseline_p99,
    }


def sweep_table(sweep: dict) -> str:
    rows = []
    for point in sweep["points"]:
        rows.append([
            point["offered_rps"],
            point["goodput_rps"],
            point["p50_ms"],
            point["p95_ms"],
            point["p99_ms"],
            point["shed"],
            point["errors"],
            f"{point['dollars_per_op']:.2e}",
        ])
    knee = sweep["knee"]
    title = (f"Open-loop sweep — {SHARDS} shards x {REPLICAS} replicas, "
             f"elastic, window={MAX_IN_FLIGHT}/queue={MAX_QUEUE}; "
             f"knee ~ {knee['knee_rps']} RPS "
             f"(saturated at {knee['saturated_at']})")
    return format_table(
        title,
        ["offered", "goodput", "p50 ms", "p95 ms", "p99 ms", "shed",
         "errors", "$/op"], rows)


def main() -> None:  # pragma: no cover - manual driver
    sweep = run_sweep()
    print(sweep_table(sweep))


if __name__ == "__main__":  # pragma: no cover
    main()
