"""Kernel perf-floor gate: the event loop may not quietly regress.

Two micro-benchmarks pin the substrate's raw speed after the
baton-passing dispatch refactor (ISSUE 9):

- **timer storm** — N processes x M sleeps each, nothing but kernel
  handoffs. This is the pure event-loop number; the baton-passing
  kernel measures ~75-90k events/s on dev hardware (~1.8x the
  driver-loop design it replaced).
- **DAAL op loop** — a closed-loop profile workload (one exactly-once
  read + one exactly-once write per request) on a single-shard
  runtime: the end-to-end hot path the open-loop sweep leans on
  (kernel + latency draws + capacity + store + protocol bookkeeping).

The floors sit ~4x under measured dev-hardware numbers so slow CI
runners pass, while an accidental O(n) regression (per-event
allocation creep, a lost fast path) still fails loudly.
Results land in ``BENCH_kernel_speed.json``.
"""

from __future__ import annotations

import time

from conftest import emit, emit_json

from repro.bench.reporting import format_table
from repro.core import BeldiConfig, BeldiRuntime
from repro.platform import PlatformConfig
from repro.sim.kernel import SimKernel
from repro.workload import run_closed_loop

#: events/sec floor for the pure timer storm (dev hardware: ~75-90k).
STORM_FLOOR = 18_000.0
#: requests/sec floor for the DAAL op loop (dev hardware: ~1.5-1.7k).
OP_LOOP_FLOOR = 350.0


def _timer_storm(n_procs: int, n_sleeps: int) -> dict:
    kernel = SimKernel(seed=1)

    def body() -> None:
        sleep = kernel.sleep
        for _ in range(n_sleeps):
            sleep(1.0)

    for i in range(n_procs):
        kernel.spawn(body, name=f"storm-{i}")
    start = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - start
    kernel.shutdown()
    events = n_procs * n_sleeps
    return {
        "procs": n_procs,
        "sleeps": n_sleeps,
        "events": events,
        "seconds": round(elapsed, 3),
        "events_per_sec": events / elapsed,
    }


def _daal_op_loop(n_users: int = 16, requests_per_user: int = 125) -> dict:
    runtime = BeldiRuntime(
        seed=7, latency_scale=1.0, config=BeldiConfig(gc_t=1e12),
        platform_config=PlatformConfig(concurrency_limit=400),
        shards=1)

    def profile(ctx, payload):
        uid = payload["user"]
        record = ctx.read("profiles", uid) or {"visits": 0}
        ctx.write("profiles", uid, {"visits": record["visits"] + 1})
        return record

    ssf = runtime.register_ssf("profile", profile, tables=["profiles"])
    for i in range(n_users):
        ssf.env.seed("profiles", f"u{i}", {"visits": 0})
    start = time.perf_counter()
    result = run_closed_loop(
        runtime, "profile",
        [[{"user": f"u{i}"}] * requests_per_user for i in range(n_users)])
    elapsed = time.perf_counter() - start
    runtime.stop_collectors()
    runtime.kernel.shutdown()
    assert result.failures == 0
    return {
        "users": n_users,
        "completed": result.completed,
        "seconds": round(elapsed, 3),
        "requests_per_sec": result.completed / elapsed,
    }


def test_kernel_speed_floor():
    storms = [_timer_storm(10, 5000), _timer_storm(200, 250),
              _timer_storm(1000, 50)]
    ops = _daal_op_loop()

    rows = [[f"storm {s['procs']}x{s['sleeps']}", s["events"],
             s["seconds"], round(s["events_per_sec"])] for s in storms]
    rows.append([f"daal-ops {ops['users']} users", ops["completed"],
                 ops["seconds"], round(ops["requests_per_sec"])])
    emit("kernel_speed", format_table(
        "Kernel speed — baton-passing dispatch",
        ["workload", "units", "seconds", "units/sec"], rows))
    emit_json("kernel_speed", storms=storms, op_loop=ops,
              floors={"storm_events_per_sec": STORM_FLOOR,
                      "op_loop_requests_per_sec": OP_LOOP_FLOOR})

    # Gate on the *best* storm so a noisy CI core doesn't flake the
    # fleet-size-dependent variants; a real event-loop regression slows
    # every variant at once.
    best_storm = max(s["events_per_sec"] for s in storms)
    assert best_storm >= STORM_FLOOR, (
        f"timer storm at {best_storm:,.0f} events/s — the event loop "
        f"regressed below the {STORM_FLOOR:,.0f} floor")
    assert ops["requests_per_sec"] >= OP_LOOP_FLOOR, (
        f"DAAL op loop at {ops['requests_per_sec']:,.0f} req/s — the "
        f"hot path regressed below the {OP_LOOP_FLOOR:,.0f} floor")
