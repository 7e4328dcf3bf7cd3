"""Goodput through an incident: the resilience layer's money figure.

One open-loop run at a sub-knee rate against the 2-shard topology, with
shard 0 dark for ~20% of the measured window — four times over, crossing
``resilience`` on/off with incident/fault-free:

========= ============ ==========================================
run        timeline     what it shows
========= ============ ==========================================
incident   on           retries + breaker ride out the window
baseline   on           the outage-free reference curve
raw        off          every shard-0 touch dies raw mid-window
raw-clean  off          the without="resilience" cost reference
========= ============ ==========================================

Goodput and latency are sliced **by arrival phase** (pre / during /
post the dark window, from the recorder's timestamped events), so a
request that arrives mid-incident and completes after the heal is
credited to the incident — exactly the wrk2-style accounting the
open-loop driver exists for. The gates
(``benchmarks/test_resilience.py``):

- goodput for arrivals *during* the outage: resilience on >= 3x off;
- post-recovery p99 bounded by a small multiple of the fault-free p99
  (the backlog must drain, not smear into the rest of the run);
- fault-free $/op with the layer on within 10% of the layer off (it is
  bit-for-bit identical, so this is an equality in practice).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core import BeldiConfig, BeldiRuntime
from repro.kvstore import FaultTimeline
from repro.obs.report import format_table
from repro.platform import PlatformConfig
from repro.sim.randsrc import RandomSource
from repro.workload import (
    OpenLoopConfig,
    poisson_arrivals,
    run_open_loop,
)

RATE_RPS = 60.0
DURATION_MS = 20_000.0
WARMUP_MS = 1_000.0
N_KEYS = 256
SHARDS = 2
SEED = 11
#: Dark window in measured time: 20% of the run, landed after the warm
#: phase has stabilized.
OUTAGE_MS = (0.25 * DURATION_MS, 0.45 * DURATION_MS)
MAX_IN_FLIGHT = 256
MAX_QUEUE = 512

#: Incident-scale retry knobs: cumulative backoff must span the dark
#: window (seconds), and the breaker must re-probe often enough that a
#: healed store is noticed before the retry budget drains on fast-fails.
RESILIENCE_KNOBS = dict(
    retry_max_attempts=12,
    retry_base_backoff=25.0,
    breaker_cooldown=250.0,
)


def build_runtime(seed: int = SEED, resilience: bool = True,
                  timeline: FaultTimeline | None = None
                  ) -> tuple[BeldiRuntime, str, Callable[..., Any]]:
    """Fresh 2-shard runtime + the profile app."""
    knobs = RESILIENCE_KNOBS if resilience else {}
    runtime = BeldiRuntime(
        seed=seed, latency_scale=1.0,
        config=BeldiConfig(gc_t=1e12,
                           without=None if resilience else "resilience",
                           **knobs),
        platform_config=PlatformConfig(concurrency_limit=2_000),
        shards=SHARDS, fault_timeline=timeline)

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


def _phase_row(recorder, start: float, end: float) -> dict:
    sub = recorder.window(start, end)
    seconds = (end - start) / 1000.0
    has = bool(sub.samples)
    return {
        "window_ms": [start, end],
        "arrivals": len(sub.events),
        "completed": sub.count,
        "goodput_rps": round(sub.count / seconds, 2) if seconds else 0.0,
        "p50_ms": round(sub.p50, 1) if has else None,
        "p99_ms": round(sub.p99, 1) if has else None,
        "failed": {k: v for k, v in sorted(sub.outcomes.items())
                   if k != "ok"},
    }


def run_once(resilience: bool, dark: bool) -> dict:
    """One open-loop run, phase-sliced around the (optional) outage."""
    t0, t1 = OUTAGE_MS
    timeline = None
    if dark:
        # Absolute virtual times: the driver starts at ~0, arrivals are
        # offset by the warmup, so a measured-time window [t0, t1)
        # means an absolute window shifted by the warmup.
        timeline = FaultTimeline().outage(WARMUP_MS + t0, WARMUP_MS + t1,
                                          shards=0)
    runtime, entry, sample = build_runtime(SEED, resilience=resilience,
                                           timeline=timeline)
    cost_before = runtime.store.metering.dollar_cost()
    arrivals = poisson_arrivals(
        RATE_RPS, WARMUP_MS + DURATION_MS,
        RandomSource(SEED, f"resilience/arrivals/{RATE_RPS}"))
    config = OpenLoopConfig(max_in_flight=MAX_IN_FLIGHT, policy="queue",
                            max_queue=MAX_QUEUE, warmup_ms=WARMUP_MS)
    result = run_open_loop(runtime, entry, sample, arrivals,
                           config=config, seed=SEED, offered_rps=RATE_RPS,
                           duration_ms=DURATION_MS)
    dollars = runtime.store.metering.dollar_cost() - cost_before
    recorder = result.recorder
    run = {
        "resilience": resilience,
        "dark": dark,
        "overall": dict(result.row()),
        "dollars_per_op": dollars / max(1, result.completed),
        "phases": {
            "pre": _phase_row(recorder, 0.0, t0),
            "during": _phase_row(recorder, t0, t1),
            "post": _phase_row(recorder, t1, DURATION_MS),
        },
    }
    if runtime.resilience is not None:
        run["resilience_stats"] = runtime.resilience.snapshot()
    runtime.stop_collectors()
    runtime.kernel.shutdown()
    return run


def run_figure() -> dict:
    runs = {
        "incident": run_once(True, True),
        "raw": run_once(False, True),
        "baseline": run_once(True, False),
        "raw_clean": run_once(False, False),
    }
    during_on = runs["incident"]["phases"]["during"]["goodput_rps"]
    during_off = runs["raw"]["phases"]["during"]["goodput_rps"]
    return {
        "runs": runs,
        "goodput_ratio_during_outage": (
            round(during_on / during_off, 2) if during_off
            else float("inf")),
        "post_p99_ms": runs["incident"]["phases"]["post"]["p99_ms"],
        "fault_free_p99_ms": runs["baseline"]["overall"]["p99_ms"],
        "cost_overhead": (
            runs["baseline"]["dollars_per_op"]
            / runs["raw_clean"]["dollars_per_op"] - 1.0),
        "config": {
            "rate_rps": RATE_RPS,
            "duration_ms": DURATION_MS,
            "warmup_ms": WARMUP_MS,
            "outage_ms": list(OUTAGE_MS),
            "shards": SHARDS,
            "n_keys": N_KEYS,
            "max_in_flight": MAX_IN_FLIGHT,
            "max_queue": MAX_QUEUE,
            "knobs": dict(RESILIENCE_KNOBS),
            "seed": SEED,
        },
    }


def figure_table(figure: dict) -> str:
    rows = []
    for name, run in figure["runs"].items():
        for phase in ("pre", "during", "post"):
            row = run["phases"][phase]
            rows.append([
                name, phase,
                row["goodput_rps"],
                row["p50_ms"],
                row["p99_ms"],
                sum(row["failed"].values()),
            ])
    title = (f"Resilience under a dark shard — "
             f"goodput(during) on/off = "
             f"{figure['goodput_ratio_during_outage']}x, "
             f"$/op overhead = {figure['cost_overhead'] * 100:.2f}%")
    return format_table(
        title, ["run", "phase", "goodput", "p50 ms", "p99 ms", "failed"],
        rows)
