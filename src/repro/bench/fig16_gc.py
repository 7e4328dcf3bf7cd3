"""Figure 16 driver: the effect of garbage collection over time.

A single SSF performs one write to one hot key per request, at constant
load, for a long window. Without GC the linked DAAL grows without bound
and the write's scan+projection traversal slows proportionally; with the
GC triggered every 1/10/30 (scaled) minutes the chain stays bounded; the
cross-table variant has no chain at all but pays the transactional write
premium on every operation.

The paper runs 60 real minutes; we run a 10x-scaled 6 virtual minutes
with the trigger periods scaled the same way, reporting the median write
latency per time bucket — the same series the figure plots.
"""

from __future__ import annotations

from typing import Optional

from repro.core import BeldiConfig, BeldiRuntime
from repro.platform import PlatformConfig
from repro.workload import run_constant_load

HOT_KEY = "hot"


def gc_timeseries(gc_period_ms: Optional[float],
                  mode: str = "daal",
                  duration_ms: float = 360_000.0,
                  bucket_ms: float = 30_000.0,
                  rate_rps: float = 20.0,
                  gc_t_ms: float = 5_000.0,
                  seed: int = 55) -> dict:
    """One configuration's median-write-latency time series.

    gc_period_ms:
        Trigger period for the GC SSF; ``None`` disables collection (the
        paper's "without GC" line).
    mode:
        ``"daal"`` or ``"crosstable"`` storage.
    """
    # Seed-faithful figure: the ``paper`` profile, so the GC cost curves
    # match §7.3.
    runtime = BeldiRuntime(
        seed=seed, latency_scale=1.0,
        config=BeldiConfig(profile="paper", gc_t=gc_t_ms,
                           ic_restart_delay=1e12),
        platform_config=PlatformConfig(concurrency_limit=100))

    def writer(ctx, payload):
        ctx.write("kv", HOT_KEY, payload)
        return "ok"

    ssf = runtime.register_ssf("writer", writer, tables=["kv"],
                               storage_mode=mode)
    ssf.env.seed("kv", HOT_KEY, 0)
    if gc_period_ms is not None:
        runtime.start_collectors(ic_period=1e12, gc_period=gc_period_ms,
                                 envs=[ssf.env])
    result = run_constant_load(
        runtime, "writer", lambda rand: rand.randint(0, 1_000_000),
        rate_rps=rate_rps, duration_ms=duration_ms,
        seed=seed, bucket_width=bucket_ms)
    from repro.core import daal
    if mode == "daal":
        final_chain = daal.chain_length(
            ssf.env.store, ssf.env.data_table("kv"), HOT_KEY)
    else:
        final_chain = 1
    runtime.stop_collectors()
    runtime.kernel.shutdown()
    return {
        "series": result.recorder.series(q=50.0),
        "final_chain_rows": final_chain,
        "completed": result.completed,
        "p50": result.recorder.p50,
        "p99": result.recorder.p99,
    }
