"""Figures 14/15/26 driver: application latency vs throughput.

Open-loop constant-rate sweeps over the three applications, Beldi vs the
no-guarantees baseline. The paper runs 100-800 req/s against AWS's
1,000-concurrent-Lambda account cap; we scale both down ~10x (rates and
cap) so each point runs in seconds of wall time — the *shape* (a 2-3x
median gap at low load, a shared saturation knee at the concurrency cap,
converging tails near saturation) is what must reproduce, not absolute
numbers. docs/benchmarks.md records the scaling.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.apps import build_app
from repro.core import BaselineRuntime, BeldiConfig, BeldiRuntime
from repro.platform import PlatformConfig
from repro.workload import run_sweep

DEFAULT_RATES = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0)


def _platform_config(concurrency: int) -> PlatformConfig:
    return PlatformConfig(concurrency_limit=concurrency,
                          default_timeout=60_000.0)


def _build(app_name: str, mode: str, seed: int, concurrency: int,
           app_kwargs: Optional[dict] = None):
    app_kwargs = dict(app_kwargs or {})
    app = build_app(app_name, seed=seed, **app_kwargs)
    if mode == "baseline":
        runtime = BaselineRuntime(
            seed=seed, latency_scale=1.0,
            platform_config=_platform_config(concurrency))
    elif mode == "beldi":
        # Seed-faithful figure: the ``paper`` profile; the post-paper
        # features are gated by their own ablation benches.
        runtime = BeldiRuntime(
            seed=seed, latency_scale=1.0,
            config=BeldiConfig(profile="paper", gc_t=1e12,
                               ic_restart_delay=1e12),
            platform_config=_platform_config(concurrency))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    app.install(runtime)
    return runtime, app.entry, app.sample_request


def app_sweep(app_name: str, mode: str,
              rates: Sequence[float] = DEFAULT_RATES,
              duration_ms: float = 5_000.0,
              warmup_ms: float = 1_000.0,
              concurrency: int = 100,
              seed: int = 71,
              app_kwargs: Optional[dict] = None) -> list[dict]:
    """One mode's latency-vs-throughput curve; a list of report rows."""
    points = run_sweep(
        lambda: _build(app_name, mode, seed, concurrency, app_kwargs),
        rates=rates, duration_ms=duration_ms, warmup_ms=warmup_ms,
        seed=seed)
    return [point.row() for point in points]
