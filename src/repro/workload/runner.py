"""Experiment runners: constant-rate points, rate sweeps, closed loops."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.sim.randsrc import RandomSource
from repro.workload.generator import LoadGenerator, LoadResult
from repro.workload.recorder import LatencyRecorder


@dataclass
class SweepPoint:
    rate: float
    result: LoadResult

    def row(self) -> dict:
        return self.result.row()


@dataclass
class ClosedLoopResult:
    """Outcome of one parallel multi-user closed-loop run."""

    makespan_ms: float
    failures: int
    recorder: LatencyRecorder = field(default_factory=LatencyRecorder)

    @property
    def completed(self) -> int:
        return self.recorder.count

    @property
    def throughput_rps(self) -> float:
        if self.makespan_ms <= 0:
            return 0.0
        return self.completed / (self.makespan_ms / 1000.0)

    def row(self) -> dict:
        return {
            "completed": self.completed,
            "failures": self.failures,
            "makespan_ms": round(self.makespan_ms, 1),
            "throughput_rps": round(self.throughput_rps, 1),
            "p50_ms": round(self.recorder.p50, 1)
            if self.recorder.samples else None,
            "p95_ms": round(self.recorder.percentile(95.0), 1)
            if self.recorder.samples else None,
            "p99_ms": round(self.recorder.p99, 1)
            if self.recorder.samples else None,
        }


def run_closed_loop(runtime: Any, entry: str,
                    user_payloads: Sequence[Sequence[Any]]
                    ) -> ClosedLoopResult:
    """Parallel multi-user closed loop: one client process per user,
    each issuing its payload sequence back-to-back through the gateway.

    Closed-loop (think-time-free) clients expose *capacity*: with N
    users the system sees at most N in-flight requests, and throughput
    over the makespan measures how fast the backend can actually serve
    them — the measurement shard scaling is judged by, complementing the
    open-loop generator's saturation knees. The makespan ends when the
    last user finishes; platform watchdog events draining afterwards are
    not workload time, and the last user to finish stops the runtime's
    collector timers so the kernel can drain at all. Failures are
    counted, not raised: platform-level ones (crash, timeout, rejection)
    only in ``failures``, any other error also as an ``error:<Type>``
    outcome of the recorder, and the user goes on with its next payload.
    """
    from repro.platform.errors import (FunctionCrashed, FunctionTimeout,
                                       TooManyRequests)
    result = ClosedLoopResult(makespan_ms=0.0, failures=0)
    finished_at = [0.0]
    remaining = [len(user_payloads)]

    def user(payloads: Sequence[Any]) -> None:
        try:
            for payload in payloads:
                start = runtime.kernel.now
                try:
                    runtime.client_call(entry, payload)
                except (FunctionCrashed, FunctionTimeout, TooManyRequests):
                    result.failures += 1
                    continue
                except Exception as exc:
                    result.failures += 1
                    result.recorder.record_failure(
                        f"error:{type(exc).__name__}")
                    continue
                result.recorder.record(start, runtime.kernel.now)
        finally:
            finished_at[0] = max(finished_at[0], runtime.kernel.now)
            remaining[0] -= 1
            if remaining[0] == 0:
                runtime.stop_collectors()

    start = runtime.kernel.now
    for index, payloads in enumerate(user_payloads):
        runtime.kernel.spawn(user, list(payloads), name=f"user-{index}")
    runtime.kernel.run()
    result.makespan_ms = finished_at[0] - start
    return result


def run_constant_load(runtime: Any, entry: str,
                      sample: Callable[[RandomSource], Any],
                      rate_rps: float, duration_ms: float,
                      warmup_ms: float = 0.0,
                      seed: int = 0,
                      bucket_width: Optional[float] = None) -> LoadResult:
    """One constant-rate measurement against a runtime's gateway."""
    generator = LoadGenerator(
        runtime.kernel,
        submit=lambda payload: runtime.client_call(entry, payload),
        sample=sample,
        rand=RandomSource(seed, "load"),
        bucket_width=bucket_width)
    return generator.run(rate_rps, duration_ms, warmup_ms=warmup_ms)


def run_sweep(build: Callable[[], tuple[Any, str,
                                        Callable[[RandomSource], Any]]],
              rates: Iterable[float], duration_ms: float,
              warmup_ms: float = 0.0, seed: int = 0) -> list[SweepPoint]:
    """Latency-vs-throughput sweep (Figures 14/15/26 shape).

    ``build`` constructs a **fresh** runtime+app per rate point — matching
    the paper's methodology of measuring each offered load from a clean
    system rather than reusing a warmed, possibly saturated one.
    """
    points = []
    for rate in rates:
        runtime, entry, sample = build()
        result = run_constant_load(runtime, entry, sample, rate,
                                   duration_ms, warmup_ms=warmup_ms,
                                   seed=seed)
        points.append(SweepPoint(rate=rate, result=result))
        runtime.stop_collectors()
        runtime.kernel.shutdown()
    return points
