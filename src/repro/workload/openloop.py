"""Open-loop arrival processes, admission control, and the driver.

The closed-loop runners (:mod:`repro.workload.runner`) measure *capacity*
— N users, at most N in flight. Scale claims need the opposite: an
**open-loop** arrival process that launches requests on schedule whether
or not earlier ones completed (wrk2's model, and the reason saturation
knees are visible at all). This module provides:

- a deterministic **Poisson** arrival generator — a pure function of
  ``(seed, rate, horizon)``, so the same seed always produces the same
  arrival sequence;
- :func:`merge_streams` for multi-class mixes (every class keeps its own
  generator stream; the merge is stable and sorted);
- an **admission window** (:class:`AdmissionWindow`) bounding requests
  in flight, with a shed-vs-queue policy, applied *before* the platform
  gateway — backpressure for when ``ServiceCapacity`` queues saturate.
  Shed, queued and abandoned arrivals are all counted
  (:class:`AdmissionStats`), so overload degrades into *metered*
  shedding rather than an unbounded queue or collapse;
- the open-loop driver (:func:`run_open_loop`): arrivals are scheduled
  at their intended virtual times regardless of completion, and response
  time is measured **from the intended arrival** — queueing delay in the
  admission window counts against the request, so the numbers cannot
  exhibit coordinated omission.

Rate ladders and the saturation knee are not defined here: the one knee
rule is ``knee_of`` in ``perfbench/workloads.py`` (workload
``profile-ladder``), which wraps :func:`run_open_loop`.

Times are virtual milliseconds; rates are requests per virtual second.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.platform.errors import (
    FunctionCrashed,
    FunctionTimeout,
    TooManyRequests,
)
from repro.sim.kernel import SimKernel
from repro.sim.randsrc import RandomSource
from repro.workload.recorder import LatencyRecorder


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------

def poisson_arrivals(rate_rps: float, duration_ms: float,
                     rand: RandomSource) -> list[float]:
    """Arrival times of a Poisson process at ``rate_rps`` over the horizon.

    Inter-arrival gaps are exponential draws from ``rand``, so the
    sequence is a pure function of the random stream: same seed, same
    arrivals. Times are in ``[0, duration_ms)``, strictly increasing.
    """
    if rate_rps <= 0:
        raise ValueError(f"rate must be positive, got {rate_rps}")
    if duration_ms < 0:
        raise ValueError(f"negative horizon: {duration_ms}")
    rate_per_ms = rate_rps / 1000.0
    expovariate = rand.expovariate
    out: list[float] = []
    t = expovariate(rate_per_ms)
    while t < duration_ms:
        out.append(t)
        t += expovariate(rate_per_ms)
    return out


def merge_streams(
        streams: Sequence[tuple[str, Sequence[float]]]
) -> list[tuple[float, str]]:
    """Merge per-class arrival streams into one sorted ``(time, class)``.

    Stable: at equal times, classes fire in the order given (heapq.merge
    on ``(time, stream index)``), so the merged order is deterministic
    even under ties.
    """
    # Eager lists: a generator here would close over index/name lazily
    # and tag every stream with the last class once merge() consumes it.
    tagged = [[(t, index, name) for t in times]
              for index, (name, times) in enumerate(streams)]
    return [(t, name) for t, _idx, name in heapq.merge(*tagged)]


# ---------------------------------------------------------------------------
# admission control / backpressure
# ---------------------------------------------------------------------------

@dataclass
class AdmissionStats:
    """Accounting for one admission window's lifetime."""

    admitted: int = 0
    shed: int = 0
    queued: int = 0          # admissions that waited before entering
    abandoned: int = 0       # queued waiters killed before admission
    max_in_flight: int = 0
    max_queue_depth: int = 0


class AdmissionWindow:
    """Bounded in-flight window with a shed-vs-queue policy.

    ``policy="shed"`` rejects an arrival immediately when ``max_in_flight``
    requests are already inside. ``policy="queue"`` parks up to
    ``max_queue`` arrivals in FIFO order (still counting their wait
    against *their* response time — the caller measures from intended
    arrival) and sheds beyond that. Slot handoff is FIFO and happens
    through kernel events, so the admission order is deterministic for a
    given schedule.
    """

    def __init__(self, kernel: SimKernel, max_in_flight: int,
                 policy: str = "shed", max_queue: int = 0) -> None:
        if max_in_flight <= 0:
            raise ValueError(
                f"need a positive in-flight bound, got {max_in_flight}")
        if policy not in ("shed", "queue"):
            raise ValueError(f"unknown policy: {policy!r}")
        if max_queue < 0:
            raise ValueError(f"negative queue bound: {max_queue}")
        self.kernel = kernel
        self.max_in_flight = max_in_flight
        self.policy = policy
        self.max_queue = max_queue
        self.in_flight = 0
        self.stats = AdmissionStats()
        self._waiters: deque = deque()

    def try_enter(self) -> bool:
        """Claim a slot; blocks only under ``policy="queue"``.

        Returns False when the request is shed. Must be called from a
        simulated process. A queued waiter killed before admission gives
        its (possibly already handed-over) slot back, so crash sweeps
        cannot leak window capacity.
        """
        stats = self.stats
        if self.in_flight < self.max_in_flight:
            self.in_flight += 1
            stats.admitted += 1
            if self.in_flight > stats.max_in_flight:
                stats.max_in_flight = self.in_flight
            return True
        if self.policy == "shed" or len(self._waiters) >= self.max_queue:
            stats.shed += 1
            return False
        event = self.kernel.event("admit")
        self._waiters.append(event)
        depth = len(self._waiters)
        if depth > stats.max_queue_depth:
            stats.max_queue_depth = depth
        stats.queued += 1
        try:
            self.kernel.wait(event)
        except BaseException:
            stats.abandoned += 1
            if event.is_set:
                # The slot was already handed to us; pass it on so the
                # window never leaks capacity.
                self._release()
            else:
                try:
                    self._waiters.remove(event)
                except ValueError:  # pragma: no cover - defensive
                    pass
            raise
        # Slot handed over by the leaver: in_flight was never decremented.
        stats.admitted += 1
        return True

    def leave(self) -> None:
        """Release a slot, handing it to the longest-queued waiter."""
        self._release()

    def _release(self) -> None:
        if self._waiters:
            self._waiters.popleft().set()
        else:
            self.in_flight -= 1


# ---------------------------------------------------------------------------
# the open-loop driver
# ---------------------------------------------------------------------------

@dataclass
class OpenLoopConfig:
    """Knobs for one open-loop run."""

    max_in_flight: int = 64
    policy: str = "shed"
    max_queue: int = 0
    warmup_ms: float = 0.0
    drain_ms: float = 30_000.0
    #: Arrivals are materialized into kernel entries in windows of this
    #: width, so a million-request run never holds a million pending
    #: process objects at once.
    spawn_window_ms: float = 2_000.0


@dataclass
class OpenLoopResult:
    """Outcome of one open-loop run at a fixed offered rate."""

    offered_rps: float
    duration_ms: float
    recorder: LatencyRecorder = field(default_factory=LatencyRecorder)
    admission: AdmissionStats = field(default_factory=AdmissionStats)
    offered: int = 0           # arrivals inside the measured window

    @property
    def completed(self) -> int:
        return self.recorder.count

    @property
    def goodput_rps(self) -> float:
        """Successful completions per second of offered (measured) time."""
        if self.duration_ms <= 0:
            return 0.0
        return self.completed / (self.duration_ms / 1000.0)

    @property
    def shed(self) -> int:
        return self.recorder.total("shed")

    @property
    def rejected(self) -> int:
        return self.recorder.total("rejected")

    @property
    def errors(self) -> int:
        return (self.recorder.total("crashed")
                + self.recorder.total("timeout")
                + sum(count for outcome, count
                      in self.recorder.outcomes.items()
                      if outcome.startswith("error:")))

    def row(self) -> dict:
        has = bool(self.recorder.samples)
        return {
            "offered_rps": self.offered_rps,
            "goodput_rps": round(self.goodput_rps, 1),
            "p50_ms": round(self.recorder.p50, 1) if has else None,
            "p95_ms": round(self.recorder.percentile(95.0), 1)
            if has else None,
            "p99_ms": round(self.recorder.p99, 1) if has else None,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "rejected": self.rejected,
            "errors": self.errors,
        }


def run_open_loop(runtime: Any, entry: str,
                  sample: Callable[..., Any],
                  arrivals: Sequence[Any],
                  config: Optional[OpenLoopConfig] = None,
                  seed: int = 0,
                  offered_rps: float = 0.0,
                  duration_ms: Optional[float] = None) -> OpenLoopResult:
    """Drive ``arrivals`` through a runtime's gateway, open loop.

    ``arrivals`` holds relative virtual times (ms), or ``(time, tag)``
    pairs from :func:`merge_streams` — tagged arrivals call
    ``sample(rand, tag)`` instead of ``sample(rand)``.

    Every request is launched at its scheduled arrival time no matter
    what earlier requests are doing, and its response time runs from
    that *intended* arrival — admission queueing included — so a slow
    system shows up as latency, never as a thinner arrival stream
    (no coordinated omission). Arrivals during ``warmup_ms`` execute
    unrecorded.
    """
    cfg = config or OpenLoopConfig()
    kernel: SimKernel = runtime.kernel
    window = AdmissionWindow(kernel, cfg.max_in_flight,
                             policy=cfg.policy, max_queue=cfg.max_queue)
    normalized: list[tuple[float, Any]] = [
        (item, None) if not isinstance(item, tuple) else item
        for item in arrivals]
    horizon = normalized[-1][0] if normalized else 0.0
    if duration_ms is None:
        duration_ms = max(horizon, cfg.warmup_ms) - cfg.warmup_ms
    result = OpenLoopResult(offered_rps=offered_rps, duration_ms=duration_ms,
                            admission=window.stats)
    recorder = result.recorder
    request_rand = RandomSource(seed, "openloop/requests")
    base = kernel.now
    warmup = cfg.warmup_ms

    def client(at: float, payload: Any, recorded: bool) -> None:
        if not window.try_enter():
            if recorded:
                recorder.record_failure("shed", at=at - warmup)
            return
        try:
            runtime.client_call(entry, payload)
            if recorded:
                # Latency runs from the intended arrival: kernel.now
                # already includes any admission-queue wait.
                recorder.record(at - warmup, kernel.now - base - warmup)
        except TooManyRequests:
            if recorded:
                recorder.record_failure("rejected", at=at - warmup)
        except FunctionCrashed:
            if recorded:
                recorder.record_failure("crashed", at=at - warmup)
        except FunctionTimeout:
            if recorded:
                recorder.record_failure("timeout", at=at - warmup)
        except Exception as exc:
            # Injected-environment errors (outage, throttle burst,
            # deadline abort) surface raw when the resilience budget is
            # exhausted — or immediately with the layer off. An open
            # loop must keep offering load through an incident, so any
            # failure becomes a labeled outcome instead of killing the
            # client process.
            if recorded:
                recorder.record_failure(
                    f"error:{type(exc).__name__}", at=at - warmup)
        finally:
            window.leave()

    spawn = kernel.spawn
    window_ms = cfg.spawn_window_ms
    index, total = 0, len(normalized)
    boundary = window_ms
    while index < total:
        while index < total and normalized[index][0] < boundary:
            at, tag = normalized[index]
            recorded = at >= warmup
            if recorded:
                result.offered += 1
            payload = (sample(request_rand) if tag is None
                       else sample(request_rand, tag))
            spawn(client, at, payload, recorded,
                  name="ol-client", delay=base + at - kernel.now)
            index += 1
        kernel.run(until=min(base + boundary, base + horizon))
        boundary += window_ms
    # Bounded drain for in-flight stragglers (platform watchdogs may hold
    # timers forever, so an unbounded run() is not an option).
    kernel.run(until=base + horizon + cfg.drain_ms)
    return result
