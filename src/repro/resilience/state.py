"""Per-runtime resilience bookkeeping: breakers, deadlines, stats.

One :class:`ResilienceState` lives on each ``BeldiRuntime``; the
:class:`~repro.resilience.wrapper.ResilientStore` handed to every env
consults it. Its random stream is a dedicated ``child("resilience")``
derivation — creating it consumes no parent draws, and it is only drawn
from when a retry actually fires, so the fault-free path stays
bit-for-bit identical to the layer being off.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.resilience.policy import CLOSED, CircuitBreaker, RetryPolicy
from repro.sim.randsrc import RandomSource


@dataclass
class ResilienceStats:
    """Counters the observability snapshot exports under ``resilience``."""

    retries: int = 0
    backoff_ms: float = 0.0
    throttled_errors: int = 0
    unavailable_errors: int = 0
    fast_fails: int = 0
    breaker_opens: int = 0
    breaker_closes: int = 0
    degraded_reads: int = 0
    deadline_aborts: int = 0


class ResilienceState:
    """Breaker registry + per-request deadline table + stats."""

    def __init__(self, kernel, rand: RandomSource,
                 policy: RetryPolicy,
                 breaker_threshold: int = 5,
                 breaker_cooldown: float = 500.0,
                 obs=None) -> None:
        self.kernel = kernel
        self.rand = rand
        self.policy = policy
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.obs = obs
        self.stats = ResilienceStats()
        #: Endpoint -> breaker, made on the endpoint's first failure
        #: (closed and unfailed, a breaker allows every call).
        self.breakers: Dict[object, CircuitBreaker] = {}
        #: Endpoints whose breaker is not closed and unfailed: the only
        #: ones a call's outcome can change.
        self.failing: set = set()
        self._deadlines: Dict[object, float] = {}

    # -- breakers --------------------------------------------------------

    def note_breaker_failure(self, key, now: float) -> None:
        breaker = self.breakers.get(key)
        if breaker is None:
            breaker = self.breakers[key] = CircuitBreaker(
                self.breaker_threshold, self.breaker_cooldown)
        before = breaker.state
        breaker.record_failure(now)
        self.failing.add(key)
        if breaker.state != before:
            self.stats.breaker_opens += 1
            if self.obs is not None:
                self.obs.tracer.event(f"breaker:open:{key}",
                                      cat="resilience", endpoint=str(key))

    def note_breaker_success(self, key) -> None:
        breaker = self.breakers.get(key)
        if breaker is None:
            return
        before = breaker.state
        breaker.record_success()
        self.failing.discard(key)
        if before != CLOSED:
            self.stats.breaker_closes += 1
            if self.obs is not None:
                self.obs.tracer.event(f"breaker:close:{key}",
                                      cat="resilience", endpoint=str(key))

    # -- retries ---------------------------------------------------------

    def note_error(self, err: Exception) -> None:
        from repro.kvstore.errors import UnavailableError

        if isinstance(err, UnavailableError):
            self.stats.unavailable_errors += 1
        else:
            self.stats.throttled_errors += 1

    # -- per-request deadlines ------------------------------------------

    def push_deadline(self, absolute: float):
        """Register the running process's deadline; returns a pop token.

        Keyed by the kernel process so concurrent requests (and nested
        sync invokes, which run in their own processes) keep independent
        budgets. Measured from the *current* invocation's start, not the
        intent's StartTime, so an IC re-run gets a fresh budget and
        recovery always completes — exactly-once is never sacrificed to
        the deadline.
        """
        process = self.kernel.current_process
        previous = self._deadlines.get(process)
        self._deadlines[process] = absolute
        return (process, previous)

    def pop_deadline(self, token) -> None:
        process, previous = token
        if previous is None:
            self._deadlines.pop(process, None)
        else:
            self._deadlines[process] = previous

    def current_deadline(self) -> Optional[float]:
        if not self._deadlines:
            return None
        return self._deadlines.get(self.kernel.current_process)

    # -- reporting -------------------------------------------------------

    def snapshot(self) -> dict:
        snap = asdict(self.stats)
        snap["backoff_ms"] = round(snap["backoff_ms"], 6)
        snap["breakers"] = {
            str(key): breaker.state
            for key, breaker in sorted(self.breakers.items(),
                                       key=lambda kv: str(kv[0]))}
        return snap
