"""Retry and circuit-breaker policies (pure state machines).

Deterministic by construction: backoff jitter draws from a seeded
:class:`~repro.sim.randsrc.RandomSource` child stream that is only
consulted when a retry actually happens, and the breaker is a pure
function of the virtual-time failure history — so a fault-free run
makes zero draws and is bit-for-bit identical with the layer off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.randsrc import RandomSource


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with multiplicative jitter.

    Attempt ``n`` (1-based) sleeps ``base_backoff * 2**(n-1)`` capped at
    ``max_backoff``, then scaled by ``1 - jitter * U[0, 1)`` so
    concurrent retries decorrelate instead of thundering back in
    lockstep. ``max_attempts`` bounds the total tries (first attempt
    included); the last failure re-raises unchanged.
    """

    max_attempts: int = 6
    base_backoff: float = 10.0
    max_backoff: float = 2_000.0
    jitter: float = 0.5

    def backoff(self, attempt: int, rand: RandomSource) -> float:
        delay = min(self.base_backoff * (2.0 ** (attempt - 1)),
                    self.max_backoff)
        if self.jitter > 0:
            delay *= 1.0 - self.jitter * rand.random()
        return delay


#: Breaker states: closed (normal), half_open (probing), open (dark).
CLOSED = "closed"
HALF_OPEN = "half_open"
OPEN = "open"


class CircuitBreaker:
    """Trip → fast-fail → half-open probe, per store endpoint.

    ``threshold`` consecutive :class:`UnavailableError`\\ s open the
    breaker; while open, callers fast-fail without paying a store round
    trip. After ``cooldown`` virtual ms the next caller is let through
    as a half-open probe: success closes the breaker, failure re-opens
    it for another cooldown. Throttles never trip it — they are
    transient per-request rejections, not endpoint death.
    """

    __slots__ = ("threshold", "cooldown", "state", "consecutive_failures",
                 "opened_at")

    def __init__(self, threshold: int = 5,
                 cooldown: float = 500.0) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None

    def allow(self, now: float) -> bool:
        """May a caller attempt the endpoint right now?"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now >= (self.opened_at or 0.0) + self.cooldown:
                self.state = HALF_OPEN
                return True
            return False
        return True  # half-open: probes pass

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or (
                self.state == CLOSED
                and self.consecutive_failures >= self.threshold):
            self.state = OPEN
            self.opened_at = now

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = CLOSED
