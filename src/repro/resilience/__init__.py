"""Client-side resilience: retry, backoff, deadlines, circuit breaking.

The layer between Beldi's protocols and the store substrate that turns
*injected-environment* failures (throttles, scheduled outages — see
:mod:`repro.kvstore.faults`) into bounded retries, fast-fails, and
degraded reads instead of dead requests. Everything is behind
``BeldiConfig``'s ``resilience`` feature (on in the ``current`` profile)
and deterministic: jitter draws from a dedicated seeded child stream
only when a retry actually fires, so the fault-free path is bit-for-bit
identical without it (golden-pinned). See ``docs/resilience.md``.
"""

from repro.resilience.policy import CircuitBreaker, RetryPolicy
from repro.resilience.state import ResilienceState, ResilienceStats
from repro.resilience.wrapper import ResilientStore

__all__ = [
    "CircuitBreaker",
    "ResilienceState",
    "ResilienceStats",
    "ResilientStore",
    "RetryPolicy",
]
