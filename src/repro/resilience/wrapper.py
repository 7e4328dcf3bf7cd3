"""The retrying store facade every Beldi env sees.

``ResilientStore`` wraps the runtime's store (plain, sharded, or
replicated) and gives every facade operation bounded-retry treatment
for the two *injected-environment* errors — ``ThrottledError`` and
``UnavailableError`` — both of which are raised **before** any table
effect, so retrying the same call verbatim is always safe. Semantic
errors (``ConditionFailed``, ``TransactionCanceled``, ...) pass through
untouched: Beldi's protocols branch on those.

On top of the retry loop sit the three recovery behaviors the nemesis
tests exercise:

- a per-endpoint circuit breaker (consecutive unavailability trips it;
  while open, calls fast-fail without paying a store round trip; a
  half-open probe closes it after the cooldown),
- per-request deadlines (a retry never sleeps past the deadline — it
  raises ``DeadlineExceeded`` instead, leaving the intent for the IC),
- degraded reads (a default-consistency ``get`` of a *data* table that
  finds the leader dark falls back to an eventual read of a live
  follower; one that asks for ``"strong"`` explicitly — a locked read
  inside a transaction — never does).

Inside an async-I/O overlap scope the wrapper is inert (scope bodies
may not yield, so no retry sleeps): the operation runs directly and
errors propagate to the fan-out's own partial-batch handling.
"""

from __future__ import annotations

from typing import Optional

from repro.core.env import PROTOCOL_SUFFIXES
from repro.core.errors import DeadlineExceeded
from repro.kvstore.asyncio import in_scope
from repro.kvstore.errors import ThrottledError, UnavailableError
from repro.kvstore.surface import (KEYED_READ, KEYED_WRITE, StoreOp, leaves,
                                   store_layer)
from repro.resilience.state import ResilienceState

@store_layer
class ResilientStore:
    """Store facade with retry/backoff/deadline/breaker semantics."""

    def __init__(self, inner, state: ResilienceState) -> None:
        self._inner = inner
        self._state = state
        self._time = next(leaves(inner)).time
        self._sharded = hasattr(inner, "shard_for")

    # Everything not intercepted (table management, metering, placement,
    # elasticity hooks, ...) is the inner store's business. A walk of the
    # store tree must not come through here: a forwarded ``nodes`` skips
    # the inner layer, so ``surface.layers`` steps through ``inner``.
    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    @property
    def inner(self):
        return self._inner

    def _call(self, op: StoreOp, args: tuple):
        """Every operation, whatever its kind: the retry loop.

        From the declaration come the label errors and backoff spans
        carry (the latency op the call pays), the breaker
        endpoint (a keyed operation's owning shard — or the one
        ``"store"`` behind an unsharded facade; fan-outs and transactions
        touch many endpoints and get no breaker) and whether a stale
        follower read may stand in for a dark leader.

        Batches and transactions raise Throttled/Unavailable only when
        *nothing* was served or applied (partial results surface as
        unprocessed remainders; injected errors fire in the pay/prepare
        phase, strictly before any mutation), so a whole-call retry never
        double-applies anything.
        """
        state = self._state
        inner = self._inner
        if in_scope(self._time):
            # Overlap-scope bodies may not yield; the fan-out above the
            # scope handles partial failures itself.
            return op.call(inner, args)
        stats = state.stats
        label = op.labels(args)[0]
        deadline = state.current_deadline()
        if deadline is not None and self._time.now() > deadline:
            stats.deadline_aborts += 1
            raise DeadlineExceeded(f"{label}: deadline already expired")
        policy = state.policy
        breaker_key = None
        if op.kind in (KEYED_READ, KEYED_WRITE):
            breaker_key = (inner.shard_for(args[0], args[1])
                           if self._sharded else "store")
        # Only plain data tables degrade: the DAAL's serialization points
        # are conditional *writes*, so a stale data read is pinned by the
        # read log, but protocol state must stay strong.
        degradable = (op.degradable and args[-1] is None
                      and not args[0].endswith(PROTOCOL_SUFFIXES))
        attempt = 0
        while True:
            breaker = (state.breaker_for(breaker_key)
                       if breaker_key is not None else None)
            err: Optional[Exception] = None
            if breaker is not None and not breaker.allow(self._time.now()):
                stats.fast_fails += 1
                err = UnavailableError(
                    f"{label}: circuit open for endpoint {breaker_key}")
            else:
                try:
                    result = op.call(inner, args)
                except UnavailableError as exc:
                    if breaker is not None:
                        state.note_breaker_failure(breaker_key, breaker,
                                                   self._time.now())
                    state.note_error(exc)
                    err = exc
                except ThrottledError as exc:
                    state.note_error(exc)
                    err = exc
                else:
                    if breaker is not None:
                        state.note_breaker_success(breaker_key, breaker)
                    return result
            if degradable and isinstance(err, UnavailableError):
                try:
                    result = op.call(inner, args[:-1] + ("eventual",))
                except (ThrottledError, UnavailableError):
                    pass
                else:
                    stats.degraded_reads += 1
                    if state.obs is not None:
                        # Said on the DAAL op this get serves: a stale
                        # read is no evidence against linearizability.
                        state.obs.tracer.annotate(degraded=True)
                    return result
            attempt += 1
            if attempt >= policy.max_attempts:
                raise err
            backoff = policy.backoff(attempt, state.rand)
            now = self._time.now()
            if deadline is not None and now + backoff > deadline:
                stats.deadline_aborts += 1
                raise DeadlineExceeded(
                    f"{label}: deadline exceeded after {attempt} attempts"
                ) from err
            stats.retries += 1
            stats.backoff_ms += backoff
            self._time.sleep(backoff)
            if state.obs is not None:
                state.obs.tracer.record_span(
                    "resilience.backoff", cat="resilience", start=now,
                    end=self._time.now(), op=label, attempt=attempt)

    _keyed_read = _keyed_write = _batch = _table_read = _transact = _call
