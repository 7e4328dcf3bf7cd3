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
- degraded reads (a strong ``get`` of a *data* table that finds the
  leader dark falls back to an eventual read of a live follower).

Inside an async-I/O overlap scope the wrapper is inert (scope bodies
may not yield, so no retry sleeps): the operation runs directly and
errors propagate to the fan-out's own partial-batch handling.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.errors import DeadlineExceeded
from repro.kvstore.errors import ThrottledError, UnavailableError
from repro.resilience.state import ResilienceState

#: Table-name suffixes of Beldi's protocol tables. Degraded (stale)
#: reads are only ever served for plain data tables: the DAAL's
#: serialization points are conditional *writes*, so a stale data read
#: is pinned by the read log, but protocol state must stay strong.
_PROTOCOL_SUFFIXES = (".intent", ".readlog", ".invokelog", ".locksets",
                      ".shadow")

_NO_BREAKER = object()


class ResilientStore:
    """Store facade with retry/backoff/deadline/breaker semantics."""

    def __init__(self, inner, state: ResilienceState) -> None:
        self._inner = inner
        self._state = state
        self._time = inner.time_sources()[0]
        self._sharded = hasattr(inner, "shard_for")

    # Everything not intercepted (table management, metering, seeding,
    # elasticity hooks, ...) is the inner store's business.
    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    @property
    def inner(self):
        return self._inner

    # -- plumbing --------------------------------------------------------

    def _endpoint(self, table: str, key: Any):
        if self._sharded:
            try:
                return self._inner.shard_for(table, key)
            except Exception:
                return "store"
        return "store"

    def _in_scope(self) -> bool:
        return getattr(self._time, "_ov_scope", None) is not None

    def _call(self, op: str, fn: Callable[[], Any],
              breaker_key=_NO_BREAKER,
              degraded: Optional[Callable[[], Any]] = None):
        state = self._state
        if self._in_scope():
            # Overlap-scope bodies may not yield; the fan-out above the
            # scope handles partial failures itself.
            return fn()
        deadline = state.current_deadline()
        if deadline is not None and self._time.now() > deadline:
            state.note_deadline_abort(op)
            raise DeadlineExceeded(f"{op}: deadline already expired")
        policy = state.policy
        use_breaker = breaker_key is not _NO_BREAKER
        attempt = 0
        while True:
            breaker = (state.breaker_for(breaker_key)
                       if use_breaker else None)
            err: Optional[Exception] = None
            if breaker is not None and not breaker.allow(self._time.now()):
                state.note_fast_fail(op, breaker_key)
                err = UnavailableError(
                    f"{op}: circuit open for endpoint {breaker_key}")
            else:
                try:
                    result = fn()
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
            if degraded is not None and isinstance(err, UnavailableError):
                try:
                    result = degraded()
                except (ThrottledError, UnavailableError):
                    pass
                else:
                    state.note_degraded_read(op)
                    return result
            attempt += 1
            if attempt >= policy.max_attempts:
                raise err
            backoff = policy.backoff(attempt, state.rand)
            now = self._time.now()
            if deadline is not None and now + backoff > deadline:
                state.note_deadline_abort(op)
                raise DeadlineExceeded(
                    f"{op}: deadline exceeded after {attempt} attempts"
                ) from err
            state.note_retry(op, backoff)
            self._time.sleep(backoff)
            if state.obs is not None:
                state.obs.tracer.record_span(
                    "resilience.backoff", cat="resilience", start=now,
                    end=self._time.now(), op=op, attempt=attempt)

    # -- point ops -------------------------------------------------------

    def get(self, table: str, key: Any, projection=None,
            consistency: Optional[str] = None):
        degraded = None
        if (consistency in (None, "strong")
                and not table.endswith(_PROTOCOL_SUFFIXES)):
            degraded = lambda: self._inner.get(  # noqa: E731
                table, key, projection=projection, consistency="eventual")
        return self._call(
            "db.read",
            lambda: self._inner.get(table, key, projection=projection,
                                    consistency=consistency),
            breaker_key=self._endpoint(table, key), degraded=degraded)

    def put(self, table: str, item: dict, condition=None) -> None:
        return self._call(
            "db.write",
            lambda: self._inner.put(table, item, condition=condition),
            breaker_key=self._endpoint(table, item))

    def update(self, table: str, key: Any, updates, condition=None):
        return self._call(
            "db.cond_write",
            lambda: self._inner.update(table, key, updates,
                                       condition=condition),
            breaker_key=self._endpoint(table, key))

    def delete(self, table: str, key: Any, condition=None):
        return self._call(
            "db.delete",
            lambda: self._inner.delete(table, key, condition=condition),
            breaker_key=self._endpoint(table, key))

    # -- reads over many rows -------------------------------------------

    def query(self, table: str, hash_value: Any, **kwargs):
        return self._call(
            "db.query",
            lambda: self._inner.query(table, hash_value, **kwargs),
            breaker_key=self._endpoint(table, hash_value))

    def scan(self, table: str, **kwargs):
        return self._call("db.scan",
                          lambda: self._inner.scan(table, **kwargs))

    def query_index(self, table: str, index_name: str, value: Any,
                    **kwargs):
        return self._call(
            "db.query_index",
            lambda: self._inner.query_index(table, index_name, value,
                                            **kwargs))

    # -- batches and transactions ---------------------------------------
    # Both raise Throttled/Unavailable only when *nothing* was served or
    # applied (partial results surface as unprocessed remainders), so a
    # whole-call retry never double-applies anything.

    def batch_get(self, table: str, keys, **kwargs):
        return self._call(
            "db.batch_read",
            lambda: self._inner.batch_get(table, keys, **kwargs))

    def batch_write(self, table: str, puts=(), deletes=()):
        return self._call(
            "db.batch_write",
            lambda: self._inner.batch_write(table, puts, deletes))

    def transact_write(self, ops) -> None:
        # Injected errors fire in the pay/prepare phase, strictly before
        # any mutation, so the transaction is all-or-nothing under retry.
        return self._call("db.txn",
                          lambda: self._inner.transact_write(ops))
