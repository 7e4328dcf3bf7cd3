"""Transactions over SSF workflows (§6): contexts, wait-die locks,
shadow redirection, and the coordinator-free commit/abort protocol.

The isolation level is **opacity**: rigorous two-phase locking means every
transaction — including ones destined to abort — only ever reads values
under locks it holds, so the Figure 12 inconsistent-snapshot infinite loop
cannot occur. Deadlock is prevented with wait-die keyed on intent-creation
timestamps (an SSF cannot wound another instance, §6.2).

Writes inside a transaction are redirected to a **shadow table**: a linked
DAAL keyed by ``"<txn id>|<item key>"`` whose head rows carry ``TxnId`` (a
secondary index the commit phase and the GC use) and ``OrigKey`` (so the
flush knows the real destination). Reads check the transaction's own
shadow first (read-your-writes), then the real table.

Commit/abort propagates along workflow edges: the SSF owning ``begin_tx``
flushes its own shadows, releases its own locks, and then re-invokes each
transactional callee (by its original instance id) with a ``txn_signal``;
each callee does the same and recurses to *its* callees, found in its
invoke log — collectively playing two-phase commit's coordinator (§6.2).
All signal handling is idempotent, so at-least-once delivery suffices —
and unordered: with the ``async_io`` feature an SSF's signals go out
together and its local part runs beside them
(:func:`resolve_and_propagate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core import daal, ops
from repro.core.env import SHADOW_TXN_INDEX, BeldiEnv
from repro.core.errors import MisusedApi, TxnAborted
from repro.core.invoke import NO_RESULT, at_least_once
from repro.kvstore import Set, overlap
from repro.kvstore.asyncio import NULL_SCOPE
from repro.kvstore.expressions import Condition, path

EXECUTE = "execute"
COMMIT = "commit"
ABORT = "abort"

TXN_ID_SEPARATOR = "~tx"


@dataclass
class TxnContext:
    """The per-instance view of one (possibly multi-SSF) transaction."""

    txn_id: str
    start_time: float
    mode: str = EXECUTE
    owner: bool = False
    aborted: bool = False
    # In-memory caches; rebuilt identically on replay because they are
    # filled by deterministic user-code order.
    locked: set = field(default_factory=set)
    written: set = field(default_factory=set)
    #: ``(callee, callee instance id)`` of every in-transaction invoke
    #: step this execution went through — what its invoke log holds.
    invoked: list = field(default_factory=list)

    def payload(self, mode: Optional[str] = None) -> dict:
        return {"id": self.txn_id, "ts": self.start_time,
                "mode": mode or self.mode}

    @classmethod
    def from_payload(cls, payload: dict, owner: bool = False
                     ) -> "TxnContext":
        return cls(txn_id=payload["id"], start_time=payload["ts"],
                   mode=payload.get("mode", EXECUTE), owner=owner)

    def priority(self) -> tuple:
        """Wait-die rank: smaller = older = wins conflicts."""
        return (self.start_time, self.txn_id)


def owner_instance_of(txn_id: str) -> str:
    """The instance id that created this transaction."""
    return txn_id.split(TXN_ID_SEPARATOR, 1)[0]


def shadow_key(txn_id: str, key: Any) -> str:
    return f"{txn_id}|{key}"


def lock_ref(short: str, key: Any) -> str:
    return f"{short}|{key}"


# ---------------------------------------------------------------------------
# Execute-mode operations
# ---------------------------------------------------------------------------

def tx_lock(ctx, short: str, key: Any) -> None:
    """2PL acquisition with wait-die (Fig. 11).

    The acquisition is an exactly-once conditional write on the item's
    real DAAL (lock state lives with the data, §6.1); re-executions replay
    the logged outcome of every attempt, so the retry loop is
    deterministic. Losing to an older transaction raises
    :class:`TxnAborted` (the "die" branch).
    """
    txn = ctx.txn
    if (short, key) in txn.locked:
        return
    table = ctx.env.data_table(short)
    owner_update = [Set("LockOwner", {"Id": txn.txn_id,
                                      "Ts": txn.start_time})]
    attempts = 0
    while True:
        acquired = ops.cond_write_op(
            ctx, table, key,
            condition=daal.lock_free_condition(txn.txn_id),
            set_value=False, extra_updates=owner_update)
        if acquired:
            ctx.store.put(ctx.env.lockset_table, {
                "TxnId": txn.txn_id,
                "LockRef": lock_ref(short, key),
                "Table": short,
                "ItemKey": key,
                "OwnerInstance": owner_instance_of(txn.txn_id),
            })
            txn.locked.add((short, key))
            obs = ctx.obs
            if obs is not None:
                obs.tracer.event("lock:acquired", cat="txn", table=short,
                                 key=key, txn=txn.txn_id)
            # Schedule-exploration point: the window right after a lock
            # grant is where a conflicting transaction's probe lands.
            ctx.interleave(f"lock:acquired:{short}:{key}")
            return
        holder = ops.read_op(ctx, table, key, attribute="LockOwner")
        if holder == daal.MISSING or not holder:
            continue  # released between our probe and read; try again
        holder_rank = (holder.get("Ts", 0.0), holder.get("Id", ""))
        if holder_rank <= txn.priority():
            obs = ctx.obs
            if obs is not None:
                obs.tracer.event("lock:die", cat="txn", table=short,
                                 key=key, txn=txn.txn_id)
            ctx.interleave(f"lock:die:{short}:{key}")
            raise TxnAborted(
                f"wait-die: {txn.txn_id} dies to older {holder.get('Id')} "
                f"on {short}:{key}")
        obs = ctx.obs
        if obs is not None:
            obs.tracer.event("lock:wait", cat="txn", table=short,
                             key=key, txn=txn.txn_id)
        ctx.interleave(f"lock:wait:{short}:{key}")
        attempts += 1
        if attempts > ctx.config.lock_retry_limit:
            raise TxnAborted(
                f"lock {short}:{key} unobtainable after "
                f"{attempts} attempts")
        ctx.sleep(ctx.config.lock_retry_backoff)


def tx_read(ctx, short: str, key: Any) -> Any:
    """Locked read with read-your-writes through the shadow table."""
    tx_lock(ctx, short, key)
    if (short, key) in ctx.txn.written:
        table = ctx.env.shadow_table(short)
        return ops.read_op(ctx, table, shadow_key(ctx.txn.txn_id, key))
    return ops.read_op(ctx, ctx.env.data_table(short), key)


def tx_write(ctx, short: str, key: Any, value: Any) -> None:
    """Locked write, redirected to the transaction's shadow chain."""
    tx_lock(ctx, short, key)
    txn = ctx.txn
    table = ctx.env.shadow_table(short)
    ops.write_op(ctx, table, shadow_key(txn.txn_id, key), value,
                 head_extra={"TxnId": txn.txn_id, "OrigKey": key,
                             "OwnerInstance": ctx.instance_id})
    txn.written.add((short, key))


def tx_cond_write(ctx, short: str, key: Any, value: Any,
                  condition: Condition) -> bool:
    """Conditional write inside a transaction.

    Under 2PL the value cannot change while we hold the lock, so the
    condition is evaluated against the locked read (shadow-aware) and the
    write applied shadow-side if it holds. Both sub-steps are logged, so
    replays take the identical branch.
    """
    tx_lock(ctx, short, key)
    current = tx_read(ctx, short, key)
    visible = {} if current == daal.MISSING else {"Value": current}
    if not condition.evaluate(visible):
        return False
    tx_write(ctx, short, key, value)
    return True


# ---------------------------------------------------------------------------
# Commit / abort protocol
# ---------------------------------------------------------------------------

def resolve_local(env: BeldiEnv, txn_id: str, mode: str) -> None:
    """Phase 2, local part: flush shadows (commit) and release locks.

    Idempotent and at-least-once: every step is conditioned on
    ``LockOwner.Id == txn_id``, which the first successful flush/release
    clears. A crashed resolver simply re-runs and skips finished keys.

    With the ``fastpath`` feature the tail lookups (shadow reads,
    flushes, releases) go through the env's §4.4 position memory and the
    N shadow-tail fetches coalesce into one ``batch_get`` round trip —
    single-row shadow chains (the common case) need no extra read at
    all, their head row from the index query already carries the value.
    With the ``async_io`` feature the work is two overlapped rounds: the
    reads that say what the transaction wrote and locked here (shadow
    index queries, lock-set query), then one :func:`~repro.kvstore.overlap`
    scope with a branch per item — a flush for every written item, a
    release for every lock on an item it did *not* write (a flush
    releases its own; without the feature the second pass over those
    items is a failed update and a read each). Each branch is one
    sequential strand (its internal read-retry-update chain still
    serializes), distinct items pay ``max`` instead of the sum. Sound
    because every branch touches a distinct item's chain, and each
    flush/release is individually idempotent — overlap changes when
    virtual time passes, never which conditional writes land.
    """
    obs = env.store.obs
    if obs is None:
        _resolve_local(env, txn_id, mode)
        return
    with obs.tracer.span("txn.resolve", cat="txn", mode=mode,
                         txn=txn_id):
        _resolve_local(env, txn_id, mode)


def _resolve_local(env: BeldiEnv, txn_id: str, mode: str) -> None:
    store = env.store
    cache = env.tail_cache
    tables = env.table_names() if mode == COMMIT else []

    def flush(scope, short: str, values: dict) -> None:
        for key, value in values.items():
            with scope.branch():
                daal.flush_value(store, env.data_table(short), key, value,
                                 txn_id, cache=cache)

    def release(scope, refs: list) -> None:
        for ref in refs:
            with scope.branch():
                daal.release_lock(store, env.data_table(ref["Table"]),
                                  ref["ItemKey"], txn_id, cache=cache)

    def lock_refs() -> list:
        return store.query(env.lockset_table, txn_id).items

    if not env.config.has_async_io:
        for short in tables:
            flush(NULL_SCOPE, short, _shadow_values(env, short, txn_id))
        release(NULL_SCOPE, lock_refs())
        return
    # Two overlapped rounds. What the transaction wrote here and what it
    # locked here are independent reads ...
    values = {}
    with overlap(store) as scope:
        for short in tables:
            with scope.branch():
                values[short] = _shadow_values(env, short, txn_id)
        with scope.branch():
            refs = lock_refs()
    # ... and a flush releases its own item's lock, so what is left to
    # release are the locks on items the transaction did not write:
    # every branch of this round works on a distinct item's chain.
    with overlap(store) as scope:
        for short in tables:
            flush(scope, short, values[short])
        release(scope, [ref for ref in refs if ref["ItemKey"]
                        not in values.get(ref["Table"], ())])


def _shadow_values(env: BeldiEnv, short: str, txn_id: str) -> dict:
    """``{item key: final value}`` of what the transaction wrote to one
    table, read off its shadow chains (key order)."""
    store = env.store
    shadow = env.shadow_table(short)
    chains = {}
    head_rows = {}
    for row in store.query_index(shadow, SHADOW_TXN_INDEX, txn_id):
        if row.get("RowId") == daal.HEAD_ROW_ID:
            chains[row["Key"]] = row.get("OrigKey")
            head_rows[row["Key"]] = row
    finals = _shadow_finals(store, shadow, sorted(chains), head_rows,
                            env.tail_cache, env.config.has_async_io)
    return {chains[skey]: finals[skey] for skey in sorted(chains)
            if finals[skey] != daal.MISSING}


def _shadow_finals(store, shadow: str, skeys, head_rows: dict, cache,
                   overlapped: bool) -> dict:
    """Resolve every shadow chain's tail value; on the fast path (a
    ``cache`` to consult) single-row chains cost nothing and the
    multi-row ones share :func:`daal.tail_values`' one batched round
    trip."""
    if cache is None:
        finals: dict = {}
        pending = list(skeys)
    else:
        # Single-row chain: the head *is* the tail, and the index query
        # already returned it whole.
        finals = {skey: head_rows[skey].get("Value", daal.MISSING)
                  for skey in skeys if "NextRow" not in head_rows[skey]}
        pending = [skey for skey in skeys if skey not in finals]
    finals.update(zip(pending, daal.tail_values(
        store, shadow, pending, cache, overlapped=overlapped)))
    return finals


def resolve_and_propagate(ctx, instance_id: str, txn_payload: dict,
                          after_local=None, callees=None) -> None:
    """Phase 2 at one SSF: its local part and the signals to its callees.

    The two are independent — every lock of the transaction was taken
    before the decision, every resolver is idempotent and conditioned on
    the transaction's own id — so only their sum is ordered by the
    protocol. The paper path resolves locally, then signals one callee
    after the other. With the ``async_io`` feature the signals fan out
    first — each callee's invocation starts while the earlier ones are
    in flight — the local part runs beside them, and then the replies
    are awaited: nested ``meanwhile``s of ``sync_invoke``, so no kernel
    process is added, and a commit costs its slowest participant instead
    of their sum. ``after_local()`` runs right after the local part
    either way.

    ``callees`` is what an execution that went through the transaction's
    invoke steps itself knows (:attr:`TxnContext.invoked`); a signal
    handler, which did not, reads them from the invoke log — as the
    paper path always does.
    """
    def local() -> None:
        resolve_local(ctx.env, txn_payload["id"], txn_payload["mode"])
        if after_local is not None:
            after_local()

    def signals(found: list) -> list:
        return [(callee, {"kind": "txn_signal", "instance_id": callee_id,
                          "txn": dict(txn_payload)})
                for callee, callee_id in found]

    if not ctx.config.has_async_io:
        local()
        for callee, payload in signals(logged_callees(ctx, instance_id)):
            _signal_with_retry(ctx, callee, payload)
        return
    if callees is None:
        callees = logged_callees(ctx, instance_id)
    _signal_beside(ctx, signals(callees), local)


def logged_callees(ctx, instance_id: str) -> list:
    """Phase 2, recursive part: the transactional callees of an
    instance, from its invoke log — re-invoked by their original
    instance ids, they carry the Commit/Abort context along the workflow
    edges (Fig. 21's shape)."""
    entries = ctx.store.query(ctx.env.invoke_log, instance_id)
    return [(entry["Callee"], entry["CalleeId"])
            for entry in entries.items if entry.get("InTxn")]


def _signal_beside(ctx, signals: list, beside) -> None:
    if not signals:
        beside()
        return
    callee, payload = signals[0]
    _signal_with_retry(ctx, callee, payload,
                       lambda: _signal_beside(ctx, signals[1:], beside))


def _signal_with_retry(ctx, callee: str, payload: dict,
                       beside=None) -> None:
    """Deliver one signal, at least once.

    ``beside()`` — the rest of a fan-out — runs exactly once: while the
    first attempt's worker is in flight, or right away if none started.
    What it raises is joined like a parallel branch: re-raised once this
    callee has been signalled, so one participant's failure never keeps
    another from being reached.
    """
    errors: list = []

    def run_beside() -> Any:
        nonlocal beside
        work, beside = beside, None
        try:
            if work is not None:
                work()
        except Exception as exc:  # noqa: BLE001 - joined below
            errors.append(exc)
        return NO_RESULT  # the signal itself is still to be delivered

    at_least_once(
        ctx.platform_ctx, ctx.config,
        lambda: ctx.platform_ctx.sync_invoke(
            callee, payload,
            meanwhile=run_beside if beside is not None else None),
        recovered=run_beside)
    if errors:
        raise errors[0]


def finish_transaction(ctx, commit: bool) -> str:
    """``end_tx`` for the owning SSF: decide, resolve locally, propagate."""
    txn = ctx.txn
    if txn is None:
        raise MisusedApi("end_tx without begin_tx")
    if not txn.owner:
        # Inherited context: the top-level owner coordinates; inner
        # begin/end pairs are ignored (§6.2).
        return "inherited"
    mode = COMMIT if commit and not txn.aborted else ABORT
    ops.flush_read_log(ctx)
    with ctx.trace(f"txn.finish:{mode}", cat="txn", txn=txn.txn_id):
        ctx.crash_point(f"txn:{txn.txn_id}:resolving:{mode}")
        resolve_and_propagate(
            ctx, ctx.instance_id, txn.payload(mode),
            after_local=lambda: ctx.crash_point(
                f"txn:{txn.txn_id}:resolved-local"),
            callees=txn.invoked)
        ctx.crash_point(f"txn:{txn.txn_id}:propagated")
    ctx.txn = None
    return mode


class TransactionHandle:
    """``with ctx.transaction():`` sugar around begin_tx/end_tx.

    A :class:`TxnAborted` escaping the block triggers the abort protocol
    and is swallowed; inspect :attr:`outcome` (``"committed"`` /
    ``"aborted"`` / ``"inherited"``) afterwards.
    """

    def __init__(self, ctx) -> None:
        self._ctx = ctx
        self.outcome: Optional[str] = None

    @property
    def committed(self) -> bool:
        return self.outcome in ("committed", "inherited")

    @property
    def aborted(self) -> bool:
        return self.outcome == "aborted"

    def __enter__(self) -> "TransactionHandle":
        self._ctx.begin_tx()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            mode = self._ctx.end_tx()
            self.outcome = ("committed" if mode == COMMIT
                            else "inherited" if mode == "inherited"
                            else "aborted")
            return False
        if isinstance(exc, TxnAborted):
            if self._ctx.txn is not None and not self._ctx.txn.owner:
                # Not ours to resolve: propagate the abort to the caller,
                # who forwards it up to the owning SSF.
                return False
            mode = finish_transaction(self._ctx, commit=False)
            self.outcome = "aborted" if mode == ABORT else mode
            return True
        if not isinstance(exc, Exception):
            # A BaseException — the platform killing this worker (crash
            # injection, execution timeout). The crash is NOT a
            # transaction outcome: leave every lock and shadow in place
            # and let the intent collector's re-execution replay to a
            # deterministic decision. Aborting here would release locks
            # that the replayed commit still needs (lost update).
            return False
        # Deterministic application exception: abort, then re-raise (the
        # replay will raise it again and abort again — idempotent).
        if self._ctx.txn is not None and self._ctx.txn.owner:
            finish_transaction(self._ctx, commit=False)
            self.outcome = "aborted"
        return False
