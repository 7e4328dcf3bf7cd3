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
All signal handling is idempotent, so at-least-once delivery suffices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core import daal, ops
from repro.core.env import SHADOW_TXN_INDEX, BeldiEnv
from repro.core.errors import MisusedApi, TxnAborted
from repro.kvstore import Set, batch_get_all, overlap
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
                obs.metrics.inc("txn.locks_acquired")
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
                obs.metrics.inc("txn.wait_die_aborts")
            ctx.interleave(f"lock:die:{short}:{key}")
            raise TxnAborted(
                f"wait-die: {txn.txn_id} dies to older {holder.get('Id')} "
                f"on {short}:{key}")
        obs = ctx.obs
        if obs is not None:
            obs.metrics.inc("txn.lock_waits")
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

def resolve_local(env: BeldiEnv, txn_id: str, mode: str) -> dict:
    """Phase 2, local part: flush shadows (commit) and release locks.

    Idempotent and at-least-once: every step is conditioned on
    ``LockOwner.Id == txn_id``, which the first successful flush/release
    clears. A crashed resolver simply re-runs and skips finished keys.

    With the ``fastpath`` feature the tail lookups (shadow reads,
    flushes, releases) go through the env's §4.4 position memory and the
    N shadow-tail fetches coalesce into one ``batch_get`` round trip —
    single-row shadow chains (the common case) need no extra read at
    all, their head row from the index query already carries the value.
    With the ``async_io`` feature the per-item flushes (and, separately,
    the lock releases) fan out under an :func:`~repro.kvstore.overlap` scope:
    each item's flush is one sequential branch (its internal
    read-retry-update chain still serializes), distinct items pay
    ``max`` instead of the sum. Sound because every branch touches a
    distinct item's chain, and each flush/release is individually
    idempotent — overlap changes when virtual time passes, never which
    conditional writes land.
    """
    obs = getattr(env.store, "obs", None)
    if obs is None:
        return _resolve_local(env, txn_id, mode)
    with obs.tracer.span("txn.resolve", cat="txn", mode=mode,
                         txn=txn_id):
        stats = _resolve_local(env, txn_id, mode)
    obs.metrics.inc("txn.flushed", stats["flushed"])
    obs.metrics.inc("txn.released", stats["released"])
    return stats


def _resolve_local(env: BeldiEnv, txn_id: str, mode: str) -> dict:
    store = env.store
    cache = env.tail_cache
    async_io = env.config.has_async_io
    stats = {"flushed": 0, "released": 0}
    if mode == COMMIT:
        for short in env.table_names():
            shadow = env.shadow_table(short)
            heads = store.query_index(shadow, SHADOW_TXN_INDEX, txn_id)
            chains = {}
            head_rows = {}
            for row in heads:
                if row.get("RowId") == daal.HEAD_ROW_ID:
                    chains[row["Key"]] = row.get("OrigKey")
                    head_rows[row["Key"]] = row
            finals = _shadow_finals(store, shadow, sorted(chains),
                                    head_rows, cache)
            with overlap(store, enabled=async_io) as scope:
                for skey, orig_key in sorted(chains.items()):
                    final = finals[skey]
                    if final == daal.MISSING:
                        continue
                    with scope.branch():
                        if daal.flush_value(store, env.data_table(short),
                                            orig_key, final, txn_id,
                                            cache=cache):
                            stats["flushed"] += 1
    refs = store.query(env.lockset_table, txn_id)
    with overlap(store, enabled=async_io) as scope:
        for ref in refs.items:
            with scope.branch():
                released = daal.release_lock(
                    store, env.data_table(ref["Table"]), ref["ItemKey"],
                    txn_id, cache=cache)
                if released:
                    stats["released"] += 1
    return stats


def _shadow_finals(store, shadow: str, skeys, head_rows: dict, cache) -> dict:
    """Resolve every shadow chain's tail value; on the fast path (a
    ``cache`` to consult) one batched round trip for the multi-row
    chains."""
    finals: dict = {}
    if cache is None:
        for skey in skeys:
            finals[skey] = daal.tail_value(store, shadow, skey,
                                           cache=cache)
        return finals
    pending: list = []
    for skey in skeys:
        head = head_rows[skey]
        if "NextRow" not in head:
            # Single-row chain: the head *is* the tail, and the index
            # query already returned it whole.
            finals[skey] = head.get("Value", daal.MISSING)
        else:
            pending.append(skey)
    if not pending:
        return finals
    tail_ids: dict = {}
    for skey in pending:
        entry = cache.tail_of(shadow, skey)
        if entry is not None:
            tail_ids[skey] = entry.row_id
        else:
            skeleton = daal.load_skeleton(store, shadow, skey, cache=cache)
            tail_ids[skey] = skeleton.tail  # None when chain vanished
    lookups = [skey for skey in pending if tail_ids[skey] is not None]
    # batch_get_all retries any throttled (unprocessed) remainder, so a
    # partial batch throttle never fails the whole commit fetch.
    rows = batch_get_all(store, shadow,
                         [(skey, tail_ids[skey]) for skey in lookups])
    for skey, row in zip(lookups, rows):
        if row is None or "NextRow" in row:
            # Cached tail went stale between resolution and fetch; evict
            # and fall back to the sound traversal for this key.
            cache.forget(shadow, skey)
            finals[skey] = daal.tail_value(store, shadow, skey,
                                           cache=cache)
        else:
            finals[skey] = row.get("Value", daal.MISSING)
    for skey in pending:
        if skey not in finals:
            finals[skey] = daal.MISSING
    return finals


def propagate_signal(ctx, instance_id: str, txn_payload: dict) -> int:
    """Phase 2, recursive part: signal every transactional callee.

    Callees are discovered from the signalling instance's invoke log and
    re-invoked by their original instance ids, carrying the Commit/Abort
    context along the workflow edges (Fig. 21's shape).
    """
    entries = ctx.store.query(ctx.env.invoke_log, instance_id)
    signalled = 0
    for entry in entries.items:
        if not entry.get("InTxn"):
            continue
        payload = {"kind": "txn_signal",
                   "instance_id": entry["CalleeId"],
                   "txn": dict(txn_payload)}
        _signal_with_retry(ctx, entry["Callee"], payload)
        signalled += 1
    return signalled


def _signal_with_retry(ctx, callee: str, payload: dict) -> None:
    from repro.platform.errors import (FunctionCrashed, FunctionTimeout,
                                       TooManyRequests)
    attempts = 0
    while True:
        try:
            ctx.platform_ctx.sync_invoke(callee, payload)
            return
        except (FunctionCrashed, FunctionTimeout, TooManyRequests):
            attempts += 1
            if attempts > ctx.config.invoke_retry_limit:
                raise
            ctx.sleep(ctx.config.invoke_retry_backoff * attempts)


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
        resolve_local(ctx.env, txn.txn_id, mode)
        ctx.crash_point(f"txn:{txn.txn_id}:resolved-local")
        propagate_signal(ctx, ctx.instance_id, txn.payload(mode))
        ctx.crash_point(f"txn:{txn.txn_id}:propagated")
    obs = ctx.obs
    if obs is not None:
        obs.metrics.inc("txn.commit" if mode == COMMIT else "txn.abort")
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
