"""BeldiContext: the API surface SSF handlers program against (Fig. 2).

One context exists per running instance. It carries the instance id, the
step counter, the transaction context (if any), and dispatches every
operation either to the plain exactly-once wrappers or — in a
transaction's Execute mode — to the locked, shadow-redirected variants.
The dispatch is the mechanism behind §6.2's "if an SSF is in a
transactional context, Beldi modifies the semantics of its API".
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterable, Optional

from repro.core import daal, invoke, ops, txn as txn_mod
from repro.core.config import BeldiConfig
from repro.core.env import BeldiEnv
from repro.core.errors import MisusedApi
from repro.core.txn import (
    EXECUTE,
    TransactionHandle,
    TxnContext,
    finish_transaction,
)
from repro.kvstore import KVStore
from repro.kvstore.expressions import Condition
from repro.platform.context import InvocationContext

#: Shared no-op scope returned by :meth:`BeldiContext.trace` when the
#: observability flag is off — stateless, so one instance serves all.
_NULL_SPAN = contextlib.nullcontext()


class BeldiContext:
    """Identity, step bookkeeping, and the Beldi API for one instance."""

    def __init__(self, runtime, function_name: str, env: BeldiEnv,
                 platform_ctx: InvocationContext, instance_id: str,
                 intent: dict, txn: Optional[TxnContext] = None,
                 read_log: Optional[dict] = None,
                 first_execution: bool = False) -> None:
        self.runtime = runtime
        self.function_name = function_name
        self.env = env
        self.platform_ctx = platform_ctx
        self.instance_id = instance_id
        self.intent = intent
        self.txn = txn
        self._step = 0
        #: What this execution knows of its own read log, ``step ->
        #: value`` (the ``async_io`` feature): empty on a first
        #: execution, the logged runs when it is a replay. ``None`` = the
        #: paper's path, which asks the store step by step.
        self.read_log = read_log
        #: This execution created its intent and has not been rolled
        #: back: no earlier execution can have logged anything for it.
        self.first_execution = first_execution
        #: Snapshots of the read values observed since the last effect
        #: frontier, not yet durable (``ops.flush_read_log``), the step
        #: of its first value and the bytes it holds.
        self.pending_reads: list = []
        self.pending_first = 0
        self.pending_bytes = 0

    # -- plumbing the op wrappers rely on ------------------------------------
    @property
    def store(self) -> KVStore:
        return self.env.store

    @property
    def config(self) -> BeldiConfig:
        return self.env.config

    @property
    def start_time(self) -> float:
        """Intent-creation time: stable across re-executions."""
        return self.intent.get("StartTime", 0.0)

    @property
    def tail_cache(self):
        """The runtime's §4.4 chain-position cache, or ``None`` without
        the ``fastpath`` feature (seed behavior)."""
        return self.env.tail_cache

    @property
    def obs(self):
        """The runtime's observability hub, or ``None`` when the
        ``observability`` flag is off (the default)."""
        return self.runtime.obs

    @property
    def deadline(self) -> Optional[float]:
        """This invocation's absolute virtual-time deadline, or ``None``
        when no ``request_deadline`` budget is configured. Fresh per
        invocation (IC re-runs get a full budget)."""
        resilience = getattr(self.runtime, "resilience", None)
        if resilience is None:
            return None
        return resilience.current_deadline()

    def trace(self, name: str, cat: str = "op",
              span_id: Optional[str] = None, **args: Any):
        """Open a tracer span, or a no-op scope when tracing is off."""
        obs = self.obs
        if obs is None:
            return _NULL_SPAN
        return obs.tracer.span(name, cat=cat, span_id=span_id, **args)

    def lifecycle(self, name: str, **args: Any) -> None:
        """Emit a lifecycle event of this instance under *this*
        execution (:meth:`InvocationContext.lifecycle`) — also from a
        parallel-invoke branch, which runs in a process of its own."""
        self.platform_ctx.lifecycle(name, instance=self.instance_id,
                                    **args)

    def next_step(self) -> int:
        step = self._step
        self._step += 1
        # Hot-shard elasticity heartbeat: every logged operation gives
        # the detector one (pure-python) tick; when skew crosses its
        # threshold the triggering invocation runs the chain migration
        # inline — with this invocation's crash points, so the sweep
        # covers crashes inside the move.
        elasticity = getattr(self.runtime, "elasticity", None)
        if elasticity is not None:
            elasticity.tick(self.platform_ctx)
        return step

    def fresh_row_id(self) -> str:
        return f"row-{self.runtime.fresh_uuid()}"

    def fresh_callee_id(self) -> str:
        return self.runtime.fresh_uuid()

    def crash_point(self, tag: str) -> None:
        self.platform_ctx.crash_point(tag)

    def interleave(self, tag: str) -> None:
        """Named scheduling point (no crash semantics) for exploration."""
        self.platform_ctx.interleave(tag)

    def sleep(self, duration: float) -> None:
        self.platform_ctx.sleep(duration)

    def in_txn_execute(self) -> bool:
        return self.txn is not None and self.txn.mode == EXECUTE

    def in_transaction(self) -> bool:
        """Whether this instance runs inside a transactional context."""
        return self.txn is not None

    @property
    def pipelines_invokes(self) -> bool:
        """May a sync invoke start its callee before its claim lands
        (``async_io``; ``docs/async_io.md``, "Pipelined invoke open")?

        Only where nothing can already depend on the old order: a replay
        or duplicate must see a logged ``Result`` before it starts
        anything, and a callee inside a transaction's Execute mode must
        be discoverable by a ``txn_signal`` handler (through the claim) from
        the moment it can hold a lock.
        """
        return (self.config.has_async_io and self.first_execution
                and not self.in_txn_execute())

    # -- key-value API (Fig. 2) ------------------------------------------------
    def read(self, table: str, key: Any) -> Any:
        """Exactly-once read; ``None`` if the item does not exist.

        The value is read-only (its maps and lists refuse mutation, a
        set is a ``frozenset``): it is the one object the data row and
        the read log store, on a first execution and on a replay alike.
        Copy it to change it."""
        if self.in_txn_execute():
            value = txn_mod.tx_read(self, table, key)
        elif self.env.storage_mode == "crosstable":
            from repro.core import crosstable
            value = crosstable.flat_read_op(
                self, self.env.data_table(table), key)
        else:
            value = ops.read_op(self, self.env.data_table(table), key)
        return None if value == daal.MISSING else value

    def read_eventual(self, table: str, key: Any) -> Any:
        """Read-only lookup that tolerates bounded staleness.

        Use on paths whose result is *served*, never acted on with
        writes — timeline reads, movie pages, caches. When the runtime's
        ``read_consistency`` is ``"eventual"`` (and the store is
        replicated) the lookup routes to a follower replica at half a
        read unit, possibly stale within the replication-lag bound; at
        the default ``"strong"`` it is priced and routed exactly like
        :meth:`read`. Either way the observed value is logged in the
        read log, so replays after a crash return the same value —
        determinism does not depend on the consistency mode. Inside a
        transaction's Execute mode this falls back to the strong
        transactional read: a locked read-set must not be stale. The
        value is read-only, as :meth:`read`'s is.
        """
        if self.in_txn_execute():
            return self.read(table, key)
        from repro.kvstore.metering import normalize_consistency
        consistency = normalize_consistency(self.config.read_consistency)
        if self.env.storage_mode == "crosstable":
            from repro.core import crosstable
            value = crosstable.flat_read_op(
                self, self.env.data_table(table), key,
                consistency=consistency)
        else:
            value = ops.read_only_op(self, self.env.data_table(table),
                                     key, consistency=consistency)
        return None if value == daal.MISSING else value

    def read_many(self, table: str, keys: Iterable[Any]) -> list:
        """:meth:`read_eventual` over independent ``keys``: one value per
        key, aligned, ``None`` where the item does not exist.

        Each key is one logged step, exactly as if read one by one — but
        with the ``async_io`` feature the steps the read log does not
        already answer share **one** ``batch_get`` of their cached tails
        (:func:`repro.core.ops.read_many_op`) and join the pending read
        run together. Without the feature, in a transaction's Execute
        mode (locked reads) and in cross-table storage it *is* the
        per-key loop: same rows, same crash points. The list is the
        caller's own; each value in it is read-only, as :meth:`read`'s
        is.
        """
        if (self.read_log is None or self.in_txn_execute()
                or self.env.storage_mode == "crosstable"):
            return [self.read_eventual(table, key) for key in keys]
        from repro.kvstore.metering import normalize_consistency
        values = ops.read_many_op(
            self, self.env.data_table(table), list(keys),
            consistency=normalize_consistency(
                self.config.read_consistency))
        return [None if value == daal.MISSING else value
                for value in values]

    def write(self, table: str, key: Any, value: Any) -> None:
        """Exactly-once write."""
        if self.in_txn_execute():
            txn_mod.tx_write(self, table, key, value)
        elif self.env.storage_mode == "crosstable":
            from repro.core import crosstable
            crosstable.flat_write_op(self, self.env.data_table(table),
                                     key, value)
        else:
            ops.write_op(self, self.env.data_table(table), key, value)

    def cond_write(self, table: str, key: Any, value: Any,
                   condition: Condition) -> bool:
        """Exactly-once conditional write; returns the condition outcome.

        Outside transactions the condition is evaluated server-side
        against the item's row (use ``path("Value", ...)`` to address into
        the stored value). Inside a transaction it is evaluated against
        the locked, shadow-aware view.
        """
        if self.in_txn_execute():
            return txn_mod.tx_cond_write(self, table, key, value, condition)
        if self.env.storage_mode == "crosstable":
            from repro.core import crosstable
            return crosstable.flat_cond_write_op(
                self, self.env.data_table(table), key, value, condition)
        return ops.cond_write_op(self, self.env.data_table(table), key,
                                 condition, value=value)

    # -- invocation API -----------------------------------------------------------
    def sync_invoke(self, callee: str, payload: Any = None) -> Any:
        """Call another SSF and wait for its result (exactly-once).

        The result is read-only (its maps and lists refuse mutation):
        it is the one object the callee's intent and this invoke log
        store. Copy it to change it."""
        return invoke.sync_invoke_op(self, callee, payload)

    def async_invoke(self, callee: str, payload: Any = None) -> None:
        """Start another SSF without waiting (exactly-once)."""
        invoke.async_invoke_op(self, callee, payload)

    def parallel_invoke(self, calls: list) -> list:
        """Invoke several SSFs concurrently and join their results.

        ``calls`` is a list of ``(callee, payload)`` pairs; results come
        back in call order, read-only as :meth:`sync_invoke`'s. Safe
        inside transactions (§6.2 permits threads issuing syncInvoke
        that are then joined); step numbers are pre-allocated
        sequentially so replays are deterministic.
        """
        return invoke.parallel_invoke_op(self, calls)

    # -- locks (§6.1) -----------------------------------------------------------------
    def lock(self, table: str, key: Any) -> None:
        """Acquire a lock-with-intent on an item (blocks via retries).

        Owned by the *intent*, not the worker: if this instance crashes
        and re-executes, the replayed ``lock`` observes it already holds
        the lock and proceeds.
        """
        full = self.env.data_table(table)
        owner = {"Id": self.instance_id, "Ts": self.start_time}
        attempts = 0
        from repro.kvstore import Set
        while True:
            acquired = ops.cond_write_op(
                self, full, key,
                condition=daal.lock_free_condition(self.instance_id),
                set_value=False,
                extra_updates=[Set("LockOwner", owner)])
            if acquired:
                return
            attempts += 1
            if attempts > self.config.lock_retry_limit:
                raise MisusedApi(
                    f"lock({table!r}, {key!r}) starved; possible deadlock "
                    "in application code")
            self.sleep(self.config.lock_retry_backoff)

    def unlock(self, table: str, key: Any) -> None:
        """Release a lock-with-intent (exactly-once via the write log)."""
        from repro.kvstore import Remove
        from repro.kvstore.expressions import path as kv_path
        from repro.kvstore import Eq
        full = self.env.data_table(table)
        ops.cond_write_op(
            self, full, key,
            condition=Eq(kv_path("LockOwner", "Id"), self.instance_id),
            set_value=False,
            extra_updates=[Remove("LockOwner")])

    # -- transactions (§6.2) ------------------------------------------------------------
    def begin_tx(self) -> TxnContext:
        """Open a transaction (or join the inherited one).

        The transaction id derives from the instance id and the current
        step, and the wait-die timestamp from the intent-creation time —
        both stable under re-execution.
        """
        if self.txn is not None:
            return self.txn  # nested begin_tx is inherited (§6.2)
        ops.flush_read_log(self)
        seq = self.next_step()
        self.txn = TxnContext(
            txn_id=f"{self.instance_id}{txn_mod.TXN_ID_SEPARATOR}{seq}",
            start_time=self.start_time,
            owner=True)
        obs = self.obs
        if obs is not None:
            obs.tracer.event("txn:begin", cat="txn", txn=self.txn.txn_id)
        return self.txn

    def end_tx(self, commit: bool = True) -> str:
        """Close the transaction; returns ``"commit"``/``"abort"``/
        ``"inherited"``."""
        return finish_transaction(self, commit=commit)

    def abort_tx(self) -> None:
        """Abort the enclosing transaction from application code."""
        from repro.core.errors import TxnAborted
        if self.txn is None:
            raise MisusedApi("abort_tx outside a transaction")
        self.txn.aborted = True
        raise TxnAborted("aborted by application")

    def transaction(self) -> TransactionHandle:
        """``with ctx.transaction() as tx:`` — commit on clean exit,
        abort (and swallow the :class:`TxnAborted`) otherwise."""
        return TransactionHandle(self)

    # -- logged non-determinism (§3.1's determinism requirement) ----------------------------
    def record(self, compute: Callable[[], Any]) -> Any:
        """Run ``compute()`` once; replays return the logged result.

        Either way the result is the frozen value the read log holds —
        read-only, even on the first execution that computed it — so a
        handler that works once works under replay. Copy it to change
        it."""
        return ops.record_op(self, compute)

    def fresh_id(self) -> str:
        """A UUID that is stable across re-executions of this step."""
        return self.record(self.runtime.fresh_uuid)

    def current_time(self) -> float:
        """Wall-clock time, logged for deterministic replay."""
        return self.record(lambda: self.platform_ctx.now)
