"""Cross-table-transaction logging variant (Figs. 13 and 16 ablation).

The paper compares the linked DAAL against "an implementation of Beldi
that uses cross-table transactions instead": data lives in a plain
one-row-per-item table, and each write is made atomic with its log entry
via the store's ``TransactWriteItems``-style primitive. Reads skip the
scan (single-row fetch) but still log; writes pay the transactional
round trip, which the paper measures at 2-2.5x the DAAL's cost.

Invocations, intents, IC and GC are shared with the DAAL path — only the
storage ops differ. Not all of the paper's target databases support
cross-table transactions at all (Bigtable does not), which is one of the
linked DAAL's reasons to exist.
"""

from __future__ import annotations

from typing import Any

from repro.core import daal, ops
from repro.core.errors import BeldiError
from repro.kvstore import (
    AttrNotExists,
    ConditionFailed,
    Set,
    TransactPut,
    TransactUpdate,
    TransactionCanceled,
)
from repro.kvstore.expressions import Condition


def flat_read_op(ctx, table: str, key: Any,
                 consistency=None) -> Any:
    """Single-row read + read-log entry (no chain scan).

    ``consistency`` only affects the data-row read (read-only paths may
    pass ``"eventual"``); the read log follows the DAAL path's rule —
    one serialization point, at the effect frontier
    (:func:`repro.core.ops.log_read`).
    """
    step = ctx.next_step()

    def observe() -> Any:
        ctx.crash_point(f"read:{step}:start")
        row = ctx.store.get(table, key, consistency=consistency)
        return row.get("Value", daal.MISSING) if row else daal.MISSING

    return ops.log_read(ctx, step, observe, tag=f"read:{step}")


def _log_entry(ctx, step: int, outcome: bool) -> dict:
    return {"InstanceId": ctx.instance_id, "Step": step,
            "Outcome": outcome}


def flat_write_op(ctx, table: str, key: Any, value: Any) -> None:
    """Value update + write-log insert, atomically across two tables."""
    ops.flush_read_log(ctx)
    step = ctx.next_step()
    store = ctx.store
    ctx.crash_point(f"write:{step}:start")
    try:
        store.transact_write([
            TransactUpdate(table, (key,), [Set("Value", value)]),
            TransactPut(ctx.env.write_log, _log_entry(ctx, step, True),
                        condition=AttrNotExists("InstanceId")),
        ])
        ctx.crash_point(f"write:{step}:done")
    except TransactionCanceled:
        pass  # the log entry exists: this step already executed


def flat_cond_write_op(ctx, table: str, key: Any, value: Any,
                       condition: Condition) -> bool:
    """Conditional variant; the user condition gates the data update."""
    ops.flush_read_log(ctx)
    step = ctx.next_step()
    store = ctx.store
    ctx.crash_point(f"condwrite:{step}:start")
    existing = store.get(ctx.env.write_log, (ctx.instance_id, step))
    if existing is not None:
        return bool(existing.get("Outcome"))
    try:
        store.transact_write([
            TransactUpdate(table, (key,), [Set("Value", value)],
                           condition=condition),
            TransactPut(ctx.env.write_log, _log_entry(ctx, step, True),
                        condition=AttrNotExists("InstanceId")),
        ])
        ctx.crash_point(f"condwrite:{step}:done")
        return True
    except TransactionCanceled:
        record = store.get(ctx.env.write_log, (ctx.instance_id, step))
        if record is not None:
            return bool(record.get("Outcome"))
        # The user condition failed; record the false outcome (the
        # serialization point was the attempt above).
        try:
            store.put(ctx.env.write_log, _log_entry(ctx, step, False),
                      condition=AttrNotExists("InstanceId"))
            return False
        except ConditionFailed:
            record = store.get(ctx.env.write_log,
                               (ctx.instance_id, step))
            if record is None:
                raise BeldiError("write log entry vanished") from None
            return bool(record.get("Outcome"))
