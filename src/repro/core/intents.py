"""Intent-table records: the unit of exactly-once execution (§3.3).

An *intent* is the promise that one SSF instance — identified by its
instance id — will run to completion exactly once. The record carries
everything a re-execution needs: the function name, the original
arguments, the caller coordinates for callbacks, the transaction context,
and the creation timestamp (which doubles as the wait-die priority).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.env import BeldiEnv
from repro.kvstore import (
    AttrNotExists,
    ConditionFailed,
    Eq,
    Remove,
    Set,
)


def ensure_intent(env: BeldiEnv, instance_id: str, function: str,
                  args: Any, now: float, is_async: bool,
                  caller: Optional[dict], txn: Optional[dict]
                  ) -> tuple[dict, bool]:
    """Insert the intent if new; return ``(record, created)``.

    The conditional put makes the first invocation win; IC re-executions
    and duplicate deliveries read the existing record and replay with the
    original arguments/timestamps (determinism requirement, §3.1).
    """
    record = {
        "InstanceId": instance_id,
        "Function": function,
        "Done": False,
        "Async": is_async,
        "Args": args,
        "StartTime": now,
        "Pending": "1",
        "LastLaunched": now,
    }
    if caller is not None:
        record["Caller"] = caller
    if txn is not None:
        record["Txn"] = txn
    try:
        env.store.put(env.intent_table, record,
                      condition=AttrNotExists("InstanceId"))
        return record, True
    except ConditionFailed:
        existing = env.store.get(env.intent_table, instance_id)
        if existing is None:  # pragma: no cover - GC raced us; treat as new
            return record, True
        return existing, False


def get_intent(env: BeldiEnv, instance_id: str) -> Optional[dict]:
    return env.store.get(env.intent_table, instance_id)


def relaunched(intent: dict) -> bool:
    """Has an intent collector restarted this intent (``record_launch``)?
    Registration stamps both times with the same clock reading."""
    return intent.get("LastLaunched") != intent.get("StartTime")


def mark_done(env: BeldiEnv, instance_id: str, ret: Any) -> None:
    """Flip the intent to done and drop it from the pending index.

    Unconditional: marking an already-done intent again (IC duplicate
    finishing a race) writes the same deterministic return value.
    """
    env.store.update(
        env.intent_table, instance_id,
        [Set("Done", True), Set("Ret", ret), Remove("Pending")])


def record_launch(env: BeldiEnv, instance_id: str, now: float,
                  previous: float) -> bool:
    """IC rate limiting: claim the right to restart this instance.

    Conditional on the previously observed ``LastLaunched`` so that
    concurrent IC instances spawn one duplicate, not many.
    """
    try:
        env.store.update(
            env.intent_table, instance_id,
            [Set("LastLaunched", now)],
            condition=Eq("LastLaunched", previous))
        return True
    except ConditionFailed:
        return False


def pending_intents(env: BeldiEnv) -> list[dict]:
    """All not-yet-done intents, via the sparse secondary index (§3.3)."""
    from repro.core.env import PENDING_INDEX
    return env.store.query_index(env.intent_table, PENDING_INDEX, "1")
