"""Intent-table records: the unit of exactly-once execution (§3.3).

An *intent* is the promise that one SSF instance — identified by its
instance id — will run to completion exactly once. The record carries
everything a re-execution needs: the function name, the original
arguments, the caller coordinates for callbacks, the transaction context,
and the creation timestamp (which doubles as the wait-die priority).

The put comes first on every path but one. With the ``async_io`` feature
a synchronous callee outside a transaction *opens speculatively*: its
put runs in a kernel branch beside the handler's first reads
(:func:`put_beside`) and is joined at the first effect frontier
(``docs/async_io.md``, "Speculative callee open"). An execution that
finds an intent already there has shown nothing yet and starts over
from it (:class:`IntentFound`).
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
from repro.kvstore.item import freeze_value
from repro.sim.kernel import Process, ProcessCrashed


class IntentFound(ProcessCrashed):
    """A speculative open's put found the intent of an earlier execution
    (a duplicate delivery, an IC relaunch). Like ``ops.ReadLogLost`` it
    is a crash to everything but the runtime's instance wrapper, which
    answers a ``Done`` intent with its ``Ret`` and otherwise replays
    from the logs: nothing the run read was shown to anyone."""

    def __init__(self, record: dict) -> None:
        super().__init__()
        self.record = record


def draft_intent(instance_id: str, function: str, args: Any, now: float,
                 is_async: bool, caller: Optional[dict],
                 txn: Optional[dict]) -> dict:
    """The record a first execution puts (:func:`put_intent`)."""
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
        # Unique to one call (it names the caller's instance and step):
        # frozen here without a lookup, and the store takes it as it is.
        record["Caller"] = freeze_value(caller, lookup=False)[0]
    if txn is not None:
        record["Txn"] = txn
    return record


def put_intent(env: BeldiEnv, record: dict) -> tuple[dict, bool]:
    """Put ``record`` if its instance has no intent; return ``(the
    stored record, created)``.

    The conditional put makes the first invocation win; IC re-executions
    and duplicate deliveries read the existing record and replay with the
    original arguments/timestamps (determinism requirement, §3.1).
    """
    try:
        env.store.put(env.intent_table, record,
                      condition=AttrNotExists("InstanceId"))
        return record, True
    except ConditionFailed:
        existing = env.store.get(env.intent_table, record["InstanceId"])
        if existing is None:  # pragma: no cover - GC raced us; treat as new
            return record, True
        return existing, False


def put_beside(runtime, env: BeldiEnv, record: dict) -> Process:
    """Start :func:`put_intent` of ``record`` in a kernel branch of its
    own, under the running invocation's deadline (so with its retries);
    the branch's result is the put's outcome."""
    resilience, obs = runtime.resilience, runtime.obs
    deadline = (resilience.current_deadline()
                if resilience is not None else None)

    def put() -> tuple[dict, bool]:
        token = (resilience.push_deadline(deadline)
                 if deadline is not None else None)
        try:
            if obs is None:
                return put_intent(env, record)
            # A process of its own: its span names the request it is for.
            with obs.tracer.span("op.intent", cat="op",
                                 parent_id=record["InstanceId"]):
                return put_intent(env, record)
        finally:
            if token is not None:
                resilience.pop_deadline(token)

    return runtime.kernel.spawn(put, name=f"intent:{record['Function']}")


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
