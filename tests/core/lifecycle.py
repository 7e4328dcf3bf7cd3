"""The invoke lifecycle ledger: claim → start → flush → reply →
consumed, and callback → ``Done``.

§4.5 orders a sync callee's callback before its ``Done``; replying before
the callback (``docs/async_io.md``) adds that the reply never precedes
the read-log flush; the pipelined invoke open adds that a caller consumes
a reply only once its invoke-log claim is durable, and that a callee
inside a transaction never *starts* before it. All are *orders*,
invisible in a final store, so this module records the events as they
happen — by wrapping the function each goes through — and checks every
execution of every instance::

    with lifecycle.recording() as ledger:
        ...run anything: a sweep point, an explored schedule...
    ledger.check()

One ledger covers one run: instance ids are seeded, so two runs of one
seed reuse them.
"""

from __future__ import annotations

import contextlib
import threading
from unittest import mock

from repro.core import intents, invoke, ops
from repro.core.runtime import BeldiRuntime
from repro.platform import ServerlessPlatform
from repro.platform.context import InvocationContext


class Ledger:
    """Rows ``(kind, execution, subject)`` in the order they happened
    (one process runs at a time, so append order is that order).
    ``execution`` is the invocation context of the worker the event
    happened in. The subject of a flush or ``Done`` is the instance id,
    of a callback the callee it reports (whoever ran the handler), and
    of ``claim`` / ``start`` / ``txn-start`` / ``consumed`` the sync
    invoke step ``(caller instance id, step)``."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self._local = threading.local()

    def note(self, kind: str, instance_id=None) -> None:
        self.rows.append((kind, getattr(self._local, "execution", None),
                          instance_id))

    def kinds(self, kind: str) -> list[tuple]:
        return [row for row in self.rows if row[0] == kind]

    def check(self) -> None:
        """No flush after the reply of the same execution, no reply
        after its ``Done``, and no ``Done`` before a callback for the
        instance was recorded or ignored (an instance nobody is ever
        called back for — a workflow root, an async callee — has none
        to wait for). No caller consumes the reply of a step whose claim
        is not durable yet, and no callee inside a transaction starts
        before it."""
        called_back = {row[2] for row in self.kinds("callback")}
        replied: set = set()
        finished: set = set()
        landed: set = set()
        claimed: set = set()
        for kind, execution, instance_id in self.rows:
            if kind == "claim":
                claimed.add(instance_id)
            elif kind == "txn-start":
                assert instance_id in claimed, (
                    f"callee of {instance_id} started inside a "
                    f"transaction before its claim was durable")
            elif kind == "consumed":
                assert instance_id in claimed, (
                    f"the reply of {instance_id} was consumed before "
                    f"its claim was durable")
            elif kind == "reply":
                assert execution not in finished, (
                    f"{execution} replied after marking Done")
                replied.add(execution)
            elif kind == "flush":
                assert execution not in replied, (
                    f"{execution} flushed its read log after replying")
            elif kind == "callback":
                landed.add(instance_id)
            elif kind == "done":
                finished.add(execution)
                assert (instance_id not in called_back
                        or instance_id in landed), (
                    f"{execution} marked {instance_id} Done before any "
                    f"callback for it was recorded or ignored")


@contextlib.contextmanager
def recording():
    """Record the lifecycle events of everything run inside the scope."""
    ledger = Ledger()
    real_body = BeldiRuntime._run_call_body
    real_flush = ops.flush_read_log
    real_respond = InvocationContext.respond
    real_callback = invoke.record_callback
    real_done = intents.mark_done
    real_claim = invoke._write_claim
    real_batch_claim = invoke.batch_write_all
    real_start = ServerlessPlatform._start_instance
    real_await = ServerlessPlatform._await_result
    #: Callee invocation context -> the sync invoke step it serves.
    serving: dict = {}

    def body(runtime, ssf, platform_ctx, payload, reply):
        # One worker thread, one execution at a time; threads are pooled,
        # so the mark must not outlive the call.
        ledger._local.execution = platform_ctx
        try:
            return real_body(runtime, ssf, platform_ctx, payload, reply)
        finally:
            ledger._local.execution = None

    def flush(ctx):
        real_flush(ctx)
        ledger.note("flush", ctx.instance_id)

    def respond(platform_ctx, result):
        ledger.note("reply")
        real_respond(platform_ctx, result)

    def callback(env, store, log_instance, log_step, callee_id, result):
        recorded = real_callback(env, store, log_instance, log_step,
                                 callee_id, result)
        ledger.note("callback", callee_id)
        return recorded

    def done(env, instance_id, ret):
        ledger.note("done", instance_id)
        real_done(env, instance_id, ret)

    def claim(ctx, entry, call):
        logged = real_claim(ctx, entry, call)
        ledger.note("claim", (entry["InstanceId"], entry["Step"]))
        return logged

    def batch_claim(store, table, puts):
        real_batch_claim(store, table, puts=puts)
        for entry in puts:
            ledger.note("claim", (entry["InstanceId"], entry["Step"]))

    def start(platform, entry, payload):
        caller = (payload or {}).get("caller")
        sync_call = (caller and payload.get("kind") == "call"
                     and not payload.get("async"))
        if sync_call:
            step = (caller["instance_id"], caller["step"])
            ledger.note("txn-start" if payload.get("txn") else "start", step)
        proc, platform_ctx = real_start(platform, entry, payload)
        if sync_call:
            serving[platform_ctx] = step
        return proc, platform_ctx

    def await_result(platform, proc, platform_ctx):
        result = real_await(platform, proc, platform_ctx)
        if platform_ctx in serving:
            ledger.note("consumed", serving[platform_ctx])
        return result

    with contextlib.ExitStack() as patches:
        for target, name, wrapper in (
                (BeldiRuntime, "_run_call_body", body),
                (ops, "flush_read_log", flush),
                (invoke, "flush_read_log", flush),
                (InvocationContext, "respond", respond),
                (invoke, "record_callback", callback),
                (intents, "mark_done", done),
                (invoke, "_write_claim", claim),
                (invoke, "batch_write_all", batch_claim),
                (ServerlessPlatform, "_start_instance", start),
                (ServerlessPlatform, "_await_result", await_result)):
            patches.enter_context(mock.patch.object(target, name, wrapper))
        yield ledger
