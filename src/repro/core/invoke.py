"""SSF-to-SSF invocation with exactly-once semantics (§4.5).

The invoke log pins down the callee's identity: every execution of a
caller step names the same callee instance id, so the callee can tell
re-deliveries from new work via its own intent table. On the paper path
the first execution draws a fresh id and conditionally logs it — the
*claim* — and every re-execution reuses the logged id. With the
``async_io`` feature the id is a pure function of ``(caller instance,
step)`` on every path (:func:`_derived_callee_id`), so all executions
agree on it before anything is written, and the claim is left with one
job: being durable before the caller acts on a result.

That is what lets an invoke open **pipelined**
(``docs/async_io.md``): a first execution outside a transaction starts
the callee's platform invocation first, writes the unchanged
conditional claim while dispatch and the callee's intent put are in
flight (``sync_invoke``'s ``meanwhile``), and consumes the reply only
once the claim has landed. Replays, duplicates and invokes inside a
transaction's Execute mode keep claim-then-invoke: a replay must see a
logged ``Result`` before it starts anything, and a lock-holding callee
must be discoverable through the invoke log (``txn.logged_callees``)
from the moment it can hold a lock. One builder (:func:`_claim`) makes
the entry and the ``call`` payload for all three paths — sync, the
parallel batch, async — which differ only in how the claim is written.

Results travel through the **callback**: before a callee marks itself
done, it re-invokes *some* instance of the caller's function, whose
callback handler records the result in the caller's invoke log (Fig. 9).
Only then may the callee complete — otherwise the callee's independent GC
could recycle the intent before the caller saw the result, and a caller
re-execution would run the callee twice. The callee's direct return value
is merely an optimization — which is why it does not have to wait for
the callback: with the ``async_io`` feature a callee replies as soon as
its result is fixed and delivers the callback afterwards, beside its
caller (``repro.core.runtime``).

The caller side below is the same either way. A caller that consumed a
direct reply and later replays finds the logged ``Result``, or — the
callback had not landed, or never will from that execution — no result;
then it re-invokes the *same* callee id, and the callee's intent answers
identically (unfinished: it replays from its logs; ``Done``: it returns
``Ret`` and re-issues the callback). That is the path a callee that died
before its callback always took.

Asynchronous invocation splits in two (Fig. 20): a synchronous
*registration* call that logs the intent in the callee's intent table and
acks back into the caller's invoke log, then the actual async dispatch.
If the dispatch is lost, the callee's IC finds the registered, unfinished
intent and runs it.

Every delivery that must happen at least once — the sync call, the async
registration, the callee's callback and ack (``runtime.py``), a
transaction's Commit/Abort signal (``txn.py``) — retries through the one
loop, :func:`at_least_once`: what counts as a failed delivery, the
back-off schedule and the retry limit are stated there and nowhere else.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.core.errors import InvokeFailed, NotSupported, TxnAborted
from repro.core.ops import flush_read_log
from repro.kvstore import (
    AttrNotExists,
    ConditionFailed,
    Eq,
    Set,
    batch_write_all,
)
from repro.platform.errors import (
    FunctionCrashed,
    FunctionTimeout,
    TooManyRequests,
)

ASYNC_ACK = "__beldi_async_ack__"
TXN_ABORT_MARKER = "__beldi_txn_abort__"
#: "The invoke log holds no result for this step yet" — distinct from a
#: callee that legitimately returned ``None``.
NO_RESULT = object()


def wrap_result(result: Any, aborted: bool) -> Any:
    return TXN_ABORT_MARKER if aborted else result


def unwrap_result(result: Any) -> Any:
    if result == TXN_ABORT_MARKER:
        raise TxnAborted("callee died inside the transaction")
    return result


def at_least_once(platform_ctx, config, attempt, recovered=None,
                  exhausted=None) -> Any:
    """The one delivery loop: run ``attempt()`` — a platform invocation —
    until the platform delivers it, and return what it returned.

    After a failed delivery (the worker crashed, timed out, or found no
    slot) ``recovered()`` may show that the outcome arrived some other
    way — it returns that outcome, or ``NO_RESULT`` — which ends the
    loop without another attempt. Otherwise the ``n``-th failure sleeps
    ``invoke_retry_backoff * n`` virtual ms and retries; past
    ``invoke_retry_limit`` failures it raises ``exhausted(n)`` or,
    without one, the platform's own error.
    """
    attempts = 0
    while True:
        try:
            return attempt()
        except (FunctionCrashed, FunctionTimeout, TooManyRequests):
            if recovered is not None:
                outcome = recovered()
                if outcome is not NO_RESULT:
                    return outcome
            attempts += 1
            if attempts > config.invoke_retry_limit:
                if exhausted is not None:
                    raise exhausted(attempts)
                raise
            platform_ctx.sleep(config.invoke_retry_backoff * attempts)


def _derived_callee_id(instance_id: str, step: int) -> str:
    """A callee instance id that is a pure function of the caller step.

    With the ``async_io`` feature every executor of one logical instance
    must name the same callee for a step *before* any claim lands — the
    batched claim writes byte-identical rows without a condition, and a
    pipelined open starts the callee while its claim is still in flight
    — so the id cannot be a fresh draw pinned by a conditional put: it
    derives from ``(instance id, step)``, both stable under replay.
    Uniqueness follows from instance-id uniqueness.
    """
    digest = hashlib.md5(
        f"{instance_id}|{step}|callee".encode("utf-8")).hexdigest()
    return f"c-{digest}"


def _claim(ctx, step: int, callee: str, payload_input: Any,
           is_async: bool) -> tuple[dict, dict]:
    """What claims ``step`` and what it sends: the invoke-log entry and
    the ``call`` payload, both naming the same callee instance.

    One id rule per configuration: derived with ``async_io`` (on *every*
    path — an execution that drew a fresh id beside a duplicate that
    derived one would run the callee under two ids), a fresh draw pinned
    by the conditional claim on the paper path.
    """
    if ctx.config.has_async_io:
        callee_id = _derived_callee_id(ctx.instance_id, step)
    else:
        callee_id = ctx.fresh_callee_id()
    in_txn = ctx.in_txn_execute()
    entry = {
        "InstanceId": ctx.instance_id,
        "Step": step,
        "CalleeId": callee_id,
        "Callee": callee,
        "Async": is_async,
        "InTxn": in_txn,
    }
    call = {
        "kind": "call",
        "instance_id": callee_id,
        "input": payload_input,
        "caller": {"ssf": ctx.function_name,
                   "instance_id": ctx.instance_id,
                   "step": step},
        "async": is_async,
    }
    if in_txn:
        call["txn"] = ctx.txn.payload()
        ctx.txn.invoked.append((callee, callee_id))
    return entry, call


def _write_claim(ctx, entry: dict, call: dict) -> Any:
    """Claim the step with the conditional put — or recover the claim
    that is already there, whose callee id (a different fresh draw on
    the paper path) then replaces the one in ``call``.

    Returns the logged result, or ``NO_RESULT``.
    """
    logged = NO_RESULT
    try:
        ctx.store.put(ctx.env.invoke_log, entry,
                      condition=AttrNotExists("InstanceId"))
    except ConditionFailed:
        record = ctx.store.get(ctx.env.invoke_log,
                               (ctx.instance_id, entry["Step"]))
        if record is None:
            raise InvokeFailed("invoke log entry vanished") from None
        call["instance_id"] = record["CalleeId"]
        logged = record.get("Result", NO_RESULT)
    ctx.lifecycle("claim", step=entry["Step"])
    return logged


def _check_logged_result(ctx, step: int) -> Any:
    record = ctx.store.get(ctx.env.invoke_log, (ctx.instance_id, step))
    return NO_RESULT if record is None else record.get("Result", NO_RESULT)


def prepare_invoke(ctx, callee: str, payload_input: Any) -> dict:
    """Phase 1 of a synchronous invoke: allocate the step and pin the
    callee id in the invoke log. Deterministic and sequential, so
    parallel invocations replay with stable step numbers.

    A pipelined open (:attr:`BeldiContext.pipelines_invokes`) leaves the
    claim ``unclaimed``: :func:`complete_invoke` writes it beside the
    callee's dispatch.
    """
    flush_read_log(ctx)
    step = ctx.next_step()
    ctx.crash_point(f"invoke:{step}:start")
    entry, call = _claim(ctx, step, callee, payload_input, is_async=False)
    prepared = {"step": step, "callee": callee, "call": call,
                "logged": NO_RESULT}
    if ctx.pipelines_invokes:
        prepared["unclaimed"] = entry
    else:
        prepared["logged"] = _write_claim(ctx, entry, call)
    return prepared


def complete_invoke(ctx, prepared: dict, crash_points: bool = True) -> Any:
    """Phase 2: deliver (with the crash-retry loop) and return the result.

    If the platform reports a failed delivery, the result may still have
    arrived through the callback (the callee may have finished and died
    before replying) — so each retry first consults the invoke log before
    re-invoking with the *same* callee id.

    An ``unclaimed`` step is claimed here, between the callee's start
    and the wait for its reply (``sync_invoke``'s ``meanwhile``): the
    reply is consumed only once the claim is durable. If the callee
    never started (no slot), the order falls back to claim, then retry.
    """
    if prepared["logged"] is not NO_RESULT:
        return unwrap_result(prepared["logged"])
    step = prepared["step"]
    callee = prepared["callee"]
    call = prepared["call"]

    def claim() -> None:
        _write_claim(ctx, prepared["unclaimed"], call)
        del prepared["unclaimed"]

    def claim_beside_dispatch() -> None:
        if crash_points:
            ctx.crash_point(f"invoke:{step}:dispatched")
        claim()

    def deliver() -> Any:
        if crash_points:
            ctx.crash_point(f"invoke:{step}:before-call")
        result = ctx.platform_ctx.sync_invoke(
            callee, call,
            meanwhile=(claim_beside_dispatch
                       if "unclaimed" in prepared else None))
        if crash_points:
            ctx.crash_point(f"invoke:{step}:after-call")
        return result

    def logged_result() -> Any:
        if "unclaimed" in prepared:
            claim()
        return _check_logged_result(ctx, step)

    with ctx.trace(f"step.invoke:{callee}", cat="step",
                   span_id=f"{ctx.instance_id}#{step}", step=step,
                   callee=call["instance_id"]):
        return unwrap_result(at_least_once(
            ctx.platform_ctx, ctx.config, deliver, recovered=logged_result,
            exhausted=lambda attempts: InvokeFailed(
                f"sync invoke of {callee!r} failed after "
                f"{attempts} attempts")))


def sync_invoke_op(ctx, callee: str, payload_input: Any) -> Any:
    """Fig. 8's caller path: prepare, then deliver."""
    return complete_invoke(ctx, prepare_invoke(ctx, callee,
                                               payload_input))


def prepare_parallel_invokes(ctx, calls: list) -> list:
    """Phase 1 for a parallel fan-out, coalesced (``async_io`` feature).

    The seed path claims N invoke-log entries with N conditional puts —
    N sequential round trips whose only job is to pin each step's callee
    id against a racing re-execution. The batched path relies on the
    entries being *deterministic* (see :func:`_derived_callee_id`) and
    claims them all with one unconditional ``batch_write``: concurrent
    executors write identical rows, so overwrites commute and no
    condition is needed — which is exactly what DynamoDB's
    ``BatchWriteItem`` (no conditions) permits.

    The one observable race: a replayed claim can overwrite an entry
    *after* a fast callee's callback recorded its ``Result``, erasing
    it. That loses nothing — the replayer re-invokes the **same** callee
    id, the callee's intent table replays the logged return (§4.5's
    exactly-once backstop), and the callback re-records. The caller's
    GC horizon (no instance outlives ``T``) keeps the callee's intent
    alive for every such retry. Partial batch throttles retry through
    :func:`~repro.kvstore.batch_write_all`; entries always land before
    any dispatch, preserving the entry-before-invoke invariant the
    callback handler relies on.
    """
    if not ctx.config.has_async_io or len(calls) < 2:
        return [prepare_invoke(ctx, callee, payload)
                for callee, payload in calls]
    flush_read_log(ctx)
    prepared = []
    entries = []
    for callee, payload_input in calls:
        step = ctx.next_step()
        entry, call = _claim(ctx, step, callee, payload_input,
                             is_async=False)
        entries.append(entry)
        prepared.append({"step": step, "callee": callee, "call": call,
                         "logged": NO_RESULT})
    first_step = prepared[0]["step"]
    ctx.crash_point(f"pinvoke:{first_step}:before-claim")
    batch_write_all(ctx.store, ctx.env.invoke_log, puts=entries)
    for entry in entries:
        ctx.lifecycle("claim", step=entry["Step"])
    ctx.crash_point(f"pinvoke:{first_step}:after-claim")
    return prepared


def parallel_invoke_op(ctx, calls: list) -> list:
    """Concurrent synchronous invocations, joined (§6.2's threads).

    Steps and invoke-log entries are allocated sequentially first, so
    re-executions replay the identical log keys regardless of completion
    order; only the deliveries run concurrently. With the
    ``async_io`` feature the N entry claims coalesce into one
    ``batch_write`` round trip (see :func:`prepare_parallel_invokes`).
    A TxnAborted from any branch is re-raised after all branches join
    (locks held by the survivors stay consistent for the abort
    protocol).
    """
    prepared = prepare_parallel_invokes(ctx, calls)
    kernel = ctx.runtime.kernel
    procs = [kernel.spawn(complete_invoke, ctx, p, False,
                          name=f"parallel:{p['callee']}")
             for p in prepared]
    results: list = []
    aborted = False
    first_error: Any = None
    for proc in procs:
        try:
            results.append(kernel.join(proc))
        except TxnAborted:
            aborted = True
            results.append(None)
        except Exception as exc:  # noqa: BLE001 - joined below
            first_error = first_error or exc
            results.append(None)
    if aborted:
        raise TxnAborted("a parallel branch died inside the transaction")
    if first_error is not None:
        raise first_error
    return results


def async_invoke_op(ctx, callee: str, payload_input: Any) -> None:
    """Fig. 20's caller path: register synchronously, then fire async."""
    if ctx.in_txn_execute():
        raise NotSupported("asyncInvoke is not supported in transactions")
    flush_read_log(ctx)
    step = ctx.next_step()
    with ctx.trace(f"step.async_invoke:{callee}", cat="step",
                   span_id=f"{ctx.instance_id}#{step}", step=step):
        ctx.crash_point(f"invoke:{step}:start")
        entry, call = _claim(ctx, step, callee, payload_input,
                             is_async=True)
        acked = _write_claim(ctx, entry, call) == ASYNC_ACK
        if not acked:
            registration = dict(call, kind="async_register")
            at_least_once(
                ctx.platform_ctx, ctx.config,
                lambda: ctx.platform_ctx.sync_invoke(callee, registration),
                recovered=lambda: (
                    ASYNC_ACK if _check_logged_result(ctx, step) == ASYNC_ACK
                    else NO_RESULT),
                exhausted=lambda attempts: InvokeFailed(
                    f"async registration with {callee!r} failed "
                    f"after {attempts} attempts"))
        ctx.crash_point(f"invoke:{step}:before-async")
        # At-least-once from here: if this dispatch is lost (or we
        # crash), the callee's intent collector finds the registered
        # intent and runs it.
        ctx.platform_ctx.async_invoke(
            callee, {"kind": "call", "instance_id": call["instance_id"],
                     "async": True})


def record_callback(env, store, log_instance: str, log_step: int,
                    callee_id: str, result: Any) -> bool:
    """Callback handler body: pin the result into the caller's invoke log.

    Conditioned on the logged callee id so a *spurious* callback — from a
    callee re-executed after the caller was garbage collected, or a stale
    duplicate — is detected and ignored (§4.5).
    """
    try:
        store.update(env.invoke_log, (log_instance, log_step),
                     [Set("Result", result)],
                     condition=Eq("CalleeId", callee_id))
        return True
    except ConditionFailed:
        return False
