"""The invoke lifecycle ledger: claim → start → flush → reply →
consumed, and callback → ``Done`` — read off a run's trace.

§4.5 orders a sync callee's callback before its ``Done``; replying before
the callback (``docs/async_io.md``) adds flush before reply; the
pipelined invoke open adds claim before consumed and, inside a
transaction, before the callee's start. All are *orders*, invisible in a
final store. The protocol says each fact where it becomes true, as a
``cat="lifecycle"`` instant event (``docs/observability.md``); these
are pure functions over one run's records: build the runtime with
``observability=True``, run anything (a sweep point, an explored
schedule), then ``lifecycle.check(runtime.obs.tracer.records)``.
"""

#: The only events :func:`rows` reads; ``tests/obs/test_trace_schema.py``
#: holds them equal to what a traced run emits and to the docs' row.
EVENTS = frozenset({"claim", "start", "consumed", "flush", "reply",
                    "callback", "done"})


def _execution(args: dict) -> tuple:
    """``(function, invocation)`` names a worker on one platform, its
    ``request`` id keeps two platforms that share a tracer apart."""
    return args["function"], args["invocation"], args.get("request")


def rows(records: list) -> list[tuple]:
    """``(kind, execution, subject, seq)`` per lifecycle event, in happen
    order (instant events are appended as they happen). The subject of a
    flush, reply or ``Done`` is the instance id, of a callback the callee
    it reports (whoever ran the handler), and of ``claim`` / ``start`` /
    ``txn-start`` / ``consumed`` the step ``"<caller instance>#<step>"``.
    The platform stamps ``start`` and ``consumed`` with the callee's
    execution only; that execution's ``request:<ssf>`` span, whose parent
    is the caller's step, says which step it serves and whether inside a
    transaction (``txn-start``). Invocations that serve no sync step —
    clients, callbacks, timers, a worker dead before its span — get none.
    """
    serving = {_execution(r["args"]): (r["parent_id"], r["args"].get("txn"))
               for r in records
               if r["cat"] == "request" and r["parent_id"] is not None}
    out = []
    for record in records:
        kind, args = record["name"], record["args"]
        if record["cat"] != "lifecycle" or kind not in EVENTS:
            continue
        execution = _execution(args)
        if kind in ("start", "consumed"):
            if execution not in serving:
                continue
            subject, in_txn = serving[execution]
            if kind == "start" and in_txn:
                kind = "txn-start"
        elif kind == "claim":
            subject = f"{args['instance']}#{args['step']}"
        else:
            subject = args["callee" if kind == "callback" else "instance"]
        out.append((kind, execution, subject, record["seq"]))
    return out


def kinds(records: list, kind: str) -> list[tuple]:
    return [row for row in rows(records) if row[0] == kind]


def check(records: list) -> None:
    """No flush after the reply of the same execution, no reply after
    its ``Done``, no ``Done`` before a callback for the instance was
    recorded or ignored (if any ever is: a workflow root has none to
    wait for), no reply consumed before its step's claim is durable and
    no callee started inside a transaction before it. A failure names
    the ``seq`` of the event that broke the order."""
    ledger = rows(records)
    called_back = {row[2] for row in ledger if row[0] == "callback"}
    replied, finished, landed, claimed = set(), set(), set(), set()
    for kind, who, subject, seq in ledger:
        if kind == "claim":
            claimed.add(subject)
        elif kind == "txn-start":
            assert subject in claimed, (
                f"seq {seq}: callee of {subject} started inside a "
                f"transaction before its claim was durable")
        elif kind == "consumed":
            assert subject in claimed, (
                f"seq {seq}: the reply of {subject} was consumed before "
                f"its claim was durable")
        elif kind == "reply":
            assert who not in finished, (
                f"seq {seq}: {who} replied after marking Done")
            replied.add(who)
        elif kind == "flush":
            assert who not in replied, (
                f"seq {seq}: {who} flushed its read log after replying")
        elif kind == "callback":
            landed.add(subject)
        elif kind == "done":
            finished.add(who)
            assert subject not in called_back or subject in landed, (
                f"seq {seq}: {who} marked {subject} Done before any "
                f"callback for it was recorded or ignored")
