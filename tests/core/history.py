"""The client-visible history of a traced run, and the checkers that
read it — the one reader of a run's trace.

One pass over ``tracer.records`` builds two things:

- the **history**: every logical DAAL op (``op.read`` / ``op.write`` /
  ``op.cond_write``, id ``"<instance>#<step>"``) with the executions
  that ran it — each one's virtual interval, whether it completed
  (``ok``) or died not knowing (``info``), and the version it read or
  landed — plus every transaction: its begin, its decision (commit is
  ``ok``, abort is ``fail``, none yet is ``info``), the versions its
  locked reads returned and its commit flushes installed;
- the **lifecycle ledger**: claim → start → flush → reply → consumed,
  callback → ``Done`` (``docs/async_io.md``).

A version is the stamp the protocol already holds: the ``[RowId,
Version]`` of the tail row a read fetched or an update returned. Rows
of one item are ordered by their ``row:append`` events (``HEAD``
first), versions within a row by ``Version``, so an item's versions are
totally ordered (``docs/testing.md``, "Checked histories").

:func:`check` runs three checks over the one history, each a pure
function, each failure naming the ``seq`` of the records that broke it:

- the lifecycle orders (:func:`check_lifecycle`);
- checker (a), per-key linearizability of strong reads and writes
  outside transactions (:func:`check_linearizable`);
- checker (c), serializability + opacity of transactions by cycle
  detection on a ww / wr / rw / real-time dependency graph, wait-die
  victims included, plus rigorous two-phase locking of every commit
  flush (:func:`check_serializable`).

A failing (a) or (c) raises :class:`HistoryViolation`, whose
``witness`` is the smallest history that shows it (JSON-ready; the DST
failure artifact embeds it). Build the runtime with
``observability=True``, run anything, then
``history.check(runtime.obs.tracer.records)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

#: The lifecycle events the ledger reads; ``tests/obs/test_trace_schema.py``
#: holds them equal to what a traced run emits and to the docs' row.
EVENTS = frozenset({"claim", "start", "consumed", "flush", "reply",
                    "callback", "done"})

#: The protocol events the history reads (``docs/observability.md``,
#: "Protocol events"), and the op spans whose args carry versions.
PROTOCOL = frozenset({"txn:begin", "txn:flush", "txn:release",
                      "row:append", "lock:acquired", "lock:wait",
                      "lock:die", "readlog:rollback"})
OPS = frozenset({"op.read", "op.write", "op.cond_write"})
#: Read ops whose API promises only bounded staleness: checker (b)'s.
EVENTUAL_OPS = frozenset({"op.roread", "op.read_many"})

#: Protocol scratch tables: never an item a client reads.
_SHADOW = ".shadow"
_HEAD = "HEAD"


class HistoryViolation(AssertionError):
    """A checker's failure, with the smallest history that shows it."""

    def __init__(self, message: str, witness: dict) -> None:
        super().__init__(message)
        self.witness = witness

    def __reduce__(self):
        return type(self), (str(self), self.witness)


@dataclass
class Call:
    """One execution of one logical op: what a client-side history
    calls an invoke and its completion."""

    op: str
    name: str
    seq: int
    start: float
    end: float
    ok: bool
    txn: Optional[str]
    #: ``[RowId, Version]`` read (``None``: no item yet), absent when
    #: the call read nothing (a replay answered from the read log).
    read: Any = None
    has_read: bool = False
    #: ``[RowId, Version]`` the call's conditional update returned.
    landed: Any = None
    degraded: bool = False

    def json(self) -> dict:
        out = {"op": self.op, "name": self.name, "seq": self.seq,
               "start": self.start, "end": self.end,
               "type": "ok" if self.ok else "info"}
        if self.txn is not None:
            out["txn"] = self.txn
        if self.has_read:
            out["read"] = self.read
        if self.landed is not None:
            out["landed"] = self.landed
        if self.degraded:
            out["degraded"] = True
        return out


@dataclass
class Txn:
    """One transaction as its participants' records tell it."""

    txn: str
    begin: Optional[float] = None
    begin_seq: Optional[int] = None
    #: End of its last completed ``txn.finish`` span.
    end: Optional[float] = None
    modes: set = field(default_factory=set)
    #: ``(item, version, seq)`` of every locked data read.
    reads: list = field(default_factory=list)
    #: ``(item, version, seq)`` of every commit flush.
    installs: list = field(default_factory=list)
    #: ``item -> seq`` of the first lock release without an install.
    releases: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        if "commit" in self.modes:
            return "ok"
        return "fail" if "abort" in self.modes else "info"


def _execution(args: dict) -> tuple:
    """``(function, invocation)`` names a worker on one platform, its
    ``request`` id keeps two platforms that share a tracer apart."""
    return args["function"], args["invocation"], args.get("request")


def _item(args: dict) -> tuple:
    key = args["key"]
    return args["table"], tuple(key) if isinstance(key, list) else key


class History:
    """The history and ledger of one run's records (one pass)."""

    def __init__(self, records: list) -> None:
        self.events: dict = {}
        self.calls: dict = {}        # op id -> [Call]
        self.txns: dict = {}         # txn id -> Txn
        self._next_row: dict = {}    # item -> {row -> successor}
        #: Reads checker (a) leaves to checker (b), by why.
        self.excluded = {"degraded": 0, "eventual": 0}
        serving = {}
        lifecycle = []
        for record in records:
            cat, name, args = record["cat"], record["name"], record["args"]
            if cat == "lifecycle":
                if name in EVENTS:
                    lifecycle.append(record)
                    self.events.setdefault(name, []).append(record)
                continue
            if cat == "request":
                if record["parent_id"] is not None:
                    serving[_execution(args)] = (record["parent_id"],
                                                 args.get("txn"))
                continue
            if name in OPS:
                self._op(record)
            elif name in EVENTUAL_OPS:
                self.excluded["eventual"] += 1
            elif name in PROTOCOL:
                self.events.setdefault(name, []).append(record)
                self._protocol(record)
            elif cat == "txn" and name.startswith(("txn.finish:",
                                                   "txn.resolve")):
                self._decision(record)
        self.rows = _ledger(lifecycle, serving)

    # -- the one pass ------------------------------------------------------------
    def _txn(self, txn_id: str) -> Txn:
        txn = self.txns.get(txn_id)
        if txn is None:
            txn = self.txns[txn_id] = Txn(txn_id)
        return txn

    def _op(self, record: dict) -> None:
        args = record["args"]
        if args["table"].endswith(_SHADOW):
            return
        start = record.get("ts", 0.0)
        call = Call(
            op=record["span_id"], name=record["name"], seq=record["seq"],
            start=start, end=start + (record.get("dur") or 0.0),
            ok=not args.get("failed"), txn=args.get("txn"),
            read=args.get("read"), has_read="read" in args,
            landed=args.get("landed"),
            degraded=bool(args.get("degraded")))
        self.calls.setdefault(call.op, []).append((_item(args), call))
        if call.degraded and call.txn is None:
            self.excluded["degraded"] += 1
        if call.txn is not None and call.has_read:
            self._txn(call.txn).reads.append(
                (_item(args), call.read, call.seq))

    def _protocol(self, record: dict) -> None:
        name, args = record["name"], record["args"]
        if name == "row:append":
            self._next_row.setdefault(_item(args), {})[
                args["prev"]] = args["row"]
        elif name == "txn:begin":
            txn = self._txn(args["txn"])
            if txn.begin is None:
                txn.begin, txn.begin_seq = record["ts"], record["seq"]
        elif name == "txn:flush":
            self._txn(args["txn"]).installs.append(
                (_item(args), args["version"], record["seq"]))
        elif name == "txn:release":
            self._txn(args["txn"]).releases.setdefault(
                _item(args), record["seq"])

    def _decision(self, record: dict) -> None:
        args = record["args"]
        txn = self._txn(args["txn"])
        txn.modes.add(args.get("mode") or record["name"].split(":")[1])
        if record["name"].startswith("txn.finish:") and not args.get(
                "failed"):
            end = record["ts"] + (record["dur"] or 0.0)
            txn.end = end if txn.end is None else max(txn.end, end)

    # -- accessors -------------------------------------------------------------------
    def count(self, name: str) -> int:
        """How many ``name`` events (lifecycle or protocol) the run said."""
        return len(self.events.get(name, ()))

    def named(self, name: str) -> list:
        """The ``name`` records, in happen order."""
        return list(self.events.get(name, ()))

    def kinds(self, kind: str) -> list:
        """The ledger rows of one kind (``"txn-start"`` included)."""
        return [row for row in self.rows if row[0] == kind]

    def ranker(self):
        """``(item, [RowId, Version] | None) -> sortable rank`` (``None``
        when the item's row order is unknown): the total order of an
        item's versions."""
        orders: dict = {}

        def order(item) -> dict:
            if item not in orders:
                next_row = self._next_row.get(item, {})
                ranks, row = {}, _HEAD
                while row is not None and row not in ranks:
                    ranks[row] = len(ranks)
                    row = next_row.get(row)
                orders[item] = ranks
            return orders[item]

        def rank(item, version) -> Optional[tuple]:
            if version is None:
                return (-1, 0)
            row = order(item).get(version[0])
            return None if row is None else (row, version[1])

        return rank


def of(records: list) -> History:
    return History(records)


def _ledger(lifecycle: list, serving: dict) -> list[tuple]:
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
    out = []
    for record in lifecycle:
        kind, args = record["name"], record["args"]
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


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def check(records: list) -> History:
    """All three checks over one run's records; returns the history."""
    history = History(records)
    check_lifecycle(history)
    check_linearizable(history)
    check_serializable(history)
    return history


def check_lifecycle(history: History) -> None:
    """No flush after the reply of the same execution, no reply after
    its ``Done``, no ``Done`` before a callback for the instance was
    recorded or ignored (if any ever is: a workflow root has none to
    wait for), no reply consumed before its step's claim is durable and
    no callee started inside a transaction before it. A failure names
    the ``seq`` of the event that broke the order."""
    ledger = history.rows
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


def check_linearizable(history: History) -> None:
    """Checker (a): per item, the strong reads and writes outside
    transactions take effect once each, at one point inside their
    interval. With totally ordered versions that is two rules: a logical
    op lands at most one version, and a call that starts after another
    ended never returns or lands an older version than it. Degraded and
    eventual reads are excluded (and counted in ``history.excluded``):
    they promise bounded staleness, checker (b)'s business."""
    rank = history.ranker()
    per_item: dict = {}
    for op, calls in history.calls.items():
        landed = {}
        for item, call in calls:
            if call.txn is not None or call.degraded:
                continue
            if call.landed is not None:
                landed.setdefault(tuple(call.landed), call)
                version = call.landed
            elif call.has_read:
                version = call.read
            else:
                continue
            at = rank(item, version)
            if at is not None:
                per_item.setdefault(item, []).append((at, call))
        if len(landed) > 1:
            first, again = sorted(landed.values(), key=lambda c: c.seq)[:2]
            raise HistoryViolation(
                f"seq {again.seq}: {op} took effect twice: it landed "
                f"{first.landed} (seq {first.seq}) and {again.landed}",
                {"checker": "linearizable", "op": op,
                 "calls": [first.json(), again.json()]})
    for item, entries in sorted(per_item.items(), key=repr):
        _check_real_time(item, entries)


def _check_real_time(item, entries: list) -> None:
    """No call returns a version older than one a call that ended before
    it started returned or landed."""
    by_end = sorted(entries, key=lambda entry: entry[1].end)
    done = 0
    newest = None
    for at, call in sorted(entries, key=lambda entry: (entry[1].start,
                                                       entry[1].seq)):
        while done < len(by_end) and by_end[done][1].end < call.start:
            if newest is None or by_end[done][0] > newest[0]:
                newest = by_end[done]
            done += 1
        if newest is not None and at < newest[0]:
            before = newest[1]
            around = [c.json() for _at, c in entries
                      if c.end >= before.start and c.start <= call.end]
            raise HistoryViolation(
                f"seq {call.seq}: {call.op} on {item} returned version "
                f"{call.landed or call.read}, older than "
                f"{before.landed or before.read} of {before.op} "
                f"(seq {before.seq}), which ended before it started",
                {"checker": "linearizable", "item": list(item),
                 "stale": call.json(), "newer": before.json(),
                 "ops": around})


def check_serializable(history: History) -> None:
    """Checker (c): committed transactions are serializable in an order
    that respects real time, and every aborted one — a wait-die victim
    included — read one consistent snapshot of it (opacity). Nodes are
    transactions; per item, ww edges join consecutive commit flushes in
    version order, a locked read draws wr from the flush it saw and rw to
    the next one, and a transaction that ended before another began
    precedes it. Any cycle fails, naming its ops by ``seq``. Also: no
    transaction is both committed and aborted, and none releases an
    item's lock before its flush installed the item (rigorous 2PL)."""
    rank = history.ranker()
    installs: dict = {}
    for txn in history.txns.values():
        if len(txn.modes) > 1:
            raise HistoryViolation(
                f"seq {txn.begin_seq}: {txn.txn} both committed and "
                f"aborted", {"checker": "serializable", "txn": txn.txn,
                             "decisions": sorted(txn.modes)})
        for item, version, seq in txn.installs:
            released = txn.releases.get(item)
            if released is not None and released < seq:
                raise HistoryViolation(
                    f"seq {released}: {txn.txn} released its lock on "
                    f"{item} before its flush installed it (seq {seq})",
                    {"checker": "serializable", "txn": txn.txn,
                     "item": list(item), "release": released,
                     "flush": seq})
            at = rank(item, version)
            if at is not None:
                installs.setdefault(item, []).append((at, txn.txn, seq))
    edges: dict = {}

    def edge(a: str, b: str, kind: str, seqs: tuple) -> None:
        if a != b:
            edges.setdefault(a, {}).setdefault(b, (kind, seqs))

    for item, flushes in installs.items():
        flushes.sort()
        for (_a, first, s1), (_b, second, s2) in zip(flushes, flushes[1:]):
            edge(first, second, "ww", (s1, s2))
    for txn in history.txns.values():
        for item, version, seq in txn.reads:
            at = rank(item, version)
            flushes = installs.get(item, ())
            if at is None:
                continue
            seen = [f for f in flushes if f[0] <= at]
            later = [f for f in flushes if f[0] > at]
            if seen:
                edge(seen[-1][1], txn.txn, "wr", (seen[-1][2], seq))
            if later:
                edge(txn.txn, later[0][1], "rw", (seq, later[0][2]))
    timed = sorted((t for t in history.txns.values()
                    if t.begin is not None and t.modes),
                   key=lambda t: t.begin)
    for earlier in timed:
        if earlier.end is None:
            continue
        for later in timed:
            if later.begin > earlier.end:
                edge(earlier.txn, later.txn, "rt",
                     (earlier.begin_seq, later.begin_seq))
    cycle = _cycle(edges)
    if cycle:
        steps = [{"from": a, "to": b, "edge": edges[a][b][0],
                  "seq": list(edges[a][b][1])}
                 for a, b in zip(cycle, cycle[1:] + cycle[:1])]
        raise HistoryViolation(
            "transactions not serializable: " + " ".join(
                f"{step['from']} -{step['edge']}(seq "
                f"{step['seq'][0]}->{step['seq'][1]})->"
                for step in steps) + f" {cycle[0]}",
            {"checker": "serializable", "cycle": steps})


def _cycle(edges: dict) -> list:
    """One cycle of the graph (its nodes in order), or ``[]``."""
    state: dict = {}
    for root in sorted(edges):
        if root in state:
            continue
        path, stack = [root], [iter(sorted(edges.get(root, ())))]
        state[root] = "open"
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                state[path.pop()] = "done"
                stack.pop()
            elif state.get(nxt) == "open":
                return path[path.index(nxt):]
            elif nxt not in state:
                state[nxt] = "open"
                path.append(nxt)
                stack.append(iter(sorted(edges.get(nxt, ()))))
    return []
