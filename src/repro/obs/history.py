"""The one reader of a run's trace: one pass over its records builds the
client-visible history, the lifecycle ledger and the indexes every other
question about the run is answered from.

The history: every logical DAAL op (``op.read`` / ``op.write`` /
``op.cond_write``, id ``"<instance>#<step>"``) with the executions that
ran it — each one's virtual interval, whether it completed (``ok``) or
died not knowing (``info``), and the version it read or landed — plus
every transaction: its begin, its decision (commit is ``ok``, abort is
``fail``, none yet is ``info``), the versions its locked reads returned,
its commit flushes installed, and its protocol events in happen order.

The lifecycle ledger: claim → start → flush → reply → consumed,
callback → ``Done`` (``docs/async_io.md``).

A version is the stamp the protocol already holds: the ``[RowId,
Version]`` of the tail row a read fetched or an update returned. Rows
of one item are ordered by their ``row:append`` events (``HEAD``
first), versions within a row by ``Version``, so an item's versions are
totally ordered (``docs/testing.md``, "Checked histories").

The records are the tracer's (``tracer.records``) or the rows its
``to_jsonl`` writes (:func:`load` reads a JSONL file or an
``Observability.export`` / DST failure artifact); both build the same
history. The checkers (``tests/core/history.py``) and the report
(:mod:`repro.obs.report`) read a run through :class:`History` only.
"""

from __future__ import annotations

import json
import pathlib
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
    #: ``(event name, ts, seq)`` of its ``txn:*`` / ``lock:*`` events,
    #: in happen order.
    marks: list = field(default_factory=list)

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
    """The history, ledger and indexes of one run's records (one pass).

    Records are read in the order given: instant events are appended as
    they happen, so their order is happen order (``docs/observability.md``,
    "Lifecycle events"); ``to_jsonl`` keeps it.
    """

    def __init__(self, records) -> None:
        self.records = list(records)
        self.calls: dict = {}        # op id -> [(item, Call)]
        self.txns: dict = {}         # txn id -> Txn
        self._next_row: dict = {}    # item -> {row -> successor}
        self._names: dict = {}       # name -> [record]
        self._cats: dict = {}        # cat -> [record]
        self._ids: dict = {}         # span id -> [record]
        self._children: dict = {}    # parent id -> [record]
        #: Reads checker (a) leaves to checker (b), by why.
        self.excluded = {"degraded": 0, "eventual": 0}
        serving = {}
        lifecycle = []
        for record in self.records:
            cat, name, args = record["cat"], record["name"], record["args"]
            parent = record.get("parent_id")
            self._names.setdefault(name, []).append(record)
            self._cats.setdefault(cat, []).append(record)
            self._ids.setdefault(record.get("span_id"), []).append(record)
            if parent is not None:
                self._children.setdefault(parent, []).append(record)
            if cat == "lifecycle":
                if name in EVENTS:
                    lifecycle.append(record)
                continue
            if cat == "request":
                if parent is not None:
                    serving[_execution(args)] = (parent, args.get("txn"))
                continue
            if name in OPS:
                self._op(record)
            elif name in EVENTUAL_OPS:
                self.excluded["eventual"] += 1
            elif name in PROTOCOL:
                self._protocol(record)
            elif cat == "txn" and name.startswith(("txn.finish:",
                                                   "txn.resolve")):
                self._decision(record)
        self.rows = _ledger(lifecycle, serving)

    # -- the one pass ---------------------------------------------------------
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
            return
        if "txn" not in args:
            return
        txn = self._txn(args["txn"])
        txn.marks.append((name, record.get("ts"), record["seq"]))
        if name == "txn:begin":
            if txn.begin is None:
                txn.begin, txn.begin_seq = record["ts"], record["seq"]
        elif name == "txn:flush":
            txn.installs.append(
                (_item(args), args["version"], record["seq"]))
        elif name == "txn:release":
            txn.releases.setdefault(_item(args), record["seq"])

    def _decision(self, record: dict) -> None:
        args = record["args"]
        txn = self._txn(args["txn"])
        txn.modes.add(args.get("mode") or record["name"].split(":")[1])
        if record["name"].startswith("txn.finish:") and not args.get(
                "failed"):
            end = record["ts"] + (record["dur"] or 0.0)
            txn.end = end if txn.end is None else max(txn.end, end)

    # -- accessors ------------------------------------------------------------
    def count(self, name: str) -> int:
        """How many ``name`` records the run holds."""
        return len(self._names.get(name, ()))

    def named(self, name: str) -> list:
        """The ``name`` records, in the order read."""
        return list(self._names.get(name, ()))

    def prefixed(self, *prefixes: str) -> list:
        """The records whose name starts with one of ``prefixes``, in
        ``(ts, seq)`` order."""
        return sorted((record for name, records in self._names.items()
                       if name.startswith(prefixes) for record in records),
                      key=lambda record: (record["ts"], record["seq"]))

    def in_cat(self, cat: str) -> list:
        """The records of one category, in the order read."""
        return list(self._cats.get(cat, ()))

    def spans(self, span_id: str) -> list:
        """The records with id ``span_id``; intent-collapse re-executions
        repeat an id."""
        return list(self._ids.get(span_id, ()))

    def children(self, span_id: str) -> list:
        """The records whose ``parent_id`` is ``span_id``: nested spans
        and events, and a sync callee's ``request:`` span under its
        caller's ``step.invoke`` span."""
        return list(self._children.get(span_id, ()))

    def parent(self, record: dict) -> Optional[dict]:
        """The span ``record`` sits in: of the spans with its
        ``parent_id``, the last opened before it."""
        before = [span for span in self._ids.get(record.get("parent_id"), ())
                  if span["seq"] < record["seq"]]
        return before[-1] if before else None

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


def of(records) -> History:
    return History(records)


def load(path) -> tuple:
    """``(History, metrics)`` of a trace file: the JSONL ``to_jsonl``
    writes (no metrics), or a JSON object holding ``records`` — an
    ``Observability.export`` or a DST failure artifact, whose
    ``metrics`` snapshot comes along."""
    text = pathlib.Path(path).read_text()
    try:
        data = json.loads(text)
    except ValueError:
        data = None
    if isinstance(data, dict) and "records" in data:
        return History(data["records"]), data.get("metrics") or {}
    return History(json.loads(line) for line in text.splitlines()
                   if line.strip()), {}


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
