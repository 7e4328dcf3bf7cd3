"""The checkers over a traced run's history.

``repro.obs.history`` reads a run's trace in one pass into the
client-visible history and the lifecycle ledger (``History``, ``of``);
this module checks it. :func:`check` runs three checks over the one
history, each a pure function, each failure naming the ``seq`` of the
records that broke it:

- the lifecycle orders (:func:`check_lifecycle`);
- checker (a), per-key linearizability of strong reads and writes
  outside transactions (:func:`check_linearizable`);
- checker (c), serializability + opacity of transactions by cycle
  detection on a ww / wr / rw / real-time dependency graph, wait-die
  victims included, plus rigorous two-phase locking of every commit
  flush (:func:`check_serializable`) and the early-reply rule: no
  execution shows a value a later ``readlog:rollback`` would change
  (:func:`check_no_early_reply`).

A failing check raises :class:`HistoryViolation`, whose ``witness``
is the smallest history that shows it (JSON-ready; the DST
failure artifact embeds it). Build the runtime with
``observability=True``, run anything, then
``history.check(runtime.obs.tracer.records)``.
"""

from __future__ import annotations

# The reader, and the vocabulary the tests hold equal to the docs.
from repro.obs.history import EVENTS, OPS, PROTOCOL, History, of  # noqa: F401


class HistoryViolation(AssertionError):
    """A checker's failure, with the smallest history that shows it."""

    def __init__(self, message: str, witness: dict) -> None:
        super().__init__(message)
        self.witness = witness

    def __reduce__(self):
        return type(self), (str(self), self.witness)


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
    the ``seq`` of the event that broke the order; its witness holds
    that ledger row and the row on the order's other side (a claim or a
    callback that came too late, if it came at all)."""
    ledger = history.rows
    called_back = {row[2] for row in ledger if row[0] == "callback"}
    replied, finished, landed, claimed = {}, {}, set(), set()

    def later(row, kind: str):
        """The first ``kind`` row for ``row``'s subject after it."""
        return next((other for other in ledger if other[3] > row[3]
                     and other[0] == kind and other[2] == row[2]), None)

    def broken(row, message: str, rule: str, other) -> None:
        raise HistoryViolation(
            f"seq {row[3]}: {message}",
            {"checker": "lifecycle", "rule": rule,
             "rows": [row] + ([other] if other else [])})

    for row in ledger:
        kind, who, subject, _seq = row
        if kind == "claim":
            claimed.add(subject)
        elif kind == "txn-start" and subject not in claimed:
            broken(row, f"callee of {subject} started inside a "
                        f"transaction before its claim was durable",
                   "claim < txn-start", later(row, "claim"))
        elif kind == "consumed" and subject not in claimed:
            broken(row, f"the reply of {subject} was consumed before its "
                        f"claim was durable",
                   "claim < consumed", later(row, "claim"))
        elif kind == "reply":
            if who in finished:
                broken(row, f"{who} replied after marking Done",
                       "reply < done", finished[who])
            replied.setdefault(who, row)
        elif kind == "flush":
            if who in replied:
                broken(row, f"{who} flushed its read log after replying",
                       "flush < reply", replied[who])
        elif kind == "callback":
            landed.add(subject)
        elif kind == "done":
            finished.setdefault(who, row)
            if subject in called_back and subject not in landed:
                broken(row, f"{who} marked {subject} Done before any "
                            f"callback for it was recorded or ignored",
                       "callback < done", later(row, "callback"))


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
    transaction is both committed and aborted, none releases an item's
    lock before its flush installed the item (rigorous 2PL), and no
    execution replies early (:func:`check_no_early_reply`)."""
    check_no_early_reply(history)
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


def check_no_early_reply(history: History) -> None:
    """No execution exposes a value a later ``readlog:rollback`` would
    change: one whose read-log flush lost to a duplicate that logged
    other values (``lost`` on its ``op.read_flush`` span) shows a
    ``readlog:rollback`` of its instance before its next lifecycle event
    (a flush, claim, reply or ``Done``, which any callback or further
    effect of it follows). A failure names that event's and the flush's
    ``seq``."""
    rollbacks = [(record["seq"], record["args"]["instance"])
                 for record in history.named("readlog:rollback")]
    for flush in history.named("op.read_flush"):
        lost = flush["args"].get("lost")
        if lost is None:
            continue
        exposed = next((row for row in history.rows if row[3] > flush["seq"]
                        and row[1] == tuple(lost)), None)
        if exposed is None:
            continue
        instance = exposed[2].split("#")[0]
        if not any(flush["seq"] < seq < exposed[3] and rolled == instance
                   for seq, rolled in rollbacks):
            raise HistoryViolation(
                f"seq {exposed[3]}: {lost[0]} showed its {exposed[0]} of "
                f"{instance} after its read-log flush lost (seq "
                f"{flush['seq']}) without rolling back",
                {"checker": "serializable", "rule": "rollback < exposure",
                 "flush": flush["seq"], "exposed": list(exposed)})


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
