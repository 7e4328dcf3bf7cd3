"""Virtual-time tracer: deterministic nested spans + instant events.

The tracer timestamps everything with the sim kernel's virtual clock, so
two runs with the same seed and schedule produce byte-identical exports.
Records are sorted by ``(virtual time, phase, seq)`` where the seq is a
process-global monotone counter — no wall-clock and no ``id()`` values
ever reach the output.

Span nesting is tracked per sim process: one stack per
``kernel.current_process``, with ``None`` standing for the driver and
kernel callbacks — exactly the per-process nesting the Chrome
trace-event viewer expects.  A stack exists only while it holds an open
span, so none outlives its process.  Cross-process edges (a sync invoke
whose callee executes in another process) are expressed with explicit
``parent_id`` references instead of stack containment.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Optional

#: Record phases for the deterministic sort order: spans sort before
#: instant events at the same virtual instant.
_PHASE_SPAN = 0
_PHASE_EVENT = 1

_SAFE_TYPES = (str, int, float, bool, type(None))


def _sanitize(value: Any) -> Any:
    """Clamp span/event args to JSON-safe primitives.

    Anything exotic is rendered with ``str`` so no object identity (the
    default ``repr`` embeds ``id()``) can leak into the export.
    """
    if isinstance(value, _SAFE_TYPES):
        if isinstance(value, float) and value != value:  # NaN
            return None
        return value
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    if isinstance(value, dict):
        # Keys of mixed types do not compare; their rendered form does.
        return {str(k): _sanitize(v) for k, v in sorted(
            value.items(), key=lambda item: str(item[0]))}
    text = str(value)
    return text if "0x" not in text else type(value).__name__


class _SpanHandle:
    """Context manager closing one span.

    A plain class (not ``@contextmanager``) so the close runs even when
    the body unwinds with a ``BaseException`` — a killed sim process
    raises ``ProcessKilled`` through every active span, and each one
    must still record its end at the kill instant.
    """

    __slots__ = ("_tracer", "_record")

    def __init__(self, tracer: "Tracer", record: dict) -> None:
        self._tracer = tracer
        self._record = record

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self._record, failed=exc_type is not None)
        return False


class Tracer:
    """Collects spans and instant events in virtual time.

    ``kernel`` is anything with the sim kernel's ``now`` (the virtual
    clock) and ``current_process`` (whose span stack is in use).
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.records: list[dict] = []
        self._seq = itertools.count()
        #: Open spans per running process; an entry lives only while it
        #: holds a span.
        self._stacks: dict[Any, list[dict]] = {}

    def _open(self) -> Optional[dict]:
        """The innermost open span of the running process, if any."""
        stack = self._stacks.get(self.kernel.current_process)
        return stack[-1] if stack else None

    # -- recording -------------------------------------------------------------
    def span(self, name: str, cat: str = "op",
             span_id: Optional[str] = None,
             parent_id: Optional[str] = None, **args: Any) -> _SpanHandle:
        """Open a nested span; close it by exiting the handle."""
        stack = self._stacks.setdefault(self.kernel.current_process, [])
        seq = next(self._seq)
        sid = span_id if span_id is not None else f"s{seq}"
        if parent_id is None and stack:
            parent_id = stack[-1]["span_id"]
        track = stack[-1]["track"] if stack else sid
        record = {
            "phase": _PHASE_SPAN,
            "seq": seq,
            "name": name,
            "cat": cat,
            "span_id": sid,
            "parent_id": parent_id,
            "track": track,
            "ts": self.kernel.now,
            "dur": None,
            "args": {str(k): _sanitize(v) for k, v in sorted(args.items())},
        }
        self.records.append(record)
        stack.append(record)
        return _SpanHandle(self, record)

    def _close(self, record: dict, failed: bool = False) -> None:
        process = self.kernel.current_process
        stack = self._stacks.get(process, [])
        now = self.kernel.now
        # Pop through anything the body left open (it can only happen if
        # a nested span leaked; closing parents closes children too).
        while stack and stack[-1] is not record:
            leaked = stack.pop()
            if leaked["dur"] is None:
                leaked["dur"] = max(0.0, now - leaked["ts"])
        if stack:
            stack.pop()
        if not stack:
            self._stacks.pop(process, None)
        if record["dur"] is None:
            record["dur"] = max(0.0, now - record["ts"])
        if failed:
            record["args"]["failed"] = True

    def annotate(self, **args: Any) -> None:
        """Add ``args`` to the innermost open span of the running
        process: a fact its body learned after the span opened (the
        version a DAAL op read or landed, a read served degraded)."""
        record = self._open()
        if record is not None:
            for key, value in args.items():
                record["args"][str(key)] = _sanitize(value)

    def record_span(self, name: str, cat: str, start: float, end: float,
                    **args: Any) -> None:
        """Record an already-finished span with explicit bounds.

        Used by the store layer, whose time source may defer latency
        under async-I/O overlap scopes — the caller passes the interval
        it actually observed.
        """
        parent = self._open()
        seq = next(self._seq)
        sid = f"s{seq}"
        self.records.append({
            "phase": _PHASE_SPAN,
            "seq": seq,
            "name": name,
            "cat": cat,
            "span_id": sid,
            "parent_id": parent["span_id"] if parent else None,
            "track": parent["track"] if parent else sid,
            "ts": start,
            "dur": max(0.0, end - start),
            "args": {str(k): _sanitize(v) for k, v in sorted(args.items())},
        })

    def event(self, name: str, cat: str = "event", **args: Any) -> None:
        """Record an instant event at the current virtual time."""
        parent = self._open()
        seq = next(self._seq)
        self.records.append({
            "phase": _PHASE_EVENT,
            "seq": seq,
            "name": name,
            "cat": cat,
            "span_id": f"s{seq}",
            "parent_id": parent["span_id"] if parent else None,
            "track": parent["track"] if parent else "events",
            "ts": self.kernel.now,
            "dur": None,
            "args": {str(k): _sanitize(v) for k, v in sorted(args.items())},
        })

    # -- export ----------------------------------------------------------------
    def sorted_records(self) -> list[dict]:
        """Records in the deterministic ``(ts, phase, seq)`` order."""
        return sorted(self.records,
                      key=lambda r: (r["ts"], r["phase"], r["seq"]))

    def rows(self) -> list[dict]:
        """The records as ``to_jsonl`` writes them: deterministic order,
        no ``phase`` (a row whose ``dur`` is ``None`` is an instant)."""
        return [{k: v for k, v in record.items() if k != "phase"}
                for record in self.sorted_records()]

    def to_jsonl(self) -> str:
        """One JSON object per line, deterministic order and key order."""
        lines = [json.dumps(row, sort_keys=True) for row in self.rows()]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_chrome(self) -> dict:
        """Chrome trace-event JSON (load in Perfetto / chrome://tracing)."""
        return chrome(self.records)

    def chrome_json(self) -> str:
        return json.dumps(self.to_chrome(), sort_keys=True)


def _phase(record: dict) -> int:
    """A record's phase; a row re-read from JSONL has none, and there an
    instant is a ``dur`` of ``None``."""
    phase = record.get("phase")
    if phase is None:
        return _PHASE_EVENT if record["dur"] is None else _PHASE_SPAN
    return phase


def chrome(records) -> dict:
    """Chrome trace-event JSON of tracer records or their JSONL rows.

    Virtual milliseconds map to trace microseconds.  Tracks (one per
    root span, i.e. per request/timer/process) become ``tid`` rows,
    numbered by first appearance in the ``(ts, phase, seq)`` order so
    the numbering is deterministic.
    """
    ordered = sorted(records,
                     key=lambda r: (r["ts"], _phase(r), r["seq"]))
    tids: dict[str, int] = {}
    events: list[dict] = []
    for record in ordered:
        track = record["track"]
        if track not in tids:
            tids[track] = len(tids)
            events.append({
                "ph": "M", "pid": 0, "tid": tids[track],
                "name": "thread_name", "ts": 0,
                "args": {"name": track},
            })
    for record in ordered:
        args = dict(record["args"])
        args["span_id"] = record["span_id"]
        if record["parent_id"] is not None:
            args["parent_id"] = record["parent_id"]
        event = {
            "name": record["name"],
            "cat": record["cat"],
            "pid": 0,
            "tid": tids[record["track"]],
            "ts": round(record["ts"] * 1000.0, 3),
            "args": args,
        }
        if _phase(record) == _PHASE_SPAN:
            event["ph"] = "X"
            event["dur"] = round((record["dur"] or 0.0) * 1000.0, 3)
        else:
            event["ph"] = "i"
            event["s"] = "t"
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(data: dict) -> list[str]:
    """Structural checks on an exported Chrome trace; returns problems.

    Checks: the event list exists, phases are known, timestamps and
    durations are non-negative finite numbers, and every span that names
    a parent fits inside some recorded interval of that parent (ids may
    repeat across intent-collapse re-executions, so any matching
    interval satisfies the nesting requirement).
    """
    problems: list[str] = []
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    spans_by_id: dict[str, list[tuple[float, float]]] = {}
    for event in events:
        ph = event.get("ph")
        if ph not in ("X", "i", "M"):
            problems.append(f"unknown phase {ph!r} on {event.get('name')}")
            continue
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts != ts or ts < 0:
            problems.append(f"bad ts {ts!r} on {event.get('name')}")
            continue
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur != dur or dur < 0:
                problems.append(
                    f"bad dur {dur!r} on {event.get('name')}")
                continue
            sid = event.get("args", {}).get("span_id")
            if sid is not None:
                spans_by_id.setdefault(sid, []).append((ts, ts + dur))
    # ts and dur are quantized to 0.001 µs independently, so a child's
    # computed end may exceed its parent's by up to two rounding steps.
    tolerance = 0.002
    for event in events:
        if event.get("ph") != "X":
            continue
        parent = event.get("args", {}).get("parent_id")
        if parent is None:
            continue
        intervals = spans_by_id.get(parent)
        if not intervals:
            problems.append(
                f"span {event.get('name')} references unknown parent "
                f"{parent}")
            continue
        start = event["ts"]
        end = start + event["dur"]
        if not any(lo - tolerance <= start and end <= hi + tolerance
                   for lo, hi in intervals):
            problems.append(
                f"span {event.get('name')} [{start}, {end}] escapes "
                f"parent {parent}")
    return problems
