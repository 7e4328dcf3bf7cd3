"""Answers over one run's trace: why was a request slow, which layer
spent the dollars, what happened in an incident, and what moved.

    python -m repro.obs.report {slow,cost,incident,diff,chrome} FILE [FILE]
                               [--window FROM:TO]

``FILE`` is the JSONL ``tracer.to_jsonl()`` writes, or a JSON object
holding ``records`` (``Observability.export``, a DST failure artifact);
``diff`` also takes two ``perfbench/run.py`` outputs. ``--window`` is
virtual ms, half open, either end optional: it selects requests by
arrival, store round trips and events by time. Every answer is a pure
function over a :class:`~repro.obs.history.History`, the one pass over
the records (``docs/observability.md``, "Reading a trace").
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from collections import Counter
from typing import Any, Iterable, Optional, Sequence

from repro.obs import load_imbalance
from repro.obs.history import History, load
from repro.obs.tracer import chrome

#: Requests ``slow`` prints one row each for, slowest first.
TOP_K = 10
#: The layers in table order; a store round trip is ``store.<op>``.
LAYERS = ("request", "step", "op", "store", "txn", "resilience", "gc")
#: Virtual ms a child may overhang its parent: ``dur`` is ``end - ts``,
#: and adding it back may differ in the last bit.
EPS = 1e-9
#: What ``incident`` lists, by name prefix.
INCIDENT = ("fault:", "breaker:", "failover:", "lock:die",
            "readlog:rollback", "gc:collected")
#: A transaction's events -> its phase lines, in protocol order.
PHASES = {"txn:begin": "begin", "lock:acquired": "locks",
          "lock:wait": "lock:wait", "lock:die": "lock:die",
          "txn:flush": "flush", "txn:release": "release"}
ORDER = (*PHASES.values(), "commit", "abort")


def layer(span: dict) -> str:
    """The layer a span's exclusive time (and a store span's dollars)
    belongs to."""
    if span["cat"] == "store":
        return span["name"]
    if span["name"].startswith("tail:"):
        return "tail"
    return span["cat"]


def _inside(ts: float, window: Optional[tuple]) -> bool:
    return window is None or window[0] <= ts < window[1]


def _end(span: dict) -> float:
    return span["ts"] + span["dur"]


def _spans_under(history: History, span: dict) -> list:
    """The finished spans directly inside ``span``'s interval."""
    return [child for child in history.children(span["span_id"])
            if child["dur"] is not None and child["ts"] >= span["ts"] - EPS
            and _end(child) <= _end(span) + EPS]


def critical_path(history: History, root: dict) -> Counter:
    """Exclusive virtual ms per layer along ``root``'s critical path:
    from a span's end, walk back through its latest-ending child, then
    the latest-ending one before that child's start, and so on; the
    gaps are the span's own. A ``step.invoke`` span's children include
    its callee's ``request:`` span, so the walk crosses into it. The
    layers sum to ``root``'s ``dur``."""
    out: Counter = Counter()
    stack = [root]
    while stack:
        span = stack.pop()
        at = _end(span)
        for child in sorted(_spans_under(history, span), key=_end,
                            reverse=True):
            if _end(child) <= at + EPS:
                out[layer(span)] += at - _end(child)
                stack.append(child)
                at = child["ts"]
        out[layer(span)] += at - span["ts"]
    return out


def tail_ms(history: History, root: dict) -> float:
    """Virtual ms of the ``tail:`` spans (callback + ``Done``, off the
    critical path) of every callee in ``root``'s call tree."""
    total, stack = 0.0, [root]
    while stack:
        span = stack.pop()
        if span["cat"] == "request":
            total += sum(tail["dur"] or 0.0 for tail in history.spans(
                f"{span['span_id']}#tail"))
        stack.extend(_spans_under(history, span))
    return total


def slow(history: History, window: Optional[tuple] = None) -> list:
    """One row per root ``request:`` span arriving in ``window``, in
    arrival order: its ``dur``, exclusive ms per layer, tail ms."""
    return [{"request": root["span_id"], "name": root["name"],
             "ts": root["ts"], "dur": root["dur"],
             "layers": critical_path(history, root),
             "tail": tail_ms(history, root)}
            for root in history.prefixed("request:")
            if root.get("parent_id") is None and root["dur"] is not None
            and _inside(root["ts"], window)]


def cost(history: History, total: Optional[float] = None,
         window: Optional[tuple] = None) -> dict:
    """Dollars per ``(layer, store op)``: each ``store.<op>`` span's
    booked ``dollars``, under the layer of the span it sits in
    (``background`` for none). Given the metered ``total``, what no span
    carries is ``unattributed`` (to 1e-9 dollars, as the snapshot's)."""
    rows: dict = {}
    for span in history.in_cat("store"):
        if _inside(span["ts"], window):
            parent = history.parent(span)
            key = (layer(parent) if parent else "background", span["name"])
            count, dollars = rows.get(key, (0, 0.0))
            rows[key] = (count + 1, dollars + span["args"].get("dollars", 0.0))
    attributed = sum(dollars for _count, dollars in rows.values())
    return {"rows": rows, "total": total,
            "unattributed": (None if total is None
                             else round(total - attributed, 9) + 0.0)}


def phases(history: History, window: Optional[tuple] = None) -> list:
    """One line per transaction and phase — begin, locks, waits, a
    wait-die, flush, release, then the decision at the end of its
    ``txn.finish`` span — each with its first and last virtual ms and
    how many events it holds (the coordinator-log shape)."""
    lines = []
    for txn in history.txns.values():
        first = txn.marks[0][1] if txn.marks else txn.end
        if first is None or not _inside(first, window):
            continue
        groups: dict = {}
        for name, ts, _seq in txn.marks:
            group = groups.setdefault(PHASES[name], [ts, ts, 0])
            group[1], group[2] = ts, group[2] + 1
        if txn.end is not None and txn.status != "info":
            groups["commit" if txn.status == "ok" else "abort"] = [
                txn.end, txn.end, 1]
        lines.extend({"txn": txn.txn, "phase": phase, "ts": ts,
                      "last": last, "n": n}
                     for phase, (ts, last, n) in sorted(
                         groups.items(),
                         key=lambda item: (item[1][0], ORDER.index(item[0]))))
    return lines


def incident(history: History, window: Optional[tuple] = None) -> list:
    """Fault edges, breaker transitions, failovers, wait-die victims,
    read-log rollbacks and collector passes in ``window``, in virtual
    time order, then every transaction's :func:`phases`."""
    return [{"ts": event["ts"], "seq": event["seq"], "event": event["name"],
             "args": event["args"]}
            for event in history.prefixed(*INCIDENT)
            if _inside(event["ts"], window)] + phases(history, window)


def measures(history: History, total: Optional[float] = None,
             window: Optional[tuple] = None) -> dict:
    """``{(metric, layer): value}``: mean critical-path ms and dollars
    per layer — what ``diff`` compares between two traces."""
    rows = slow(history, window)
    out: Counter = Counter({("requests", "total"): len(rows)})
    for row in rows:
        out["mean ms", "total"] += row["dur"] / len(rows)
        for name, ms in row["layers"].items():
            out["mean ms", name] += ms / len(rows)
    spent = cost(history, total, window)
    for (name, _op), (_count, dollars) in spent["rows"].items():
        out["$", name] += dollars
    if spent["unattributed"] is not None:
        out[("$", "unattributed")] = spent["unattributed"]
    return out


def diff(before: dict, after: dict) -> list:
    """``(metric, layer, before, after)`` for every value that moved."""
    return [(*key, before.get(key), after.get(key))
            for key in sorted(set(before) | set(after), key=repr)
            if before.get(key) != after.get(key)]


def _bench_measures(text: str) -> Optional[dict]:
    """``{(metric, layer): value}`` of a ``perfbench/run.py`` output
    (its last line), or ``None`` for anything else."""
    try:
        line = json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None
    if not isinstance(line, dict) or "correct" not in line:
        return None
    passes = line.get("passes") or {"": line}
    return {(f"{label}:{metric}".lstrip(":"),
             metric.split(".")[0] if "." in metric else "end_to_end"):
            value["value"]
            for label, result in passes.items()
            for metric, value in result["metrics"].items()}


def format_table(title: str, columns: Sequence[str],
                 rows: Iterable[Sequence[Any]]) -> str:
    rows = [[f"{cell:.1f}" if isinstance(cell, float) else str(cell)
             for cell in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "-" * len(title),
             "  ".join(c.ljust(widths[i]) for i, c in enumerate(columns)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(title: str, series: dict) -> str:
    """``{label: [(x, y), ...]}`` -> aligned multi-series listing."""
    lines = [title, "-" * len(title)]
    for label in sorted(series):
        points = ", ".join(f"({x:g}, {y:.1f})" for x, y in series[label])
        lines.append(f"{label:24s} {points}")
    return "\n".join(lines)


def per_shard_table(title: str, rows: Iterable[dict]) -> str:
    """:func:`~repro.obs.per_shard_rows` as a metering dashboard:
    ``share`` is each shard's fraction of all requests, the footer the
    skew (:func:`~repro.obs.load_imbalance`: max/mean and Gini)."""
    rows = list(rows)
    with_items = any(row.get("items") is not None for row in rows)
    columns = ["shard"] + (["items"] if with_items else []) + [
        "requests", "share", "read units", "write units", "eventual",
        "$"]
    table_rows = [[row["shard"]] + ([row["items"]] if with_items else []) + [
        row["requests"], f"{row.get('share', 0.0):.2f}",
        round(row["read_units"], 1), round(row["write_units"], 1),
        row["eventual"], f"{row['dollars']:.2e}"] for row in rows]
    skew = load_imbalance(rows)
    return (format_table(title, columns, table_rows)
            + f"\nimbalance: max/mean={skew['max_mean']:.2f}  "
              f"gini={skew['gini']:.2f}")


def _layer_order(name: str) -> tuple:
    head = name.split(".")[0]
    return (LAYERS.index(head) if head in LAYERS else len(LAYERS), name)


def render_slow(rows: list) -> str:
    names = sorted({name for row in rows for name in row["layers"]},
                   key=_layer_order)
    columns = ["request", "at ms", "ms"] + names + ["tail"]

    def cells(label, at, row, n=1):
        return [label, at, row["dur"] / n] + [
            row["layers"].get(name, 0.0) / n for name in names] + [
            row["tail"] / n]

    top = sorted(rows, key=lambda row: (-row["dur"], row["ts"]))[:TOP_K]
    total = {"dur": sum(row["dur"] for row in rows),
             "tail": sum(row["tail"] for row in rows),
             "layers": sum((row["layers"] for row in rows), Counter())}
    table = [cells(row["request"], row["ts"], row) for row in top]
    table.append(cells(f"mean of {len(rows)}", "", total, len(rows) or 1))
    return format_table("critical path, exclusive virtual ms per layer",
                        columns, table)


def render_cost(result: dict) -> str:
    table = [[name, op, count, f"{dollars:.3e}"]
             for (name, op), (count, dollars) in sorted(
                 result["rows"].items(),
                 key=lambda item: (_layer_order(item[0][0]), item[0][1]))]
    if result["total"] is not None:
        table += [["unattributed", "", "", f"{result['unattributed']:.3e}"],
                  ["total", "", "", f"{result['total']:.3e}"]]
    return format_table("dollars per layer", ["layer", "store op",
                                              "requests", "$"], table)


def _window(text: Optional[str]) -> Optional[tuple]:
    if text is None:
        return None
    low, _, high = text.partition(":")
    return float(low or "-inf"), float(high or "inf")


def _total(metrics: dict) -> Optional[float]:
    return metrics.get("metering", {}).get("totals", {}).get("dollars")


def _file_measures(path: str, window: Optional[tuple]) -> dict:
    bench = _bench_measures(pathlib.Path(path).read_text())
    if bench is not None:
        return bench
    history, metrics = load(path)
    return measures(history, _total(metrics), window)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description=__doc__.split("\n\n")[0])
    parser.add_argument("question", choices=("slow", "cost", "incident",
                                             "diff", "chrome"))
    parser.add_argument("files", nargs="+", metavar="FILE")
    parser.add_argument("--window", metavar="FROM:TO")
    args = parser.parse_args(argv)
    wanted = 2 if args.question == "diff" else 1
    if len(args.files) != wanted:
        parser.error(f"{args.question} takes {wanted} file(s)")
    window = _window(args.window)
    if args.question == "diff":
        moved = diff(*(_file_measures(path, window) for path in args.files))
        print(format_table("moved", ["metric", "layer", "before", "after"],
                           moved) if moved else "no metric moved")
        return 0
    history, metrics = load(args.files[0])
    if args.question == "slow":
        print(render_slow(slow(history, window)))
    elif args.question == "cost":
        print(render_cost(cost(history, _total(metrics), window)))
    elif args.question == "incident":
        for line in incident(history, window):
            print(json.dumps(line, sort_keys=True))
    else:
        print(json.dumps(chrome(history.records), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
