"""Paper-style table and series printing for bench output."""

from __future__ import annotations

import json
import pathlib
import subprocess
from typing import Any, Iterable, Optional, Sequence

#: Repo root (three levels above ``src/repro/bench``): where the
#: ``BENCH_<name>.json`` trajectory files accumulate.
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


def git_rev() -> str:
    """Short git revision of the repo, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _json_safe(value: Any) -> Any:
    """Recursively replace non-finite floats (JSON has no NaN/inf)."""
    if isinstance(value, float):
        return value if value == value and value not in (
            float("inf"), float("-inf")) else None
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def write_bench_json(name: str, payload: dict,
                     directory: Optional[pathlib.Path] = None
                     ) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` at the repo root (machine-readable
    benchmark trajectory; see ROADMAP).

    ``payload`` is augmented with the git revision; keys are sorted and
    non-finite floats nulled so files diff cleanly. An existing file
    whose body differs from the new one in ``git_rev`` alone is left
    untouched, so ``git_rev`` is the revision at which the numbers last
    changed and re-running a bench does not dirty the tree.
    """
    target = directory or REPO_ROOT
    target.mkdir(parents=True, exist_ok=True)
    body = dict(payload)
    body.setdefault("bench", name)
    body.setdefault("git_rev", git_rev())
    path = target / f"BENCH_{name}.json"
    body = _json_safe(body)
    if not _same_but_for_rev(path, body):
        path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    return path


def _same_but_for_rev(path: pathlib.Path, body: dict) -> bool:
    """Does ``path`` already hold ``body``, ``git_rev`` aside?"""
    try:
        old = json.loads(path.read_text())
    except (OSError, ValueError):
        return False
    if not isinstance(old, dict):
        return False
    return ({k: v for k, v in old.items() if k != "git_rev"}
            == {k: v for k, v in body.items() if k != "git_rev"})


def format_table(title: str, columns: Sequence[str],
                 rows: Iterable[Sequence[Any]]) -> str:
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "-" * len(title)]
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
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


def per_shard_rows(store, table: Optional[str] = None) -> list[dict]:
    """One row of placement + metering facts per shard node.

    Works on anything with a ``nodes`` list whose members carry a
    ``metering`` book (a plain :class:`~repro.kvstore.ShardedStore`
    node, or a :class:`~repro.kvstore.ReplicaGroup`, whose book merges
    leader and followers). ``table`` adds that table's per-shard item
    count; without it the items column is omitted (``None``).
    """
    rows = []
    for shard, node in enumerate(getattr(store, "nodes", [store])):
        meter = node.metering
        rows.append({
            "shard": shard,
            "items": node.item_count(table) if table else None,
            "requests": sum(rec.count for rec in meter.ops.values()),
            "read_units": sum(rec.read_units
                              for rec in meter.ops.values()),
            "write_units": sum(rec.write_units
                               for rec in meter.ops.values()),
            "eventual": sum(rec.eventual_count
                            for rec in meter.ops.values()),
            "dollars": meter.dollar_cost(),
        })
    total_requests = sum(row["requests"] for row in rows)
    for row in rows:
        row["share"] = (row["requests"] / total_requests
                        if total_requests else 0.0)
    return rows


def load_imbalance(rows: Iterable[dict]) -> dict:
    """Skew summary over :func:`per_shard_rows` output.

    ``max_mean`` is the hottest shard's request count over the mean
    (1.0 = perfectly balanced; the hot-shard detector's trigger
    statistic), ``gini`` the Gini coefficient of the per-shard request
    distribution (0 = equal, -> 1 = one shard serves everything).
    """
    counts = sorted(row["requests"] for row in rows)
    n = len(counts)
    total = sum(counts)
    if n == 0 or total == 0:
        return {"max_mean": 0.0, "gini": 0.0}
    mean = total / n
    # Gini via the sorted-rank identity: G = (2*sum(i*x_i)/ (n*sum x))
    # - (n+1)/n, with i = 1-based rank in ascending order.
    weighted = sum(rank * count
                   for rank, count in enumerate(counts, start=1))
    gini = (2.0 * weighted) / (n * total) - (n + 1.0) / n
    return {"max_mean": max(counts) / mean, "gini": max(0.0, gini)}


def per_shard_table(title: str, rows: Iterable[dict]) -> str:
    """Render :func:`per_shard_rows` output as a metering dashboard.

    The ``share`` column is each shard's fraction of all requests, and
    the footer line summarizes the skew (:func:`load_imbalance`):
    max/mean request share and the Gini coefficient.
    """
    rows = list(rows)
    with_items = any(row.get("items") is not None for row in rows)
    columns = ["shard"] + (["items"] if with_items else []) + [
        "requests", "share", "read units", "write units", "eventual",
        "$"]
    table_rows = []
    for row in rows:
        cells = [row["shard"]]
        if with_items:
            cells.append(row["items"])
        cells.extend([
            row["requests"],
            f"{row.get('share', 0.0):.2f}",
            round(row["read_units"], 1),
            round(row["write_units"], 1),
            row["eventual"],
            f"{row['dollars']:.2e}",
        ])
        table_rows.append(cells)
    skew = load_imbalance(rows)
    return (format_table(title, columns, table_rows)
            + f"\nimbalance: max/mean={skew['max_mean']:.2f}  "
              f"gini={skew['gini']:.2f}")


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        return f"{cell:.1f}"
    return str(cell)
