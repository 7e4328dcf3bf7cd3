"""Deterministic virtual-time observability: one tracer + one snapshot.

One :class:`Observability` instance serves a whole simulation — runtimes
sharing a kernel (and possibly a store) share it, so the exported trace
interleaves every participant on the one virtual clock.  Everything is
gated on ``BeldiRuntime(observability=...)``: with it off no instance is
built and every hook site stays on its pre-observability code path,
bit for bit.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional

from repro.kvstore.surface import layers, leaves
from repro.obs.tracer import Tracer, validate_chrome_trace

__all__ = ["Observability", "Tracer", "load_imbalance", "per_shard_rows",
           "validate_chrome_trace"]


class Observability:
    """The tracer bound to one kernel, plus the snapshot of the stack's
    native stats."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.tracer = Tracer(kernel)

    # -- wiring ----------------------------------------------------------------
    def attach_store(self, store) -> None:
        """Point every store layer (facades, groups, leaves) at us."""
        for layer in layers(store):
            layer.obs = self

    def export(self, runtime=None) -> dict:
        """The trace's rows (what ``to_jsonl`` writes) + the snapshot in
        one JSON-ready dict — the payload DST failure artifacts embed,
        and a file ``repro.obs.report`` reads like a JSONL trace."""
        return {
            "records": self.tracer.rows(),
            "metrics": self.snapshot(runtime),
        }

    # -- snapshot ----------------------------------------------------------------
    def snapshot(self, runtime=None) -> dict:
        """One dict of the stack's native stats — each count in its one
        home.

        ``runtime`` contributes its store metering, per-shard placement
        balance, capacity queues, tail cache, replication, resilience
        and elasticity signals; without it the snapshot is empty.
        """
        if runtime is None:
            return {}
        store = runtime.store
        metering = store.metering
        snap: dict = {"metering": {
            "ops": metering.snapshot(),
            "totals": metering.totals(),
        }}
        shards = getattr(store, "nodes", None)
        if shards:
            rows = per_shard_rows(store)
            snap["metering"]["per_shard"] = {
                str(node.shard_id): round(row["dollars"], 9)
                for node, row in zip(shards, rows)}
            snap["placement"] = {
                "max_over_mean": round(load_imbalance(rows)["max_mean"], 6),
                "requests": [row["requests"] for row in rows],
            }
        queues = {}
        for index, node in enumerate(leaves(store)):
            queue = getattr(node, "queue", None)
            if queue is not None:
                queues[f"node{index}"] = {
                    "served": queue.stats_served,
                    "shard": node.shard_id,
                    "waited_ms": round(queue.stats_waited, 6),
                }
        if queues:
            snap["capacity"] = queues
        snap["tail_cache"] = runtime.tail_cache.stats.snapshot()
        repl = getattr(store, "replication_stats", None)
        if repl is not None:
            snap["replication"] = dict(
                sorted(dataclasses.asdict(repl).items()))
            snap["replication"]["lag"] = {
                str(shard): {str(f): lag for f, lag in sorted(lags.items())}
                for shard, lags in sorted(store.replication_lag().items())}
        resilience = getattr(runtime, "resilience", None)
        if resilience is not None:
            snap["resilience"] = resilience.snapshot()
        elasticity = getattr(runtime, "elasticity", None)
        if elasticity is not None:
            stats = elasticity.migrator.stats
            snap["elasticity"] = {
                "checks": elasticity.checks,
                "migrations": stats.migrations,
                "migration_dollars": round(stats.dollars(), 9),
                "rebalances": elasticity.rebalances,
                "rolled_back": stats.rolled_back,
                "rolled_forward": stats.rolled_forward,
                "rows_moved": stats.rows_moved,
                "skipped": stats.skipped,
            }
        return snap


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
