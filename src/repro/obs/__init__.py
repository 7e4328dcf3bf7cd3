"""Deterministic virtual-time observability: one tracer + one snapshot.

One :class:`Observability` instance serves a whole simulation — runtimes
sharing a kernel (and possibly a store) share it, so the exported trace
interleaves every participant on the one virtual clock.  Everything is
gated on ``BeldiConfig.observability``: with the flag off no instance is
built and every hook site stays on its pre-observability code path,
bit for bit.
"""

from __future__ import annotations

import dataclasses

from repro.obs.tracer import Tracer, validate_chrome_trace

__all__ = ["Observability", "Tracer", "validate_chrome_trace"]


class Observability:
    """The tracer bound to one kernel, plus the snapshot of the stack's
    native stats."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.tracer = Tracer(kernel)

    # -- wiring ----------------------------------------------------------------
    def attach_store(self, store) -> None:
        """Point every store layer (facades, groups, leaves) at us."""
        if store is None:
            return
        store.obs = self
        for node in getattr(store, "nodes", ()):
            self.attach_store(node)

    def export(self, runtime=None) -> dict:
        """Chrome trace + snapshot in one JSON-ready dict — the payload
        DST failure artifacts embed."""
        return {
            "chrome_trace": self.tracer.to_chrome(),
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
            snap["metering"]["per_shard"] = {
                str(node.shard_id): round(node.metering.dollar_cost(), 9)
                for node in shards}
            # Imported here: ``repro.bench`` imports the runtime, which
            # imports this package.
            from repro.bench.reporting import load_imbalance, per_shard_rows
            rows = per_shard_rows(store)
            snap["placement"] = {
                "max_over_mean": round(load_imbalance(rows)["max_mean"], 6),
                "requests": [row["requests"] for row in rows],
            }
        queues = {}
        for index, node in enumerate(_leaf_nodes(store)):
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


def _leaf_nodes(store) -> list:
    """Every leaf ``KVStore`` under a (possibly nested) facade."""
    nodes = getattr(store, "nodes", None)
    if nodes is None:
        return [store]
    leaves: list = []
    for node in nodes:
        leaves.extend(_leaf_nodes(node))
    return leaves
