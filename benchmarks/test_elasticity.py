"""Elasticity gate: live migration must recover skewed throughput.

Drives the Zipf(s=1.4) hot-key workload of ``repro.bench.fig_elasticity``
(24-user closed loop, 4 shards, bounded per-shard capacity, periodic GC)
twice — ``without="elastic"`` (static consistent-hash placement) vs
``current`` — and pins the tentpole properties:

- elastic throughput >= 1.4x static on the identical request series;
- median latency falls;
- the *workload's* $/op stays flat (the migration traffic's own request
  units are metered separately by the migrator and excluded here, but
  asserted small);
- the per-shard load-imbalance summary (max/mean share, Gini) improves;
- every row ends up exactly where routing says it lives (no migration
  residue on any node).
"""

from __future__ import annotations

from conftest import emit, emit_json

from repro.bench.fig_elasticity import (
    elasticity_table,
    run_elasticity,
    shard_dashboards,
)


def test_elasticity_recovers_skewed_throughput():
    points = run_elasticity()
    emit(elasticity_table(points))
    emit(shard_dashboards(points))
    emit_json("elasticity", static=points["static"],
              elastic=points["elastic"])
    static, elastic = points["static"], points["elastic"]

    # Identical, fully served request series in both placements.
    assert static["failures"] == elastic["failures"] == 0
    assert static["completed"] == elastic["completed"] > 0

    # The static run must actually exhibit the hot shard this gate is
    # about (otherwise the comparison is vacuous)...
    assert static["imbalance"]["max_mean"] >= 1.5, static["imbalance"]
    assert static["migrations"] == 0

    # ...and elasticity must recover the throughput it costs.
    speedup = elastic["throughput_rps"] / static["throughput_rps"]
    assert speedup >= 1.4, f"elastic speedup only {speedup:.2f}x"
    assert elastic["p50_ms"] < static["p50_ms"]

    # Chains actually moved, through the durable protocol.
    assert elastic["migrations"] > 0
    assert elastic["rows_moved"] > 0
    assert elastic["forwards"] > 0

    # $/op flat modulo the (separately metered) migration writes.
    assert elastic["migration_dollars"] > 0
    flat = abs(elastic["workload_dollars_per_op"]
               - static["workload_dollars_per_op"])
    assert flat <= 0.07 * static["workload_dollars_per_op"], (
        static["workload_dollars_per_op"],
        elastic["workload_dollars_per_op"])
    # The move itself is a bounded one-time cost, not a second workload.
    assert elastic["migration_dollars"] <= 0.15 * (
        elastic["dollars_per_op"] * elastic["completed"])

    # The dashboard's imbalance summary shows the recovery.
    assert (elastic["imbalance"]["max_mean"]
            < static["imbalance"]["max_mean"])
    assert elastic["imbalance"]["gini"] < static["imbalance"]["gini"]
    assert elastic["imbalance"]["max_mean"] <= 1.25

    # Placement invariant: after the run every row lives exactly where
    # the (forward-aware) ring routes it — no half-moved chains.
    assert static["residue"] == []
    assert elastic["residue"] == []
