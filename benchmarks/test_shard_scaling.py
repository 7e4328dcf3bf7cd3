"""Shard-scaling gate: 4 shards must sustain >= 1.5x one shard.

Drives the parallel multi-user workload of
``repro.bench.fig_shard_scaling`` at 1/2/4/8 store shards and emits the
throughput / latency / $-per-op table. The acceptance gate pins the
headline property of the sharded store: with per-node service capacity
bounded, partitioning the DAAL tables across 4 nodes carries at least
1.5x the single-node throughput on the same workload.
"""

from __future__ import annotations

import pytest
from conftest import emit, emit_json

from repro.bench.fig_shard_scaling import (
    SHARD_COUNTS,
    run_scaling,
    scaling_table,
    shard_dashboards,
)


def test_shard_scaling():
    points = run_scaling(SHARD_COUNTS)
    emit(scaling_table(points))
    emit(shard_dashboards(points))
    emit_json("shard_scaling", points=points)

    by_shards = {p["shards"]: p for p in points}
    # Every configuration completed the whole workload, error-free.
    for point in points:
        assert point["failures"] == 0
        assert point["completed"] == points[0]["completed"]

    # Acceptance: 4 shards sustain >= 1.5x the single-shard throughput.
    t1 = by_shards[1]["throughput_rps"]
    t4 = by_shards[4]["throughput_rps"]
    assert t4 >= 1.5 * t1, f"4-shard speedup only {t4 / t1:.2f}x"

    # Latency falls with added capacity, monotonically at the median.
    assert by_shards[4]["p50_ms"] < by_shards[1]["p50_ms"]

    # Sharding redistributes round trips; it must not inflate the
    # request bill (same protocol, same op counts, different placement).
    assert by_shards[4]["dollars_per_op"] <= (
        1.05 * by_shards[1]["dollars_per_op"])

    # The key population actually spread: no empty shard at 4 nodes.
    assert all(c > 0 for c in by_shards[4]["keys_per_shard"])

    # Per-shard metering dashboard: every shard served requests, the
    # dashboard's row counts agree with items_per_shard, and the summed
    # books match the facade's merged view.
    rows = by_shards[4]["per_shard"]
    assert [row["items"] for row in rows] == by_shards[4]["keys_per_shard"]
    assert all(row["requests"] > 0 for row in rows)
    total = sum(row["dollars"] for row in rows)
    per_op = total / by_shards[4]["completed"]
    assert per_op >= by_shards[4]["dollars_per_op"]  # includes seeding

    # Load-imbalance columns: shares sum to one and the skew summary is
    # consistent with them (uniform per-user keys stay mildly skewed —
    # this is the benign baseline the elasticity gate contrasts with).
    assert sum(row["share"] for row in rows) == pytest.approx(1.0)
    skew = by_shards[4]["imbalance"]
    assert skew["max_mean"] == pytest.approx(
        max(row["share"] for row in rows) * len(rows))
    assert 0.0 <= skew["gini"] < 0.5
    assert skew["max_mean"] < 2.0
