"""Async storage I/O ablation gate: overlap + batched log writes.

Runs the travel-style booking transaction (``bench/fig_async_io.py``)
on ``current`` (``on-on``) and with ``without="async_io"``
(``off-off``) and gates the tentpole claims:

- the feature cuts request p50 by **>= 20%** (the acceptance bar;
  overlapped commit fan-out is most of it);
- ``$/op`` stays flat: it may not change billed request units — it
  collapses round trips and virtual time only;
- the batched claim path actually batches (``batch_write`` round trips
  appear, total round trips drop) without losing a single
  exactly-once effect;
- a replicated deployment (shards=2, replicas=3, eventual reads) runs
  the same workload on ``current``, correctly.
"""

from __future__ import annotations

from conftest import emit, emit_json

from repro.bench.fig_async_io import (
    N_KEYS,
    REQUESTS,
    ablation_table,
    run_ablation,
    run_point,
)


def test_async_io_ablation(benchmark):
    def run_all():
        points = run_ablation()
        replicated = run_point("on-on-r3", replicas=3,
                               read_consistency="eventual")
        return points, replicated

    points, replicated = benchmark.pedantic(run_all, rounds=1,
                                            iterations=1)
    by_config = {point["config"]: point for point in points}
    text = ablation_table(points + [replicated])
    emit(text)
    emit_json("async_io", points=points + [replicated])

    baseline = by_config["off-off"]
    both = by_config["on-on"]
    for point in points + [replicated]:
        # No failures, and exactly-once effects everywhere: every
        # committed booking incremented every key exactly once.
        assert point["failures"] == 0
        assert point["completed"] == REQUESTS
        assert point["effects"] == [REQUESTS] * N_KEYS, point["config"]

    # The acceptance bar: the feature cuts p50 by at least 20%.
    reduction = 1.0 - both["p50_ms"] / baseline["p50_ms"]
    assert reduction >= 0.20, (
        f"p50 {baseline['p50_ms']:.1f} -> {both['p50_ms']:.1f} ms, "
        f"only {reduction:.0%} reduction")

    # $/op flat or better: the feature moves time and round trips, never
    # billed units (batched writes bill identically to sequential ones).
    for point in points:
        assert point["dollars_per_op"] <= baseline["dollars_per_op"] * (
            1.0 + 1e-9), point["config"]

    # The batch path really batches: batch_write round trips appear and
    # the total round-trip count drops versus the sequential claims.
    assert both["batch_writes"] > 0
    assert baseline["batch_writes"] == 0
    assert both["round_trips"] < baseline["round_trips"]
