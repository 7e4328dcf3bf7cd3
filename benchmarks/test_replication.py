"""Replication gate: eventual follower reads must pay for themselves.

Drives the read-heavy feed workload of ``repro.bench.fig_replication``
across the three consistency configurations and pins the subsystem's
headline properties:

1. **Pricing** — with ``read_consistency="eventual"`` the follower
   reads cut read-$/op by at least 30% versus the strong baseline
   (DynamoDB's 1x-vs-2x read pricing, realized).
2. **Correctness isolation** — every DAAL/protocol read stayed on the
   leader: no intent/log/lockset/shadow table ever appears in the
   eventual-read metering books, and the workload's results are
   identical across configurations.
3. **Zero-cost when unused** — replication enabled with strong reads
   (``strong-r3``) reproduces the unreplicated numbers exactly, and
   eventual reads at lag 0 do not regress p50 read latency.
"""

from __future__ import annotations

from conftest import emit, emit_json

from repro.bench.fig_replication import (
    protocol_tables_served_eventual,
    replication_table,
    run_replication,
)


def test_replication_gate():
    points = run_replication()
    emit(replication_table(points))
    emit_json("replication", points=points)
    by_config = {p["config"]: p for p in points}
    strong = by_config["strong-r1"]
    strong_repl = by_config["strong-r3"]
    eventual = by_config["eventual-r3"]

    # Every configuration completed the whole workload, error-free, and
    # saw exactly the same data (equal correctness at lag 0).
    for point in points:
        assert point["failures"] == 0
        assert point["completed"] == strong["completed"]
        assert point["probe"] == strong["probe"]

    # 1. Eventual follower reads cut read-$/op by >= 30%.
    cut = 1.0 - (eventual["read_dollars_per_op"]
                 / strong["read_dollars_per_op"])
    assert cut >= 0.30, f"eventual reads cut read-$ only {cut:.0%}"

    # 2. All correctness-critical reads stayed leader-routed: only the
    # app's data table may serve eventual reads.
    assert strong["eventual_reads"] == 0
    assert strong["eventual_tables"] == {}
    assert eventual["eventual_reads"] > 0
    assert protocol_tables_served_eventual(eventual) == [], (
        f"protocol reads escaped the leader: "
        f"{protocol_tables_served_eventual(eventual)}")
    assert set(eventual["eventual_tables"]) == {"feed.articles"}

    # 3a. Replication enabled but unused is free: the leader's latency
    # and metering streams are untouched, so strong-r3 == strong-r1.
    assert strong_repl["p50_ms"] == strong["p50_ms"]
    assert strong_repl["throughput_rps"] == strong["throughput_rps"]
    assert strong_repl["read_dollars_per_op"] == (
        strong["read_dollars_per_op"])

    # 3b. At lag 0, routing reads to followers does not regress the
    # median (same latency distributions, different streams).
    assert eventual["p50_ms"] <= 1.05 * strong["p50_ms"], (
        f"p50 regressed: {eventual['p50_ms']:.1f} vs "
        f"{strong['p50_ms']:.1f} ms")

    # Replication actually happened: every write shipped to followers.
    assert eventual["shipped"] > 0 and strong_repl["shipped"] > 0
