"""Replication driver: the consistency/latency/$ trade, measured.

A **read-heavy closed-loop workload** (each request renders a "feed" of
``READS_PER_REQUEST`` articles through ``ctx.read_eventual``) runs
against three store configurations:

``strong-r1``
    The unreplicated baseline: ``shards=2, replicas=1`` — bit-for-bit
    the plain :class:`~repro.kvstore.ShardedStore`.
``strong-r3``
    Replication on (``replicas=3``) but every read still strong: proves
    replica groups cost nothing when unused — the leader's latency and
    rand streams are untouched, so the numbers match ``strong-r1``.
``eventual-r3``
    Replication on and ``read_consistency="eventual"``: the feed reads
    route to followers at DynamoDB's half-price eventual rate. Run at
    ``replication_lag_scale=0`` so followers are current — isolating
    the *pricing* effect for the $-gate and the *routing* effect for
    the latency gate. (Staleness under nonzero lag is exercised by
    ``tests/kvstore/test_replication.py``, where it can be asserted
    deterministically.)

Reported per point: throughput, p50/p99, read-$/op, total $/op, which
tables served eventual reads (the leader-routing proof: DAAL log/intent
tables must never appear), and the replica groups' shipping counters.
"""

from __future__ import annotations

from repro.bench.reporting import format_table
from repro.core import BeldiConfig, BeldiRuntime
from repro.platform import PlatformConfig
from repro.workload import run_closed_loop

SHARDS = 2
REPLICAS = 3
N_USERS = 16
REQUESTS_PER_USER = 4
READS_PER_REQUEST = 5
N_ARTICLES = 48

CONFIGS = {
    "strong-r1": dict(replicas=1, read_consistency="strong"),
    "strong-r3": dict(replicas=REPLICAS, read_consistency="strong"),
    "eventual-r3": dict(replicas=REPLICAS, read_consistency="eventual"),
}

#: Tables Beldi's correctness rests on: any eventual read here means a
#: protocol read escaped the leader. The gate asserts this set stays
#: disjoint from the eventual-read books.
PROTOCOL_TABLE_MARKERS = (".intent", ".readlog", ".invokelog",
                          ".writelog", ".locksets", ".shadow")


def _article_key(index: int) -> str:
    return f"article-{index % N_ARTICLES:04d}"


def build_runtime(replicas: int, read_consistency: str,
                  lag_scale: float = 0.0, seed: int = 13) -> BeldiRuntime:
    runtime = BeldiRuntime(
        seed=seed, latency_scale=1.0,
        config=BeldiConfig(gc_t=1e12),
        platform_config=PlatformConfig(concurrency_limit=400),
        shards=SHARDS, replicas=replicas,
        read_consistency=read_consistency,
        replication_lag_scale=lag_scale)

    def feed(ctx, payload):
        found = []
        for offset in range(READS_PER_REQUEST):
            item = ctx.read_eventual(
                "articles", _article_key(payload["start"] + offset))
            if item is not None:
                found.append(item["id"])
        return {"articles": found}

    ssf = runtime.register_ssf("feed", feed, tables=["articles"])
    for i in range(N_ARTICLES):
        ssf.env.seed("articles", _article_key(i),
                     {"id": i, "body": "article body " * 6})
    return runtime


def run_point(name: str, replicas: int, read_consistency: str,
              lag_scale: float = 0.0, seed: int = 13) -> dict:
    runtime = build_runtime(replicas, read_consistency,
                            lag_scale=lag_scale, seed=seed)
    read_dollars_before = runtime.store.metering.read_dollars()
    dollars_before = runtime.store.metering.dollar_cost()
    result = run_closed_loop(
        runtime, "feed",
        [[{"start": user * 7 + request * READS_PER_REQUEST}
          for request in range(REQUESTS_PER_USER)]
         for user in range(N_USERS)])
    # Deterministic read-back: the same probe request must see the same
    # articles in every configuration (articles never change, so even
    # eventual reads have nothing stale to observe at lag 0).
    probe = runtime.run_workflow("feed", {"start": 3})
    meter = runtime.store.metering
    eventual_tables = {table: count for table, count
                       in meter.per_table_eventual.items() if count}
    stats = (runtime.store.replication_stats
             if hasattr(runtime.store, "replication_stats") else None)
    point = {
        "config": name,
        "completed": result.completed,
        "failures": result.failures,
        "throughput_rps": result.throughput_rps,
        "p50_ms": result.recorder.p50,
        "p99_ms": result.recorder.p99,
        "read_dollars_per_op": ((meter.read_dollars() - read_dollars_before)
                                / max(1, result.completed)),
        "dollars_per_op": ((meter.dollar_cost() - dollars_before)
                           / max(1, result.completed)),
        "eventual_tables": eventual_tables,
        "probe": probe["articles"],
        "shipped": stats.shipped if stats else 0,
        "eventual_reads": stats.eventual_reads if stats else 0,
    }
    runtime.kernel.shutdown()
    return point


def run_replication(configs=CONFIGS, **kwargs) -> list[dict]:
    return [run_point(name, **dict(spec, **kwargs))
            for name, spec in configs.items()]


def protocol_tables_served_eventual(point: dict) -> list[str]:
    """Protocol tables that served eventual reads (must be empty)."""
    return sorted(
        table for table in point["eventual_tables"]
        if any(marker in table for marker in PROTOCOL_TABLE_MARKERS))


def replication_table(points: list[dict]) -> str:
    rows = []
    for point in points:
        rows.append([
            point["config"],
            point["completed"],
            round(point["throughput_rps"], 1),
            round(point["p50_ms"], 1),
            round(point["p99_ms"], 1),
            f"{point['read_dollars_per_op']:.2e}",
            f"{point['dollars_per_op']:.2e}",
            point["eventual_reads"],
        ])
    return format_table(
        f"Replication — {N_USERS} users x {REQUESTS_PER_USER} feed "
        f"requests x {READS_PER_REQUEST} reads, shards={SHARDS}",
        ["config", "done", "rps", "p50 ms", "p99 ms", "read $/op",
         "$/op", "ev reads"], rows)
