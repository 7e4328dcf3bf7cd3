"""Shard-scaling driver: throughput, latency, and $/op vs shard count.

A **parallel multi-user workload** against the Beldi runtime with its
store partitioned across 1/2/4/8 shard nodes. Each shard node has a
bounded service capacity (a ``ServiceCapacity`` queue with a few
servers, the way a real partition has bounded provisioned throughput),
so a single node saturates under concurrent users and sharding adds real
aggregate capacity — the partitioning lever Netherite identifies as the
main driver of serverless-workflow throughput.

The workload is closed-loop: ``n_users`` simulated clients each issue
``requests_per_user`` sequential ``profile`` requests (one exactly-once
read plus one exactly-once write against the user's own DAAL item, so
the key population spreads across shards by consistent hashing).
Throughput is completed requests over the makespan; latency percentiles
are wall-to-wall per request; $/op comes from the merged per-node
request metering, same books as the §7.3 cost analysis.
"""

from __future__ import annotations

from repro.bench.reporting import (
    format_table,
    load_imbalance,
    per_shard_rows,
    per_shard_table,
)
from repro.core import BeldiConfig, BeldiRuntime
from repro.platform import PlatformConfig
from repro.workload import run_closed_loop

SHARD_COUNTS = (1, 2, 4, 8)
N_USERS = 24
REQUESTS_PER_USER = 6
SHARD_CAPACITY = 2  # servers per store node


def build_runtime(n_shards: int, n_users: int, seed: int,
                  capacity: int) -> BeldiRuntime:
    # without="elastic": this figure measures *static* consistent-hash
    # placement under uniform per-user keys — the baseline the
    # elasticity figure (fig_elasticity) is judged against.
    runtime = BeldiRuntime(
        seed=seed, latency_scale=1.0,
        config=BeldiConfig(gc_t=1e12, without="elastic"),
        platform_config=PlatformConfig(concurrency_limit=400),
        shards=n_shards, shard_capacity=capacity)

    def profile(ctx, payload):
        uid = payload["user"]
        record = ctx.read("profiles", uid) or {"visits": 0}
        record = {"visits": record["visits"] + 1}
        ctx.write("profiles", uid, record)
        return {"user": uid, "visits": record["visits"]}

    ssf = runtime.register_ssf("profile", profile, tables=["profiles"])
    for i in range(n_users):
        ssf.env.seed("profiles", f"user-{i:04d}", {"visits": 0})
    return runtime


def run_shard_point(n_shards: int, n_users: int = N_USERS,
                    requests_per_user: int = REQUESTS_PER_USER,
                    capacity: int = SHARD_CAPACITY,
                    seed: int = 11) -> dict:
    """One shard count: drive all users to completion, measure."""
    runtime = build_runtime(n_shards, n_users, seed, capacity)
    cost_before = runtime.store.metering.dollar_cost()
    result = run_closed_loop(
        runtime, "profile",
        [[{"user": f"user-{i:04d}"}] * requests_per_user
         for i in range(n_users)])
    store = runtime.store
    per_shard = (store.items_per_shard("profile.profiles")
                 if hasattr(store, "items_per_shard") else
                 [store.item_count("profile.profiles")])
    point = {
        "shards": n_shards,
        "completed": result.completed,
        "failures": result.failures,
        "makespan_ms": result.makespan_ms,
        "throughput_rps": result.throughput_rps,
        "p50_ms": result.recorder.p50,
        "p99_ms": result.recorder.p99,
        "dollars_per_op": ((store.metering.dollar_cost() - cost_before)
                           / max(1, result.completed)),
        "keys_per_shard": per_shard,
        "per_shard": per_shard_rows(store, "profile.profiles"),
    }
    point["imbalance"] = load_imbalance(point["per_shard"])
    runtime.kernel.shutdown()
    return point


def run_scaling(shard_counts=SHARD_COUNTS, **kwargs) -> list[dict]:
    return [run_shard_point(n, **kwargs) for n in shard_counts]


def scaling_table(points: list[dict]) -> str:
    base = points[0]["throughput_rps"]
    rows = []
    for point in points:
        rows.append([
            point["shards"],
            point["completed"],
            round(point["throughput_rps"], 1),
            round(point["throughput_rps"] / base, 2),
            round(point["p50_ms"], 1),
            round(point["p99_ms"], 1),
            f"{point['dollars_per_op']:.2e}",
            "/".join(str(c) for c in point["keys_per_shard"]),
        ])
    return format_table(
        f"Shard scaling — {N_USERS} parallel users x "
        f"{REQUESTS_PER_USER} requests, {SHARD_CAPACITY} servers/shard",
        ["shards", "done", "rps", "speedup", "p50 ms", "p99 ms", "$/op",
         "keys/shard"], rows)


def shard_dashboards(points: list[dict]) -> str:
    """Per-shard metering dashboards, one table per shard count > 1."""
    blocks = []
    for point in points:
        if point["shards"] <= 1:
            continue
        blocks.append(per_shard_table(
            f"Per-shard metering — {point['shards']} shards",
            point["per_shard"]))
    return "\n\n".join(blocks)
