"""Elasticity driver: throughput under Zipf hot-key skew, static vs
elastic placement.

The shard-scaling figure showed uniform per-user keys spreading across
shards and throughput scaling with the fleet. This driver breaks that
assumption the way production traffic does: the same closed-loop
``profile`` workload at a fixed 4-shard fleet, but with each request's
key drawn from a Zipf(s≈1.4) popularity distribution over a shared key
population. Static hash placement pins the hottest chains to
whatever shard their hash picked; that shard's ``ServiceCapacity`` queue
saturates and caps the fleet. With the ``elastic`` feature the hot-shard
detector observes the skew mid-run and live-migrates the hottest DAAL
chains to underloaded shards (``repro/kvstore/rebalance.py``), after
which the same offered load spreads over all nodes.

Measured per run: throughput over the makespan, wall-to-wall latency
percentiles, $/op from the merged metering books — with the migration
traffic's own request units reported *separately* (the migrator meters
its copies/deletes/records in its own book), so the gate can check the
workload's $/op stays flat modulo the one-time move cost — plus the
per-shard dashboard and its load-imbalance summary before/after.
"""

from __future__ import annotations

from repro.core import BeldiConfig, BeldiRuntime
from repro.obs import load_imbalance, per_shard_rows
from repro.obs.report import format_table, per_shard_table
from repro.platform import PlatformConfig
from repro.sim.randsrc import RandomSource
from repro.workload import run_closed_loop, skewed_keys

SHARDS = 4
N_USERS = 24
REQUESTS_PER_USER = 80
SHARD_CAPACITY = 2      # servers per store node
N_KEYS = 256            # shared key population
# Under rendezvous placement this population's hottest Zipf ranks
# co-locate (60% of the data operations on one shard of four) — the
# adversarial-but-ordinary draw elasticity exists for. Which names do
# that is a property of the hash rule: re-pick them when it changes
# (the 64-vnode ring's were "wallet-%04d").
KEY_NAME = "client-%04d"
# Hot-key skew exponent, set so the static run's hottest shard carries
# ~1.8x the mean request count — the hot shard the gate is about. The
# instance-keyed protocol tables spread evenly and dilute the data
# skew, and a hot chain's own waste (every writer that met a full tail
# paying a doomed update, a get and a racing append) used to thicken
# it: with that waste s=1.1 read 1.81, since fill-and-extend it reads
# 1.49 and s=1.4 reads 1.78.
ZIPF_S = 1.4
GC_PERIOD_MS = 600.0    # periodic collection inside the measured run
SEED = 11


def build_runtime(elastic: bool, seed: int = SEED,
                  shards: int = SHARDS,
                  capacity: int = SHARD_CAPACITY,
                  n_keys: int = N_KEYS) -> BeldiRuntime:
    runtime = BeldiRuntime(
        seed=seed, latency_scale=1.0,
        config=BeldiConfig(
            gc_t=1200.0,
            without=None if elastic else "elastic",
            # The skew is visible within a few hundred routed ops; act
            # early so the recovered throughput dominates the run.
            elastic_check_every=32,
            elastic_min_window=400,
            elastic_load_ratio=1.4,
            elastic_max_moves=16),
        platform_config=PlatformConfig(concurrency_limit=400),
        shards=shards, shard_capacity=capacity)

    def profile(ctx, payload):
        # A data-heavy request: balance check, debit, statement append —
        # five exactly-once ops against the *account's own* chains, so
        # per-key skew translates into per-shard store load rather than
        # drowning in the (instance-keyed, uniformly spread) intent and
        # log-table traffic.
        uid = payload["user"]
        record = ctx.read("profiles", uid) or {"visits": 0}
        record = {"visits": record["visits"] + 1}
        ctx.write("profiles", uid, record)
        history = ctx.read("statements", uid) or {"entries": 0}
        ctx.write("statements", uid, {"entries": history["entries"] + 1})
        ctx.write("profiles", uid, dict(record, balanced=True))
        return {"user": uid, "visits": record["visits"]}

    ssf = runtime.register_ssf("profile", profile,
                               tables=["profiles", "statements"])
    for i in range(n_keys):
        ssf.env.seed("profiles", KEY_NAME % i, {"visits": 0})
    return runtime


def zipf_payloads(seed: int = SEED, n_users: int = N_USERS,
                  requests_per_user: int = REQUESTS_PER_USER,
                  n_keys: int = N_KEYS, s: float = ZIPF_S) -> list:
    """One payload sequence per user, keys Zipf-skewed over the shared
    population. Drawn from a single named stream, so static and elastic
    runs (and re-runs) see the byte-identical request series."""
    # fig_shard_scaling's uniform per-user keys are the benign case;
    # see KEY_NAME for why these names.
    keys = [KEY_NAME % i for i in range(n_keys)]
    rand = RandomSource(seed, "zipf-workload")
    return [[{"user": key}
             for key in skewed_keys(keys, requests_per_user,
                                    s, rand.child(f"user{u}"))]
            for u in range(n_users)]


def run_point(elastic: bool, seed: int = SEED, **kwargs) -> dict:
    runtime = build_runtime(elastic, seed=seed, **kwargs)
    store = runtime.store
    cost_before = store.metering.dollar_cost()
    # Periodic GC inside the measured run, on the platform's timer as
    # deployed: chains stay short and orphans are reclaimed (a no-GC hot
    # key grows a several-hundred-row chain whose per-op cost swamps any
    # placement decision). The last user out stops the timers.
    runtime.start_collectors(ic_period=1e12, gc_period=GC_PERIOD_MS)
    result = run_closed_loop(runtime, "profile", zipf_payloads(seed))
    per_shard = per_shard_rows(store, "profile.profiles")
    migration_dollars = 0.0
    migrations = rows_moved = 0
    if runtime.elasticity is not None:
        stats = runtime.elasticity.migrator.stats
        migration_dollars = stats.dollars()
        migrations = stats.migrations
        rows_moved = stats.rows_moved
    total_dollars = store.metering.dollar_cost() - cost_before
    completed = max(1, result.completed)
    point = {
        "elastic": elastic,
        "completed": result.completed,
        "failures": result.failures,
        "makespan_ms": result.makespan_ms,
        "throughput_rps": result.throughput_rps,
        "p50_ms": result.recorder.p50,
        "p99_ms": result.recorder.p99,
        "dollars_per_op": total_dollars / completed,
        "workload_dollars_per_op": (total_dollars - migration_dollars)
        / completed,
        "migration_dollars": migration_dollars,
        "migrations": migrations,
        "rows_moved": rows_moved,
        "per_shard": per_shard,
        "imbalance": load_imbalance(per_shard),
        "forwards": len(store.ring.forwards),
    }
    from repro.kvstore.rebalance import placement_residue
    point["residue"] = placement_residue(store)
    runtime.kernel.shutdown()
    return point


def run_elasticity(seed: int = SEED, **kwargs) -> dict:
    return {
        "static": run_point(False, seed=seed, **kwargs),
        "elastic": run_point(True, seed=seed, **kwargs),
    }


def elasticity_table(points: dict) -> str:
    rows = []
    for label in ("static", "elastic"):
        point = points[label]
        rows.append([
            label,
            point["completed"],
            round(point["throughput_rps"], 1),
            round(point["p50_ms"], 1),
            round(point["p99_ms"], 1),
            f"{point['workload_dollars_per_op']:.2e}",
            f"{point['migration_dollars']:.2e}",
            point["migrations"],
            round(point["imbalance"]["max_mean"], 2),
            round(point["imbalance"]["gini"], 2),
        ])
    speedup = (points["elastic"]["throughput_rps"]
               / max(1e-9, points["static"]["throughput_rps"]))
    return format_table(
        f"Hot-key elasticity — {N_USERS} users x {REQUESTS_PER_USER} "
        f"reqs, Zipf(s={ZIPF_S}) over {N_KEYS} keys, {SHARDS} shards "
        f"(elastic/static = {speedup:.2f}x)",
        ["placement", "done", "rps", "p50 ms", "p99 ms", "$/op",
         "migr $", "moves", "max/mean", "gini"], rows)


def shard_dashboards(points: dict) -> str:
    return "\n\n".join(
        per_shard_table(f"Per-shard metering — {label} placement",
                        points[label]["per_shard"])
        for label in ("static", "elastic"))
