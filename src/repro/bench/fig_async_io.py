"""Async-I/O ablation driver: overlapped round trips + batched log writes.

A travel-style transactional workload (the fig15 reserve path's shape,
concentrated): each request opens one transaction over ``N_KEYS`` items
spread across ``SHARDS`` shards (read + write per key — the reserve
txn's inventory decrements), commits, then fans out
``N_LEAVES`` parallel leaf invocations (the notify/hydrate edges of the
travel workflow). The commit's shadow flushes and lock releases, the
cross-shard fan-outs, and the parallel-invoke log claims are exactly the
hot paths the ``async_io`` feature targets, so ``current`` (``on-on``)
and ``without="async_io"`` (``off-off``) separate cleanly:

- overlap of the commit fan-out (flushes/releases pay ``max`` instead of
  the sum) — the big p50 win;
- the N parallel-invoke claims coalesced into one ``BatchWriteItem``
  round trip — fewer requests at identical write units.

Run at nonzero virtual latency. ``$/op`` must stay flat: both
optimizations change round-trip counts and timing, never billed units.
"""

from __future__ import annotations

from repro.core import BeldiConfig, BeldiRuntime
from repro.obs.report import format_table
from repro.workload import run_closed_loop

SHARDS = 2
N_KEYS = 8
N_LEAVES = 3
REQUESTS = 12

#: point name -> the ``BeldiConfig.without`` it runs under.
CONFIGS = {"off-off": "async_io", "on-on": None}


def _keys() -> list[str]:
    return [f"item-{i:04d}" for i in range(N_KEYS)]


def build_runtime(without=None, shards: int = SHARDS, replicas: int = 1,
                  read_consistency: str = "strong",
                  seed: int = 29) -> BeldiRuntime:
    runtime = BeldiRuntime(
        seed=seed, latency_scale=1.0,
        config=BeldiConfig(gc_t=1e12, without=without,
                           read_consistency=read_consistency),
        shards=shards, replicas=replicas)

    def book(ctx, payload):
        with ctx.transaction() as tx:
            for key in payload["keys"]:
                current = ctx.read("inv", key) or 0
                ctx.write("inv", key, current + 1)
        ctx.parallel_invoke([("notify", {"slot": i})
                             for i in range(N_LEAVES)])
        return {"ok": tx.committed}

    ssf = runtime.register_ssf("book", book, tables=["inv"])
    runtime.register_ssf("notify", lambda ctx, payload: "ok")
    for key in _keys():
        ssf.env.seed("inv", key, 0)
    return runtime


def run_point(name: str, without=None, **kwargs) -> dict:
    runtime = build_runtime(without, **kwargs)
    dollars_before = runtime.store.metering.dollar_cost()
    result = run_closed_loop(
        runtime, "book",
        [[{"keys": _keys()} for _ in range(REQUESTS)]])
    meter = runtime.store.metering
    counts = {op: rec.count for op, rec in meter.ops.items()}
    # Exactly-once effects: every committed request incremented every key
    # exactly once — the ablation must not trade correctness for speed.
    env = runtime.envs["book"]
    effects = [env.peek("inv", key) for key in _keys()]
    point = {
        "config": name,
        "completed": result.completed,
        "failures": result.failures,
        "p50_ms": result.recorder.p50,
        "p99_ms": result.recorder.p99,
        "dollars_per_op": ((meter.dollar_cost() - dollars_before)
                           / max(1, result.completed)),
        "round_trips": sum(counts.values()),
        "batch_writes": counts.get("batch_write", 0),
        "effects": effects,
    }
    runtime.kernel.shutdown()
    return point


def run_ablation(**kwargs) -> list[dict]:
    return [run_point(name, without, **kwargs)
            for name, without in CONFIGS.items()]


def ablation_table(points: list[dict]) -> str:
    rows = []
    for point in points:
        rows.append([
            point["config"],
            point["completed"],
            round(point["p50_ms"], 1),
            round(point["p99_ms"], 1),
            f"{point['dollars_per_op']:.2e}",
            point["round_trips"],
            point["batch_writes"],
        ])
    return format_table(
        f"Async I/O ablation — {REQUESTS} booking txns x {N_KEYS} keys "
        f"+ {N_LEAVES} parallel leaves, shards={SHARDS}",
        ["config", "done", "p50 ms", "p99 ms", "$/op", "round trips",
         "batch writes"], rows)
