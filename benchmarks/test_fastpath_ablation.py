"""DAAL fast-path ablation: tail caching + batched chain reads (§4.4).

Runs the Figure-13-style single-item read/write loop (pre-grown 20-row
chain, calibrated virtual latency) on ``current`` ("on") and with
``without="fastpath"`` ("off") and reports per-operation latency, store
round trips, and request-unit dollar cost. The headline claim this file
gates:

    the fast path cuts the per-op store *requests* — specifically the
    metered ``query`` count of skeleton traversals — by at least 40%
    on the hot loop.

A second table runs the same pair on the transaction commit path
(shadow-tail fetches and GC liveness checks coalesce into
``batch_get`` round trips).
"""

from __future__ import annotations

from conftest import emit, emit_json

from repro.bench.fig13_ops import KEY, VALUE, _pre_grow_chain
from repro.bench.reporting import format_table
from repro.core import BeldiConfig, BeldiRuntime
from repro.workload.recorder import LatencyRecorder

ROWS = 20
READS = 60
WRITES = 60
TXNS = 12


def _config(fastpath: bool, **knobs) -> BeldiConfig:
    return BeldiConfig(gc_t=1e12,
                       without=None if fastpath else "fastpath", **knobs)


def run_hot_loop(fastpath: bool, seed: int = 41) -> dict:
    """The fig13-style loop: READS reads + WRITES writes of one item."""
    runtime = BeldiRuntime(seed=seed, latency_scale=1.0,
                           config=_config(fastpath))
    read_rec, write_rec = LatencyRecorder(), LatencyRecorder()

    def handler(ctx, payload):
        for _ in range(READS):
            start = ctx.platform_ctx.now
            ctx.read("kv", KEY)
            read_rec.record(0.0, ctx.platform_ctx.now - start)
        for i in range(WRITES):
            start = ctx.platform_ctx.now
            ctx.write("kv", KEY, f"{VALUE}-{i}")
            write_rec.record(0.0, ctx.platform_ctx.now - start)
        return "ok"

    ssf = runtime.register_ssf("bench", handler, tables=["kv"])
    table = ssf.env.data_table("kv")
    _pre_grow_chain(runtime.store, table, KEY, ROWS,
                    runtime.config.row_log_capacity)
    before = runtime.store.metering.copy()
    cost_before = runtime.store.metering.dollar_cost()
    runtime.run_workflow("bench")
    runtime.kernel.shutdown()
    delta = runtime.store.metering.diff(before)
    counts = {op: rec.count for op, rec in delta.items()}
    n_ops = READS + WRITES
    return {
        "queries": counts.get("query", 0),
        "round_trips": sum(counts.values()),
        "requests_per_op": sum(counts.values()) / n_ops,
        "read_p50": read_rec.p50,
        "write_p50": write_rec.p50,
        "dollars_per_op": (runtime.store.metering.dollar_cost()
                           - cost_before) / n_ops,
        "cache": runtime.tail_cache.stats.snapshot(),
    }


def run_txn_commits(fastpath: bool, seed: int = 17) -> dict:
    """TXNS multi-key transactions; counts commit-path round trips.

    ``row_log_capacity=1`` plus two writes per key makes every shadow
    chain span multiple rows, so the commit phase has real tail fetches
    to coalesce (single-row shadows ride along with the index query).
    """
    runtime = BeldiRuntime(seed=seed, latency_scale=1.0,
                           config=_config(fastpath, row_log_capacity=1))

    def transfer(ctx, payload):
        with ctx.transaction() as tx:
            a = ctx.read("accts", "a") or 0
            b = ctx.read("accts", "b") or 0
            c = ctx.read("accts", "c") or 0
            ctx.write("accts", "a", a)
            ctx.write("accts", "a", a - 1)
            ctx.write("accts", "b", b)
            ctx.write("accts", "b", b + 1)
            ctx.write("accts", "c", c)
            ctx.write("accts", "c", c)
        return tx.outcome

    ssf = runtime.register_ssf("transfer", transfer, tables=["accts"])
    for name in ("a", "b", "c"):
        ssf.env.seed("accts", name, 100)
    before = runtime.store.metering.copy()

    def client():
        for _ in range(TXNS):
            runtime.client_call("transfer", None)
            runtime.kernel.sleep(50.0)

    runtime.kernel.spawn(client)
    runtime.kernel.run()
    runtime.kernel.shutdown()
    delta = runtime.store.metering.diff(before)
    counts = {op: rec.count for op, rec in delta.items()}
    return {
        "queries": counts.get("query", 0),
        "gets": counts.get("read", 0),
        "batch_gets": counts.get("batch_get", 0),
        "round_trips": sum(counts.values()),
    }


def test_fastpath_ablation(benchmark):
    def run_all():
        hot = {on: run_hot_loop(on) for on in (False, True)}
        txn = {on: run_txn_commits(on) for on in (False, True)}
        return hot, txn

    hot, txn = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for on in (False, True):
        r = hot[on]
        rows.append([
            "on" if on else "off",
            r["queries"],
            r["round_trips"],
            round(r["requests_per_op"], 2),
            round(r["read_p50"], 2),
            round(r["write_p50"], 2),
            f"{r['dollars_per_op']:.2e}",
        ])
    text = format_table(
        f"Fast-path ablation — fig13-style loop ({READS}r+{WRITES}w, "
        f"{ROWS}-row DAAL)",
        ["fastpath", "queries", "round trips", "req/op", "read p50",
         "write p50", "$/op"], rows)

    rows = []
    for on, r in sorted(txn.items()):
        rows.append([
            "on" if on else "off",
            r["queries"],
            r["gets"],
            r["batch_gets"],
            r["round_trips"],
        ])
    text += "\n" + format_table(
        f"Fast-path ablation — {TXNS} 3-key transactions (commit path)",
        ["fastpath", "queries", "gets", "batch_gets", "round trips"],
        rows)
    emit(text)
    emit_json("fastpath_ablation",
              hot_loop={"on" if on else "off": r
                        for on, r in hot.items()},
              txn_commits={"tc=on,br=on" if on else "tc=off,br=off": r
                           for on, r in sorted(txn.items())})

    # Acceptance: the fast path cuts traversal queries by >= 40% on the
    # hot loop (it eliminates nearly all of them).
    assert hot[True]["queries"] <= 0.6 * hot[False]["queries"], (
        f"queries on={hot[True]['queries']} off={hot[False]['queries']}")
    # And the total store round trips (request-rate pressure) drop too.
    assert hot[True]["round_trips"] < hot[False]["round_trips"]
    # The cache must actually be hitting, not just bypassed.
    assert hot[True]["cache"]["tail_hits"] > 0
    # Latency: going straight to the tail is no slower, and the op mix
    # is strictly cheaper in request dollars.
    assert hot[True]["dollars_per_op"] < hot[False]["dollars_per_op"]

    # The fast path coalesces commit-path reads into batch_get round
    # trips and dominates the seed configuration.
    assert txn[True]["batch_gets"] > 0
    assert txn[True]["round_trips"] < txn[False]["round_trips"]
