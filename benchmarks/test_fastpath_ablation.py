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
``batch_get`` round trips). A third puts concurrent writers on one hot
key: with the fast path the writer that fills a row appends its
successor and the others wait for that one append (fill-and-extend,
``repro/core/ops.py``), so growing the chain costs two round trips per
filled row instead of a doomed update, a ``get``, a candidate put and a
CAS per writer that meets the full tail — gated at half the lazy cost.
A fourth prices what extending eagerly can waste: keys whose last write
fills a row, so the successor it buys is never used — gated at exactly
two round trips and one empty row per such fill, still no more store
requests than the seed path spends on the same writes.
"""

from __future__ import annotations

from conftest import emit, emit_json

from repro.bench.fig13_ops import KEY, VALUE, _pre_grow_chain
from repro.core import BeldiConfig, BeldiRuntime
from repro.obs.report import format_table
from repro.workload.recorder import LatencyRecorder

ROWS = 20
READS = 60
WRITES = 60
TXNS = 12
HOT_WRITERS = 8
HOT_WRITES = 12
HOT_CAPACITY = 4
COLD_KEYS = 16


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


def run_hot_key_writers(fastpath: bool, seed: int = 23) -> dict:
    """HOT_WRITERS concurrent requests, HOT_WRITES writes each, all on
    one key; counts what growing its chain costs beyond the one landed
    update per write (and, without the cache, its one probe query)."""
    runtime = BeldiRuntime(
        seed=seed, latency_scale=1.0,
        config=_config(fastpath, row_log_capacity=HOT_CAPACITY))

    def handler(ctx, payload):
        for i in range(HOT_WRITES):
            ctx.write("kv", KEY, [payload, i])
        return "ok"

    ssf = runtime.register_ssf("bench", handler, tables=["kv"])
    ssf.env.seed("kv", KEY, VALUE)
    table = ssf.env.data_table("kv")
    before = runtime.store.metering.copy()
    for writer in range(HOT_WRITERS):
        runtime.kernel.spawn(
            lambda writer=writer: runtime.client_call("bench", writer))
    runtime.kernel.run()
    runtime.kernel.shutdown()
    counts = {op: rec.count for op, rec in
              runtime.store.metering.diff(before).items()}
    queries = counts.get("query", 0)
    writes = HOT_WRITERS * HOT_WRITES
    on_table = (runtime.store.metering.per_table[table]
                - before.per_table[table])
    return {
        "writes": writes,
        "table_round_trips": on_table,
        "queries": queries,
        "append_round_trips_per_write":
            (on_table - writes - queries) / writes,
        "rows": len(runtime.store.query(table, KEY).items),
        "cache": runtime.tail_cache.stats.snapshot(),
    }


def run_cold_keys(fastpath: bool, seed: int = 29) -> dict:
    """Fill-and-extend's worst case: COLD_KEYS keys, each written
    exactly HOT_CAPACITY times and never again — every key's last write
    fills its row and buys a successor nobody uses."""
    runtime = BeldiRuntime(
        seed=seed, latency_scale=1.0,
        config=_config(fastpath, row_log_capacity=HOT_CAPACITY))

    def handler(ctx, payload):
        for i in range(HOT_CAPACITY):
            ctx.write("kv", payload, i)
        return "ok"

    ssf = runtime.register_ssf("bench", handler, tables=["kv"])
    keys = [f"cold-{i}" for i in range(COLD_KEYS)]
    for name in keys:
        ssf.env.seed("kv", name, VALUE)
    table = ssf.env.data_table("kv")
    before = runtime.store.metering.copy()
    for name in keys:
        runtime.run_workflow("bench", name)
    runtime.kernel.shutdown()
    counts = {op: rec.count for op, rec in
              runtime.store.metering.diff(before).items()}
    return {
        "writes": COLD_KEYS * HOT_CAPACITY,
        "table_round_trips": (runtime.store.metering.per_table[table]
                              - before.per_table[table]),
        "queries": counts.get("query", 0),
        "rows": sum(len(runtime.store.query(table, name).items)
                    for name in keys),
        "cache": runtime.tail_cache.stats.snapshot(),
    }


def test_fastpath_ablation(benchmark):
    def run_all():
        hot = {on: run_hot_loop(on) for on in (False, True)}
        txn = {on: run_txn_commits(on) for on in (False, True)}
        key = {on: run_hot_key_writers(on) for on in (False, True)}
        cold = {on: run_cold_keys(on) for on in (False, True)}
        return hot, txn, key, cold

    hot, txn, key, cold = benchmark.pedantic(run_all, rounds=1,
                                             iterations=1)

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

    rows = []
    for on, r in sorted(key.items()):
        rows.append([
            "on" if on else "off",
            r["table_round_trips"],
            r["queries"],
            r["rows"],
            round(r["append_round_trips_per_write"], 3),
            r["cache"]["extensions"],
            r["cache"]["extension_waits"],
            r["cache"]["append_races_lost"],
        ])
    text += "\n" + format_table(
        f"Fast-path ablation — {HOT_WRITERS} concurrent writers x "
        f"{HOT_WRITES} writes on one key (capacity {HOT_CAPACITY})",
        ["fastpath", "table round trips", "queries", "rows",
         "append rt/write", "extensions", "waits", "races lost"], rows)

    rows = []
    for on, r in sorted(cold.items()):
        rows.append([
            "on" if on else "off",
            r["table_round_trips"],
            r["queries"],
            r["rows"],
            r["cache"]["extensions"],
        ])
    text += "\n" + format_table(
        f"Fast-path ablation — {COLD_KEYS} keys written {HOT_CAPACITY} "
        f"times each and never again (capacity {HOT_CAPACITY})",
        ["fastpath", "table round trips", "queries", "rows",
         "extensions"], rows)
    emit(text)
    emit_json("fastpath_ablation",
              hot_loop={"on" if on else "off": r
                        for on, r in hot.items()},
              hot_key_writers={"on" if on else "off": r
                               for on, r in key.items()},
              cold_keys={"on" if on else "off": r
                         for on, r in cold.items()},
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

    # Fill-and-extend: one append per filled row and nobody races it,
    # so growing a hot chain costs at most half of what lazy case D
    # does — and no candidate is orphaned.
    fills = HOT_WRITERS * HOT_WRITES // HOT_CAPACITY
    assert key[True]["cache"]["extensions"] == fills
    assert key[True]["cache"]["append_races_lost"] == 0
    assert key[True]["rows"] == fills + 1 < key[False]["rows"]
    assert (key[True]["append_round_trips_per_write"]
            <= 0.5 * key[False]["append_round_trips_per_write"]), (
        key[True], key[False])

    # What extending eagerly can waste, bounded: a fill whose next write
    # never comes costs the candidate put and the CAS — two round trips
    # and one empty row, i.e. at most 2 / row_log_capacity round trips
    # per write to such a key — and nothing else. Beside the one probe
    # per key and one update per write that is still no more than the
    # seed path's probe + update per write.
    on, off = cold[True], cold[False]
    assert on["cache"]["extensions"] == COLD_KEYS
    assert on["rows"] == 2 * COLD_KEYS and off["rows"] == COLD_KEYS
    assert (on["table_round_trips"] - on["writes"] - on["queries"]
            == 2 * COLD_KEYS), on
    assert on["table_round_trips"] <= off["table_round_trips"], (on, off)
