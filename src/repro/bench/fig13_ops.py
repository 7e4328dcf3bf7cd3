"""Figure 13 / Figure 25 driver: primitive operation latency.

Measures median and p99 latency of ``read``, ``write``, ``condWrite``,
and ``invoke`` at low load (one instance at a time), for three systems:

- ``baseline`` — raw store/platform access, no guarantees;
- ``beldi`` — the linked-DAAL implementation;
- ``crosstable`` — Beldi's logging via cross-table transactions.

As in §7.3: 1-byte keys, 16-byte values, and the target key's linked DAAL
pre-grown to ``rows`` rows (20 for Fig. 13, 5 for Fig. 25). The
pre-growth is applied directly to the store (no virtual latency), so the
measurement starts from the paper's configuration.
"""

from __future__ import annotations

from typing import Any

from repro.core import BaselineRuntime, BeldiConfig, BeldiRuntime
from repro.core import daal
from repro.kvstore import AttrExists, Set
from repro.workload.recorder import LatencyRecorder

OPS = ("read", "write", "cond_write", "invoke")
KEY = "k"
VALUE = "v" * 16


def _pre_grow_chain(store, table: str, key: Any, rows: int,
                    capacity: int) -> None:
    """Build a ``rows``-row chain directly (driver-side, zero latency)."""
    daal.ensure_head(store, table, key, value=VALUE)
    prev_id = daal.HEAD_ROW_ID
    for i in range(1, rows):
        writes = {f"grow-{i}#{j}": True for j in range(capacity)}
        store.table(table).update(
            (key, prev_id),
            [Set("RecentWrites", writes), Set("LogSize", capacity)])
        prev = store.get(table, (key, prev_id))
        prev_id = daal.append_row(store, table, key, prev, f"grown-{i}")
        store.table(table).update((key, prev_id), [Set("Value", VALUE)])


def _make_bench_handler(op: str, samples_per_call: int):
    """The measured SSF: times ``samples_per_call`` ops from inside."""
    def handler(ctx, payload):
        latencies = []
        for i in range(samples_per_call):
            start = ctx.platform_ctx.now
            if op == "read":
                ctx.read("kv", KEY)
            elif op == "write":
                ctx.write("kv", KEY, VALUE)
            elif op == "cond_write":
                ctx.cond_write("kv", KEY, VALUE, AttrExists("Key"))
            elif op == "invoke":
                ctx.sync_invoke("leaf", None)
            latencies.append(ctx.platform_ctx.now - start)
        return latencies

    return handler


def _build_runtime(mode: str, seed: int):
    if mode == "baseline":
        runtime = BaselineRuntime(seed=seed, latency_scale=1.0)
    else:
        # Figures 13/25 reproduce the paper's measurements of the
        # un-optimized protocol (the ``paper`` profile); the §4.4 fast
        # path and the async/batched I/O layer are benchmarked separately
        # (benchmarks/test_fastpath_ablation.py, test_async_io.py).
        runtime = BeldiRuntime(
            seed=seed, latency_scale=1.0,
            config=BeldiConfig(profile="paper", gc_t=1e12))
    return runtime


def measure_primitive_ops(mode: str, rows: int = 20, samples: int = 120,
                          batch: int = 10, seed: int = 33) -> dict:
    """Return ``{op: {"p50": ..., "p99": ..., "n": ...}}`` for one mode.

    Runs ``samples`` operations of each kind in batches of ``batch`` per
    SSF instance (instances arrive sequentially — the paper's 1 req/s
    low-load setting), re-growing the chain between batches so write-side
    growth does not drift the configuration away from ``rows``.
    """
    results = {}
    for op in OPS:
        runtime = _build_runtime(mode, seed)
        storage = "crosstable" if mode == "crosstable" else "daal"
        if mode == "baseline":
            ssf = runtime.register_ssf(
                "bench", _make_bench_handler(op, batch), tables=["kv"])
        else:
            ssf = runtime.register_ssf(
                "bench", _make_bench_handler(op, batch), tables=["kv"],
                storage_mode=storage)
        runtime.register_ssf("leaf", lambda ctx, p: "ok")
        env = ssf.env
        recorder = LatencyRecorder()

        def reset_data():
            table = env.data_table("kv")
            if mode == "baseline":
                env.seed("kv", KEY, VALUE)
            elif mode == "crosstable":
                env.seed("kv", KEY, VALUE)
            else:
                data = env.store.table(table)
                for row in data.scan().items:
                    data.delete(data.schema.normalize(row))
                _pre_grow_chain(env.store, table, KEY, rows,
                                runtime.config.row_log_capacity)

        calls = max(1, samples // batch)

        def client():
            for _ in range(calls):
                # Re-grow between batches so write growth does not drift
                # the chain away from the configured ``rows``.
                reset_data()
                latencies = runtime.client_call("bench", None)
                for latency in latencies:
                    recorder.record(0.0, latency)
                runtime.kernel.sleep(100.0)

        runtime.kernel.spawn(client)
        runtime.kernel.run()
        runtime.kernel.shutdown()
        results[op] = {"p50": recorder.p50, "p99": recorder.p99,
                       "n": recorder.count}
    return results


def traversal_ablation(chain_lengths=(2, 10, 25, 50),
                       samples: int = 30, seed: int = 9) -> dict:
    """Scan+projection vs pointer-chasing traversal cost by chain length.

    The paper's design choice (see docs/benchmarks.md): Beldi's single
    projected query keeps traversal latency nearly flat, while the naive
    walk pays one round trip per row.
    """
    results = {}
    for rows in chain_lengths:
        runtime = BeldiRuntime(seed=seed, latency_scale=1.0,
                               config=BeldiConfig(profile="paper",
                                                  gc_t=1e12))
        env = runtime.create_env("bench", tables=["kv"])
        table = env.data_table("kv")
        _pre_grow_chain(runtime.store, table, KEY, rows,
                        runtime.config.row_log_capacity)
        scan_rec, chase_rec = LatencyRecorder(), LatencyRecorder()

        def measurer():
            for _ in range(samples):
                start = runtime.kernel.now
                daal.load_skeleton(runtime.store, table, KEY)
                scan_rec.record(0.0, runtime.kernel.now - start)
                start = runtime.kernel.now
                daal.load_skeleton_by_pointer(runtime.store, table, KEY)
                chase_rec.record(0.0, runtime.kernel.now - start)

        runtime.kernel.spawn(measurer)
        runtime.kernel.run()
        runtime.kernel.shutdown()
        results[rows] = {"scan_p50": scan_rec.p50,
                         "chase_p50": chase_rec.p50}
    return results
