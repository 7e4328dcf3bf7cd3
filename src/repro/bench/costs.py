"""§7.3 "Other costs" driver: storage, network, and dollar overheads.

Regenerates the in-text cost analysis: the storage footprint of a 20-row
DAAL, the extra bytes each primitive stores (log entries + metadata), the
network overhead of scan+projection traversal vs a single-row read, the
extra store operations per Beldi primitive, and the marginal dollar cost
in on-demand pricing.
"""

from __future__ import annotations

from repro.bench.fig13_ops import KEY, VALUE, _build_runtime, \
    _pre_grow_chain
from repro.core import daal
from repro.kvstore import AttrExists
from repro.kvstore.expressions import Projection


def measure_costs(rows: int = 20, seed: int = 12) -> dict:
    """Meter one of each primitive in baseline vs Beldi modes."""
    out: dict = {}

    # -- storage: the pre-grown DAAL itself --------------------------------
    runtime = _build_runtime("beldi", seed)
    env = runtime.create_env("cost", tables=["kv"])
    table = env.data_table("kv")
    _pre_grow_chain(runtime.store, table, KEY, rows,
                    runtime.config.row_log_capacity)
    out["daal_rows"] = rows
    out["daal_storage_bytes"] = runtime.store.storage_bytes(table)

    # -- network: projected scan vs single-row read -------------------------
    skeleton_result = runtime.store.query(
        table, KEY, projection=Projection.of("RowId", "NextRow"))
    single_row = runtime.store.query(table, KEY, limit=1)
    out["scan_projection_bytes"] = skeleton_result.consumed_bytes
    out["single_row_bytes"] = single_row.consumed_bytes
    out["scan_extra_bytes"] = (skeleton_result.consumed_bytes
                               - single_row.consumed_bytes
                               // max(1, single_row.scanned_count))
    runtime.kernel.shutdown()

    # -- per-op store operations and bytes, baseline vs Beldi ----------------
    for mode in ("baseline", "beldi"):
        rt = _build_runtime(mode, seed)
        ssf = rt.register_ssf("bench", _one_of_each, tables=["kv"])
        rt.register_ssf("leaf", lambda ctx, p: "ok")
        ssf.env.seed("kv", KEY, VALUE)
        before = rt.store.metering.copy()
        rt.run_workflow("bench")
        delta = rt.store.metering.diff(before)
        ops = {name: rec.count for name, rec in delta.items()}
        out[f"{mode}_ops"] = ops
        out[f"{mode}_total_ops"] = sum(ops.values())
        out[f"{mode}_bytes_written"] = sum(
            rec.bytes_written for rec in delta.values())
        out[f"{mode}_bytes_read"] = sum(
            rec.bytes_read for rec in delta.values())
        out[f"{mode}_dollars"] = _dollars(delta)
        rt.kernel.shutdown()
    return out


def _one_of_each(ctx, payload):
    """One read, one write, one condWrite, one invoke."""
    ctx.read("kv", KEY)
    ctx.write("kv", KEY, VALUE)
    ctx.cond_write("kv", KEY, VALUE, AttrExists("Key"))
    ctx.sync_invoke("leaf", None)
    return "ok"


def _dollars(delta: dict) -> float:
    from repro.kvstore.metering import (DOLLARS_PER_READ_UNIT,
                                        DOLLARS_PER_WRITE_UNIT)
    total = 0.0
    for rec in delta.values():
        total += rec.read_units * DOLLARS_PER_READ_UNIT
        total += rec.write_units * DOLLARS_PER_WRITE_UNIT
    return total
