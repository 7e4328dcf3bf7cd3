"""Figure 16: effect of garbage collection on a hot-key write SSF.

Paper's shape: without GC the linked DAAL grows and median response time
climbs steadily; with the GC triggered periodically (the paper tries 1,
10, and 30-minute triggers) latency stays flat regardless of the choice;
the cross-table-transaction variant is flat too but pays its constant
premium on every write.

Time is scaled 10x: the paper's 60-minute run becomes 6 virtual minutes,
and its 1/10/30-minute triggers become 6/60/180 virtual seconds.
"""

from conftest import emit, emit_json

from repro.bench.fig16_gc import gc_timeseries
from repro.bench.reporting import format_series

DURATION = 360_000.0
BUCKET = 30_000.0
CONFIGS = {
    "without GC": dict(gc_period_ms=None),
    "with GC (1 min)": dict(gc_period_ms=6_000.0),
    "with GC (10 min)": dict(gc_period_ms=60_000.0),
    "with GC (30 min)": dict(gc_period_ms=180_000.0),
    "cross-table txn": dict(gc_period_ms=None, mode="crosstable"),
}


def run_all():
    return {label: gc_timeseries(duration_ms=DURATION, bucket_ms=BUCKET,
                                 rate_rps=20.0, **kwargs)
            for label, kwargs in CONFIGS.items()}


def test_fig16_gc_effect(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit(format_series(
        "Figure 16 — median write-SSF response vs time (virtual ms), "
        "10x time scale",
        {label: r["series"] for label, r in results.items()}))
    emit_json("fig16", series={label: r["series"]
                               for label, r in results.items()},
              p50_ms={label: r["p50"] for label, r in results.items()},
              final_chain_rows={label: r["final_chain_rows"]
                                for label, r in results.items()})

    def first_last(label):
        series = results[label]["series"]
        return series[0][1], series[-1][1]

    # Without GC the chain grows and the median climbs markedly.
    start, no_gc_end = first_last("without GC")
    assert no_gc_end > start * 1.5, f"no-GC grew {start} -> {no_gc_end}"
    assert results["without GC"]["final_chain_rows"] > 100
    # A frequent GC keeps latency flat...
    start, end = first_last("with GC (1 min)")
    assert end < start * 1.35, f"1-min GC grew {start} -> {end}"
    assert results["with GC (1 min)"]["final_chain_rows"] < 40
    # ...a 10-minute trigger plateaus well below the uncollected line...
    _, end_10 = first_last("with GC (10 min)")
    assert end_10 < no_gc_end * 0.85, f"10-min GC ended at {end_10}"
    # ...and the 30-minute trigger completes only one collection inside
    # the (scaled) window, so it merely must not exceed no-GC (the
    # paper's 60-minute window shows the same first-collection lag).
    _, end_30 = first_last("with GC (30 min)")
    assert end_30 <= no_gc_end * 1.1
    # Cross-table is flat but strictly costlier than collected Beldi.
    start, end = first_last("cross-table txn")
    assert end < start * 1.35
    assert (results["cross-table txn"]["p50"]
            > results["with GC (1 min)"]["p50"])
