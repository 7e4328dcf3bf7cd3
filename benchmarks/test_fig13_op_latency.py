"""Figure 13: median/p99 latency of Beldi's primitives, 20-row DAAL.

Paper's shape: every Beldi operation lands ~2-4x the baseline's median;
the cross-table-transaction variant pays ~2-2.5x Beldi's linked-DAAL cost
on writes but *less* than Beldi on reads (no chain scan).
"""

from conftest import emit, emit_json

from repro.bench.fig13_ops import OPS, measure_primitive_ops
from repro.bench.reporting import format_table

ROWS = 20


def run_measurement():
    return {mode: measure_primitive_ops(mode, rows=ROWS, samples=120,
                                        batch=10)
            for mode in ("baseline", "beldi", "crosstable")}


def test_fig13_primitive_latency(benchmark):
    results = benchmark.pedantic(run_measurement, rounds=1, iterations=1)
    rows = []
    for op in OPS:
        rows.append([
            op,
            results["baseline"][op]["p50"],
            results["baseline"][op]["p99"],
            results["beldi"][op]["p50"],
            results["beldi"][op]["p99"],
            results["crosstable"][op]["p50"],
            results["crosstable"][op]["p99"],
        ])
    emit(format_table(
        f"Figure 13 — primitive op latency (virtual ms), {ROWS}-row DAAL",
        ["op", "base p50", "base p99", "beldi p50", "beldi p99",
         "xtable p50", "xtable p99"], rows))
    emit_json("fig13", rows=ROWS, latency_ms=results)

    for op in OPS:
        base = results["baseline"][op]["p50"]
        beldi = results["beldi"][op]["p50"]
        ratio = beldi / base
        # "all of Beldi's operations are around 2-4x more expensive"
        assert 1.5 <= ratio <= 6.0, f"{op}: beldi/baseline p50 = {ratio}"
    # Cross-table transactions cost ~2-2.5x Beldi on the write path...
    for op in ("write", "cond_write"):
        ratio = (results["crosstable"][op]["p50"]
                 / results["beldi"][op]["p50"])
        assert 1.5 <= ratio <= 3.5, f"{op}: xtable/beldi p50 = {ratio}"
    # ...but less than Beldi on reads (no chain scan, §7.3).
    assert (results["crosstable"]["read"]["p50"]
            < results["beldi"]["read"]["p50"])
    # Invocation costs are storage-mode independent.
    invoke_ratio = (results["crosstable"]["invoke"]["p50"]
                    / results["beldi"]["invoke"]["p50"])
    assert 0.7 <= invoke_ratio <= 1.4
