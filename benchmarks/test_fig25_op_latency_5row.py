"""Figure 25 (Appendix C): Fig. 13's measurement with a 5-row DAAL.

The paper's optimistic setting: shorter chains, slightly cheaper Beldi
reads/writes, same qualitative ordering.
"""

from conftest import emit, emit_json

from repro.bench.fig13_ops import OPS, measure_primitive_ops
from repro.bench.reporting import format_table

ROWS = 5


def run_measurement():
    return {mode: measure_primitive_ops(mode, rows=ROWS, samples=120,
                                        batch=10)
            for mode in ("baseline", "beldi", "crosstable")}


def test_fig25_primitive_latency_5row(benchmark):
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
        f"Figure 25 — primitive op latency (virtual ms), {ROWS}-row DAAL",
        ["op", "base p50", "base p99", "beldi p50", "beldi p99",
         "xtable p50", "xtable p99"], rows))
    emit_json("fig25", rows=ROWS, latency_ms=results)

    for op in OPS:
        ratio = (results["beldi"][op]["p50"]
                 / results["baseline"][op]["p50"])
        assert 1.5 <= ratio <= 6.0, f"{op}: beldi/baseline p50 = {ratio}"
    # A 5-row chain must not cost more to operate on than a 20-row one:
    # compare reads against the Fig. 13 configuration.
    deep = measure_primitive_ops("beldi", rows=20, samples=60, batch=10)
    assert results["beldi"]["read"]["p50"] <= deep["read"]["p50"] * 1.1
