"""Ablation: scan+projection traversal vs pointer chasing (§4.1).

The paper's design choice (see docs/benchmarks.md): Beldi downloads a projected
skeleton of the whole chain in one query; the strawman walks NextRow
pointers with one round trip per row. The gap must widen with chain
length — this is why the linked DAAL stays cheap even before GC trims it.
"""

from conftest import emit, emit_json

from repro.bench.fig13_ops import traversal_ablation
from repro.obs.report import format_table

LENGTHS = (2, 10, 25, 50)


def test_traversal_ablation(benchmark):
    results = benchmark.pedantic(
        lambda: traversal_ablation(chain_lengths=LENGTHS, samples=40),
        rounds=1, iterations=1)
    rows = [[rows_n, results[rows_n]["scan_p50"],
             results[rows_n]["chase_p50"],
             results[rows_n]["chase_p50"] / results[rows_n]["scan_p50"]]
            for rows_n in LENGTHS]
    emit(format_table(
        "Ablation — DAAL traversal median latency (virtual ms)",
        ["chain rows", "scan+projection", "pointer chase", "chase/scan"],
        rows))
    emit_json("ablation_traversal",
              latency_ms={str(n): results[n] for n in LENGTHS})

    # Pointer chasing degrades linearly with depth; the scan stays flat.
    shallow, deep = LENGTHS[0], LENGTHS[-1]
    scan_growth = (results[deep]["scan_p50"]
                   / results[shallow]["scan_p50"])
    chase_growth = (results[deep]["chase_p50"]
                    / results[shallow]["chase_p50"])
    assert chase_growth > 5.0, f"chase growth only {chase_growth}"
    assert scan_growth < 3.0, f"scan grew {scan_growth}"
    # At depth, the scan wins by a wide margin.
    assert (results[deep]["chase_p50"]
            > results[deep]["scan_p50"] * 3.0)
