"""Figure 14: movie review service, latency vs throughput.

Paper's shape: Beldi's median tracks the baseline at a 2-3.3x premium at
low load; the offered-load sweep drives the account into its concurrency
cap where achieved throughput plateaus and the gateway rejects the rest.
Scaled ~10x down from the paper's 100-800 req/s @ 1,000-Lambda setup
(see docs/benchmarks.md).
"""

from conftest import emit, emit_json

from repro.bench.fig1415_apps import app_sweep
from repro.bench.reporting import format_table

RATES = (10.0, 20.0, 30.0, 40.0, 60.0, 80.0, 110.0)
APP_KWARGS = {"n_movies": 40, "n_users": 40}


def run_sweeps():
    return {
        mode: app_sweep("movie", mode, rates=RATES, duration_ms=4_000.0,
                        warmup_ms=1_000.0, app_kwargs=APP_KWARGS)
        for mode in ("baseline", "beldi")
    }


def test_fig14_movie_review_sweep(benchmark):
    curves = benchmark.pedantic(run_sweeps, rounds=1, iterations=1)
    rows = []
    for base_row, beldi_row in zip(curves["baseline"], curves["beldi"]):
        rows.append([
            base_row["offered_rps"],
            base_row["achieved_rps"], base_row["p50_ms"],
            base_row["p99_ms"],
            beldi_row["achieved_rps"], beldi_row["p50_ms"],
            beldi_row["p99_ms"],
        ])
    emit(format_table(
        "Figure 14 — movie review: latency vs throughput "
        "(virtual ms / req/s)",
        ["offered", "base rps", "base p50", "base p99",
         "beldi rps", "beldi p50", "beldi p99"], rows))
    emit_json("fig14", rates=list(RATES), curves=curves)

    low_base = curves["baseline"][0]
    low_beldi = curves["beldi"][0]
    # Both systems deliver the offered load when unsaturated.
    assert low_base["achieved_rps"] >= RATES[0] * 0.9
    assert low_beldi["achieved_rps"] >= RATES[0] * 0.9
    # Low-load median premium in the paper's 2-3.3x band (we allow up to
    # 4x: our baseline has no real HTTP stack under it).
    ratio = low_beldi["p50_ms"] / low_base["p50_ms"]
    assert 1.5 <= ratio <= 4.5, f"low-load median ratio {ratio}"
    # Beldi hits the concurrency-cap knee within the sweep: achieved
    # throughput plateaus while offered keeps growing.
    final = curves["beldi"][-1]
    assert final["rejected"] > 0
    assert final["achieved_rps"] < RATES[-1] * 0.75
    plateau = [r["achieved_rps"] for r in curves["beldi"][-3:]]
    assert max(plateau) / max(1e-9, min(plateau)) < 1.6
    # The baseline saturates later (it occupies each Lambda for less
    # time), and its ceiling is higher than Beldi's.
    assert (curves["baseline"][-1]["achieved_rps"]
            > final["achieved_rps"] * 1.5)
    # Median latency stays stable for admitted requests (the gateway
    # sheds the excess), matching the paper's flat-then-reject shape.
    assert final["p50_ms"] < low_beldi["p50_ms"] * 2.5
