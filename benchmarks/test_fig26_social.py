"""Figure 26 (Appendix C): social media site, latency vs throughput.

Same shape as Fig. 14; the compose path additionally exercises
asynchronous fan-out to follower home timelines.
"""

from conftest import emit, emit_json

from repro.bench.fig1415_apps import app_sweep
from repro.obs.report import format_table

RATES = (10.0, 20.0, 30.0, 40.0, 60.0, 80.0)
APP_KWARGS = {"n_users": 40, "followers_per_user": 5}


def run_sweeps():
    return {
        mode: app_sweep("social", mode, rates=RATES, duration_ms=4_000.0,
                        warmup_ms=1_000.0, app_kwargs=APP_KWARGS)
        for mode in ("baseline", "beldi")
    }


def test_fig26_social_sweep(benchmark):
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
        "Figure 26 — social media: latency vs throughput "
        "(virtual ms / req/s)",
        ["offered", "base rps", "base p50", "base p99",
         "beldi rps", "beldi p50", "beldi p99"], rows))
    emit_json("fig26", rates=list(RATES), curves=curves)

    low_base, low_beldi = curves["baseline"][0], curves["beldi"][0]
    assert low_base["achieved_rps"] >= RATES[0] * 0.9
    assert low_beldi["achieved_rps"] >= RATES[0] * 0.9
    ratio = low_beldi["p50_ms"] / low_base["p50_ms"]
    assert 1.5 <= ratio <= 4.5, f"low-load median ratio {ratio}"
    final = curves["beldi"][-1]
    assert final["rejected"] > 0
    assert (curves["baseline"][-1]["achieved_rps"]
            > final["achieved_rps"] * 1.2)
