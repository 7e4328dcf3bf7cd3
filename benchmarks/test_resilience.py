"""Resilience-under-incident gate: a dark shard must not sink goodput.

Runs ``repro.bench.fig_resilience`` — the 2x2 of resilience on/off x
incident/fault-free at a sub-knee open-loop rate, with shard 0 dark for
20% of the measured window — and gates the PR's three claims:

- arrivals *during* the outage complete at >= 3x the goodput of the
  ``without="resilience"`` run (retry/backoff + breaker + post-heal
  completion vs raw ``UnavailableError`` propagation);
- the post-recovery phase drains: its p99 stays within a small multiple
  of the fault-free p99 instead of smearing across the rest of the run;
- fault-free, the layer costs nothing: $/op within 10% of the ablation
  (bit-for-bit identical in practice) and zero failed requests.
"""

from __future__ import annotations

from conftest import emit, emit_json

from repro.bench.fig_resilience import figure_table, run_figure


def test_resilience_figure():
    figure = run_figure()
    emit(figure_table(figure))
    emit_json("resilience", **figure)

    runs = figure["runs"]
    incident = runs["incident"]
    raw = runs["raw"]

    # The incident actually bit the ablated run: mid-window arrivals
    # failed raw, and enough survived on the healthy shard that the
    # ratio below measures recovery, not division noise.
    assert sum(raw["phases"]["during"]["failed"].values()) > 0, (
        "the dark window injured nothing — outage misconfigured")

    # Money gate: goodput for arrivals during the dark window.
    assert figure["goodput_ratio_during_outage"] >= 3.0, (
        f"resilience bought only "
        f"{figure['goodput_ratio_during_outage']}x during the outage")

    # With the layer on, the incident is *survived*: no client-visible
    # failures in any phase.
    for phase, row in incident["phases"].items():
        assert not row["failed"], (
            f"incident run failed requests in {phase}: {row['failed']}")

    # Post-recovery latency is bounded: the retry backlog drains into
    # the heal, not across the remainder of the run.
    assert figure["post_p99_ms"] is not None
    assert figure["post_p99_ms"] <= 5.0 * figure["fault_free_p99_ms"], (
        f"post-recovery p99 {figure['post_p99_ms']}ms vs fault-free "
        f"{figure['fault_free_p99_ms']}ms")
    # And the tail of the run is fully back to normal by its last
    # arrivals: overall goodput within 5% of the fault-free run's.
    assert incident["overall"]["completed"] >= (
        0.95 * runs["baseline"]["overall"]["completed"])

    # Fault-free cost discipline: the layer on vs off is bit-for-bit,
    # so the $/op overhead must vanish (<= 10% leaves margin for future
    # non-zero-cost hooks).
    assert figure["cost_overhead"] <= 0.10, (
        f"fault-free $/op overhead {figure['cost_overhead'] * 100:.1f}%")
    assert not runs["baseline"]["overall"]["errors"]
    assert not runs["raw_clean"]["overall"]["errors"]
