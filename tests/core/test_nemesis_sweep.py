"""Nemesis sweep: the concurrent DST mix under scheduled fault timelines.

Each scenario scripts an incident — a shard dark for a window, an
asymmetric leader↔follower partition, a gray (persistently slow) node,
an error burst, a deadline-bounded run — and drives the full concurrent
workload (two conflicting travel reservations + a movie review) through
it. After recovery + GC the invariant triple must hold regardless of
what the clients saw: exactly-once effects, atomicity, clean store,
zero placement residue. A sub-grid additionally sweeps *when* the
outage lands, and a seeded-schedule exploration races protocol steps
against the fault edges' interleave points. Failures are replayable
from the printed ``DST-REPLAY seed=... trace=...`` line and carry the
timeline in the ``$DST_FAILURE_FILE`` artifact. See docs/resilience.md.
"""

from __future__ import annotations

import os

import pytest

import dst
from repro.kvstore import FaultTimeline

WRITE_OPS = ("db.write", "db.cond_write", "db.batch_write")

# Retry/breaker knobs matched to the incident scale of the DST mix
# (tens-to-hundreds of virtual ms): enough budget to ride out the
# survivable windows, cooldowns short enough to re-probe before the
# retry budget drains against fast-fails.
TUNED = dict(retry_max_attempts=10, breaker_cooldown=60.0)


def scenario_flags(base, timeline, **extra):
    flags = dict(base, timeline=timeline, **TUNED)
    flags.update(extra)
    return flags


def outcomes(results):
    return {name: (value.get("ok") if isinstance(value, dict) else value)
            for name, value in sorted(results.items())}


LIGHT_SCENARIOS = {
    "outage-shard0": FaultTimeline().outage(0.0, 100.0, shards=0),
    "outage-shard1-writes": FaultTimeline().outage(0.0, 100.0, shards=1,
                                                   ops=WRITE_OPS),
    "outage-both-shards": FaultTimeline().outage(0.0, 60.0),
    "error-burst": FaultTimeline().error_burst(0.0, 150.0, rate=0.5),
    "gray-shard1": FaultTimeline().gray(0.0, 400.0, multiplier=25.0,
                                        shards=1),
    "rolling-outage": (FaultTimeline().outage(0.0, 60.0, shards=0)
                       .outage(60.0, 120.0, shards=1)),
}

DEEP_SCENARIOS = {
    "leader-outage": FaultTimeline().outage(0.0, 100.0, shards=0,
                                            role="leader"),
    "partition": FaultTimeline().partition(0.0, 300.0, shards=0),
}

# The kitchen-sink incident: a client is *allowed* to fail cleanly (an
# overlap-scope fan-out has nowhere to sleep a backoff, so a burst
# throttle inside one propagates raw) — the invariant triple must hold
# regardless, with the collector finishing whatever the client dropped.
COMBINED_INCIDENT = (FaultTimeline().outage(0.0, 80.0, shards=0)
                     .partition(40.0, 300.0, shards=1)
                     .gray(0.0, 500.0, multiplier=10.0, shards=1)
                     .error_burst(100.0, 200.0, rate=0.3))


@pytest.mark.parametrize("name", sorted(LIGHT_SCENARIOS))
def test_light_scenarios_hold_invariants(name):
    timeline = LIGHT_SCENARIOS[name]
    h = dst.run_one(scenario_flags(dst.LIGHT_FLAGS, timeline))
    # The scripted windows sit inside the retry budget: clients must
    # *survive* these incidents, not merely fail cleanly.
    assert all(isinstance(r, dict) for r in h.results.values()), (
        f"{name}: client lost to a survivable incident: "
        f"{outcomes(h.results)}")


@pytest.mark.parametrize("name", sorted(DEEP_SCENARIOS))
def test_deep_scenarios_hold_invariants(name):
    timeline = DEEP_SCENARIOS[name]
    h = dst.run_one(scenario_flags(dst.DEEP_FLAGS, timeline))
    assert all(isinstance(r, dict) for r in h.results.values()), (
        f"{name}: client lost to a survivable incident: "
        f"{outcomes(h.results)}")


def test_combined_incident_holds_invariants():
    """Outage + partition + gray + burst at once. ``run_one`` asserts
    the triple; client survival is not promised here."""
    h = dst.run_one(scenario_flags(dst.DEEP_FLAGS, COMBINED_INCIDENT))
    assert any(isinstance(r, dict) for r in h.results.values()), (
        f"every client died — incident should be partial: "
        f"{outcomes(h.results)}")


@pytest.mark.parametrize("start", [0.0, 20.0, 60.0, 120.0])
@pytest.mark.parametrize("duration", [40.0, 150.0])
def test_outage_onset_grid(start, duration):
    """Sweep *when* the dark window lands relative to the protocol —
    onset during intent creation, mid-transaction, during recovery —
    crossed with short/long windows. Long windows may cost a client
    (budget exhausted: clean abort, IC finishes); invariants never
    bend either way."""
    timeline = FaultTimeline().outage(start, start + duration, shards=0)
    dst.run_one(scenario_flags(dst.LIGHT_FLAGS, timeline))


def test_unsurvivable_outage_fails_clients_cleanly():
    """A window far beyond any retry budget: every client sees a clean
    failure, the IC completes the pending work after the heal, and the
    final state is exactly-once anyway."""
    timeline = FaultTimeline().outage(0.0, 5_000.0)
    h = dst.run_one(scenario_flags(dst.LIGHT_FLAGS, timeline))
    stats = h.travel.resilience.stats
    assert stats.unavailable_errors > 0
    assert h.travel.resilience.snapshot()["breakers"]  # breakers engaged


def test_deadline_bounded_run_stays_exactly_once():
    """Request deadlines + an outage: aborted attempts leave pending
    intents for the collector; the triple still holds."""
    timeline = FaultTimeline().outage(0.0, 200.0, shards=0)
    h = dst.run_one(scenario_flags(dst.LIGHT_FLAGS, timeline,
                                   request_deadline=150.0))
    total_aborts = (h.travel.resilience.stats.deadline_aborts
                    + h.movie.resilience.stats.deadline_aborts)
    assert total_aborts >= 0  # aborts allowed, never required


def test_without_resilience_still_recovers_via_collector():
    """No resilience layer, nemesis on: clients die raw, but Beldi's own
    IC-based recovery still converges to the exactly-once state."""
    timeline = FaultTimeline().outage(0.0, 100.0, shards=0)
    h = dst.run_one(dict(dst.LIGHT_FLAGS, timeline=timeline,
                         without="resilience"))
    assert h.travel.resilience is None


def test_nemesis_run_is_deterministic():
    """Same seed + same timeline ⇒ bit-identical final state."""
    def run():
        timeline = FaultTimeline().outage(0.0, 100.0, shards=0)
        h = dst.run_one(scenario_flags(dst.LIGHT_FLAGS, timeline))
        return dst.final_state(h), outcomes(h.results)

    assert run() == run()


def test_fault_edges_reach_the_schedule():
    """Window edges must surface as interleave points so exploration
    can race protocol steps against fault onset/heal. Interleave points
    are gated on a schedule that opts in, so run under RandomSchedule
    with the wakeup trace captured."""
    from repro.sim.schedule import RandomSchedule

    timeline = FaultTimeline().outage(0.0, 100.0, shards=0)
    flags = scenario_flags(dst.LIGHT_FLAGS, timeline)
    h = dst.build_harness(flags, schedule=RandomSchedule(0))
    h.kernel.capture_trace = True
    try:
        dst.run_requests(h)
        fault_labels = [label for _t, label in h.kernel.fired_trace
                        if "fault:" in str(label)]
    finally:
        h.shutdown()
    assert any("fault:outage:start:0" in str(label)
               for label in fault_labels), (
        "no fault edge reached the kernel's interleave trace")


EXPLORE_SEEDS = int(os.environ.get("NEMESIS_SEEDS", "12"))


def test_schedule_exploration_under_nemesis():
    """Race the incident against schedule perturbations: every explored
    interleaving must keep the triple; any failure is replayable from
    its (seed, trace) pair."""
    timeline = FaultTimeline().outage(0.0, 100.0, shards=0)
    flags = scenario_flags(dst.LIGHT_FLAGS, timeline)
    traces = dst.explore(range(EXPLORE_SEEDS), flags=flags)
    assert len(traces) >= EXPLORE_SEEDS // 2, (
        f"exploration degenerated: {len(traces)} distinct traces")


def test_failure_artifact_embeds_timeline(tmp_path, monkeypatch):
    """A nemesis failure's DST artifact carries the timeline alongside
    the replay pair, trace, and metrics."""
    import json

    path = tmp_path / "failure.json"
    monkeypatch.setenv("DST_FAILURE_FILE", str(path))
    timeline = FaultTimeline().outage(0.0, 100.0, shards=0)
    h = dst.build_harness(scenario_flags(dst.LIGHT_FLAGS, timeline))
    try:
        dst.run_requests(h)
        dst._write_failure_artifact(
            seed=dst.SEED, trace=list(h.kernel.schedule_trace),
            exc=AssertionError("synthetic"), h=h)
    finally:
        h.shutdown()
    artifact = json.loads(path.read_text())
    assert artifact["fault_timeline"][0]["kind"] == "outage"
    assert "replay" in artifact
    assert "chrome_trace" in artifact  # obs is on in LIGHT_FLAGS
    assert "resilience" in artifact["metrics"]
