"""Schedule exploration over the concurrent mix (DST).

Random and targeted explorers perturb the interleaving of the
three-request concurrent workload at every kernel blocking point (plus
the named interleave points near locks, 2PC rounds, migration phases and
failover promotion), asserting the invariant triple after every explored
schedule. Every failure is replayable from the printed
``DST-REPLAY seed=... trace=...`` line — proven here by tests that
replay captured traces bit-for-bit. See docs/testing.md.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import dst
import history
from repro.core import BeldiConfig, BeldiRuntime, daal, ops
from repro.kvstore import Set
from repro.platform import CrashAtOccurrence
from repro.sim import (
    RandomSchedule,
    ReplaySchedule,
    SimKernel,
    TargetedSchedule,
    parse_failure,
)

# CI budget: ≥ 200 *distinct* schedules under a fixed seed family.
EXPLORE_SEEDS = int(os.environ.get("DST_SEEDS", "205"))


def _run_light(schedule, crash_policy=None, capture=False):
    h = dst.build_harness(dst.LIGHT_FLAGS, schedule=schedule)
    if capture:
        h.kernel.capture_trace = True
    try:
        if crash_policy is not None:
            h.set_crash_policy(crash_policy)
        dst.run_requests(h)
        dst.check_effects(h)
        dst.run_gc_passes(*h.runtimes.values())
        dst.assert_store_clean(h.travel.store, h.runtimes.values())
    finally:
        h.shutdown()
    return h


def test_random_exploration_covers_200_distinct_schedules():
    traces = dst.explore(range(EXPLORE_SEEDS))
    assert len(traces) >= min(200, EXPLORE_SEEDS), (
        f"only {len(traces)} distinct schedules across "
        f"{EXPLORE_SEEDS} seeds")


def test_targeted_explorer_reaches_conflict_sites():
    for seed in range(3):
        schedule = TargetedSchedule(seed)
        _run_light(schedule)
        assert schedule.conflict_hits > 0, (
            f"targeted explorer (seed {seed}) never saw a conflict-site "
            "candidate — are the interleave points wired?")


def test_exploration_composes_with_crash_injection():
    """Random schedules + an occurrence-pinned crash: the n-th time any
    invocation reaches ``body:done``, it dies there — stable across
    interleavings, unlike a (function, ordinal) pin."""
    for seed in range(3):
        h = _run_light(RandomSchedule(seed),
                       crash_policy=CrashAtOccurrence("body:done",
                                                      occurrence=4))
        assert h.injected_crashes == 1


def test_same_seed_same_schedule_is_bit_identical():
    """Satellite: same seed + same schedule ⇒ identical kernel event
    trace and identical final store state, across two full runs."""
    first = _run_light(RandomSchedule(17), capture=True)
    second = _run_light(RandomSchedule(17), capture=True)
    assert first.kernel.fired_trace == second.kernel.fired_trace
    assert first.kernel.schedule_trace == second.kernel.schedule_trace
    assert dst.final_state(first) == dst.final_state(second)
    assert first.results == second.results


def test_replay_schedule_reproduces_random_run():
    """A captured (seed, trace) replays the random run bit-for-bit —
    the mechanism every printed DST-REPLAY line relies on."""
    recorded = _run_light(RandomSchedule(23), capture=True)
    trace = list(recorded.kernel.schedule_trace)
    replayed = _run_light(ReplaySchedule(trace), capture=True)
    assert replayed.kernel.fired_trace == recorded.kernel.fired_trace
    assert replayed.kernel.schedule_trace == trace
    assert dst.final_state(replayed) == dst.final_state(recorded)
    assert replayed.results == recorded.results


def test_failure_prints_replayable_seed_trace(monkeypatch, tmp_path):
    """Any invariant failure surfaces as ScheduleFailure carrying a
    parseable DST-REPLAY line and the artifact file for CI; replaying
    the captured trace reproduces the same failure at the same point."""
    real_check = dst.check_effects

    def breaking_check(h):
        real_check(h)
        raise AssertionError("injected invariant failure")

    monkeypatch.setattr(dst, "check_effects", breaking_check)
    artifact = tmp_path / "dst-failure.json"
    monkeypatch.setenv("DST_FAILURE_FILE", str(artifact))
    with pytest.raises(dst.ScheduleFailure) as excinfo:
        dst.explore([31])
    message = str(excinfo.value)
    assert "DST-REPLAY seed=31 trace=" in message
    seed, trace = parse_failure(message)
    assert seed == 31
    payload = json.loads(artifact.read_text())
    assert payload["seed"] == 31
    assert payload["trace"] == list(trace)
    # Replay: the recorded trace must march the run to the identical
    # failure deterministically (same decision prefix, same error).
    with pytest.raises(dst.ScheduleFailure) as replay_info:
        dst.explore([seed], schedule_factory=lambda _s: ReplaySchedule(trace))
    assert replay_info.value.trace == list(trace)
    assert "injected invariant failure" in str(replay_info.value)


def test_the_first_failing_seed_is_reported_from_either_process(
        monkeypatch):
    """``explore`` shares its seeds with a forked child (every other
    one): a failure there still surfaces, and as in a plain loop the
    earliest failing seed is the one reported."""
    real_check = dst.check_effects

    def breaking_check(h):
        real_check(h)
        seed = h.kernel.schedule.seed
        if seed in (1, 2):
            raise AssertionError(f"injected at seed {seed}")

    monkeypatch.setattr(dst, "check_effects", breaking_check)
    with pytest.raises(dst.ScheduleFailure) as excinfo:
        dst.explore(range(4))
    # Seed 1 ran in the child, seed 2 here.
    assert excinfo.value.seed == 1
    assert "injected at seed 1" in str(excinfo.value)
    assert "DST-REPLAY seed=1 trace=" in str(excinfo.value)


class _NoNotes(AssertionError):
    """An exception without ``add_note``, as on Python 3.10."""

    @property
    def add_note(self):
        raise AttributeError("add_note")


def _fail_odd_items(item: int) -> int:
    if item % 2:
        raise _NoNotes(f"item {item}")
    return item


def _hang_on_odd_items(item: int) -> int:
    if item % 2:
        time.sleep(60)
    return item


def test_a_childs_failure_keeps_its_type_where_exceptions_take_no_notes():
    with pytest.raises(_NoNotes, match="item 1") as excinfo:
        dst.map_forked(_fail_odd_items, range(4))
    assert "in a forked sweep worker" in str(excinfo.value.__cause__)


def test_a_child_that_never_answers_is_killed_and_named():
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=r"held items \[1, 3\]"):
        dst.map_forked(_hang_on_odd_items, range(4), wait_s=0.5)
    assert time.monotonic() - started < 30


# ---------------------------------------------------------------------------
# Two live duplicates of one multi-read instance racing the group flush
# ---------------------------------------------------------------------------

RACE_KEYS = ("a", "b", "c")
RACE_TICK = 5.0


def _race_the_flush(seed: int) -> dict:
    """``caller`` invokes ``reader`` (three reads, one run); a second
    delivery of the very same reader instance starts while the first is
    live. Both read at the same virtual instants, a writer rewrites the
    rows at those instants too, and both reach the flush together — the
    explored schedule decides every order."""
    kernel = SimKernel(seed=seed, schedule=RandomSchedule(seed))
    runtime = BeldiRuntime(kernel=kernel, seed=seed, observability=True,
                           config=BeldiConfig(ic_restart_delay=1e9,
                                              gc_t=1e12))
    observed = []

    def reader(ctx, payload):
        seen = []
        for key in RACE_KEYS:
            # Not an effect, so not a frontier: it only lines the two
            # executions up on the same instants.
            ctx.sleep(RACE_TICK - ctx.platform_ctx.now % RACE_TICK)
            seen.append(ctx.read("kv", key))
        observed.append(seen)
        return seen

    leaf = runtime.register_ssf("reader", reader, tables=["kv"])
    top = runtime.register_ssf(
        "caller", lambda ctx, p: ctx.sync_invoke("reader", None))
    for key in RACE_KEYS:
        leaf.env.seed("kv", key, 0)
    table = leaf.env.data_table("kv")
    out = {}

    def client():
        out["result"] = runtime.client_call("caller")

    def duplicate():
        while not (claims := top.env.store.scan(top.env.invoke_log).items):
            kernel.sleep(1.0)
        claim = claims[0]
        out["duplicate"] = runtime.platform.sync_invoke("reader", {
            "kind": "call", "instance_id": claim["CalleeId"],
            "input": None, "async": False,
            "caller": {"ssf": "caller",
                       "instance_id": claim["InstanceId"],
                       "step": claim["Step"]}})

    def writer():
        for tick in range(1, 5):
            kernel.sleep(RACE_TICK)
            for bump in range(3):
                for key in RACE_KEYS:
                    leaf.env.store.update(
                        table, (key, daal.HEAD_ROW_ID),
                        [Set("Value", tick * 10 + bump)])
                    kernel.interleave_point(f"bump:{key}")

    for body in (client, duplicate, writer):
        kernel.spawn(body, name=body.__name__)
    try:
        kernel.run()
        out["observed"] = observed
        out["rollbacks"] = history.check(runtime.obs.tracer.records).count(
            "readlog:rollback")
    finally:
        kernel.shutdown()
    out["rows"] = leaf.env.store.scan(leaf.env.read_log).items
    out["returned"] = [intent["Ret"] for intent in
                       leaf.env.store.scan(leaf.env.intent_table).items]
    return out


def test_live_duplicates_racing_the_flush_leave_one_run_and_one_result():
    lost = 0
    for seed in range(40):
        run = _race_the_flush(seed)
        first, second = run["observed"][:2]
        # Exactly one group row, whichever execution landed it...
        assert len(run["rows"]) == 1, (seed, run["rows"])
        (row,) = run["rows"]
        logged = [row["Value"], *row["Run"]]
        assert logged in (first, second), (seed, logged)
        # ...the execution that saw something else was rolled back, and
        # only it, and replayed the logged run...
        assert run["rollbacks"] == (first != second), (seed, run)
        lost += run["rollbacks"]
        assert run["observed"][2:] == [logged] * run["rollbacks"], seed
        # ...so one result exists: in the intent, at the caller, and at
        # whoever delivered the duplicate.
        assert run["returned"] == [logged], seed
        assert run["result"] == run["duplicate"] == logged, seed
    assert lost >= 10, f"only {lost}/40 schedules made the values differ"


def test_the_early_reply_rule_catches_a_skipped_rollback(monkeypatch):
    """Without its rollback, the execution whose flush lost replies,
    calls back and finishes with values the log does not hold: checker
    (c) names the lost flush and the first event that showed them, on
    every schedule where the two executions' values differ."""
    monkeypatch.setattr(ops, "flush_read_log", dst.flush_without_rollback)
    caught = []
    for seed in range(40):
        try:
            _race_the_flush(seed)
        except history.HistoryViolation as exc:
            flush, exposed = exc.witness["flush"], exc.witness["exposed"]
            assert exc.witness["rule"] == "rollback < exposure"
            assert flush < exposed[3] and str(exc).startswith(
                f"seq {exposed[3]}: ") and f"(seq {flush})" in str(exc)
            caught.append(seed)
    assert len(caught) >= 10, f"only seeds {caught} of 40 caught it"


# ---------------------------------------------------------------------------
# A callee's tail (callback + Done) racing the owner's commit signal
# ---------------------------------------------------------------------------

def _race_tail_against_commit(seed: int) -> dict:
    """``reserve`` books a room through ``hotel`` inside a transaction
    and commits. ``hotel`` replies before its callback, so the owner's
    ``txn_signal`` (flush the shadow write, release the lock, walk the
    callee's invoke log) reaches ``hotel`` while that instance is still
    delivering its callback and marking ``Done`` — the explored schedule
    decides every order."""
    kernel = SimKernel(seed=seed, schedule=RandomSchedule(seed))
    runtime = BeldiRuntime(kernel=kernel, seed=seed, observability=True,
                           config=BeldiConfig(ic_restart_delay=1e9,
                                              gc_t=1e12))

    def hotel(ctx, payload):
        left = ctx.read("rooms", "H1")["left"]
        ctx.write("rooms", "H1", {"left": left - 1})
        return "hotel-ok"

    def reserve(ctx, payload):
        with ctx.transaction() as tx:
            ctx.sync_invoke("hotel", None)
        return tx.outcome

    leaf = runtime.register_ssf("hotel", hotel, tables=["rooms"])
    top = runtime.register_ssf("reserve", reserve)
    leaf.env.seed("rooms", "H1", {"left": 2})
    deliver_signal = runtime._handle_txn_signal

    def signal(ssf, platform_ctx, payload):
        # This test's own mark, in the one stream so that its order
        # against the protocol's events can be read off.
        runtime.obs.tracer.event("signal", cat="test",
                                 instance=payload["instance_id"])
        return deliver_signal(ssf, platform_ctx, payload)

    runtime._handle_txn_signal = signal
    outcome = runtime.run_workflow("reserve")
    trace = runtime.obs.tracer.records
    ledger = history.check(trace)
    (claim,) = top.env.store.scan(top.env.invoke_log).items
    callee = claim["CalleeId"]
    marks = [(r["seq"], "signal") for r in ledger.named("signal")
             if r["args"]["instance"] == callee]
    marks += [(seq, kind) for kind, _who, subject, seq in ledger.rows
              if kind in ("callback", "done") and subject == callee]
    out = {"outcome": outcome,
           "order": [kind for _seq, kind in sorted(marks)],
           "left": leaf.env.peek("rooms", "H1"),
           "rows": leaf.env.store.query(leaf.env.data_table("rooms"),
                                        "H1").items,
           "intents": [intent for env in (leaf.env, top.env) for intent in
                       env.store.scan(env.intent_table).items],
           "claim": claim}
    kernel.shutdown()
    return out


def test_callee_tail_racing_the_commit_signal_commits_once_in_any_order():
    orders = set()
    for seed in range(40):
        run = _race_tail_against_commit(seed)
        assert run["outcome"] == "committed", seed
        assert run["left"] == {"left": 1}, (seed, run["left"])
        assert all("LockOwner" not in row for row in run["rows"]), seed
        assert [i["Done"] for i in run["intents"]] == [True, True], seed
        assert run["claim"]["Result"] == "hotel-ok", seed
        orders.add(tuple(run["order"]))
    # The race is real: the signal landed before the callee's callback,
    # between callback and Done, and after Done.
    assert orders == {("signal", "callback", "done"),
                      ("callback", "signal", "done"),
                      ("callback", "done", "signal")}
