"""Checked histories: the two isolation checkers, able to pass and to
fail (``tests/core/history.py``, ``docs/testing.md``).

- Literal histories break each rule once, and the checker names the
  ``seq`` that broke it.
- Bank transfers between three account SSFs (the scenarios of a classic
  two-phase-commit demo: two transfers conflicting on one account, a
  three-transfer cycle, and the coordinator killed mid-commit) keep the
  money and check clean.
- One mutation per checker, and one per lifecycle order a reordering
  could break (``mark_done`` ahead of ``_deliver``, a reply consumed
  before its claim is durable): the tree with the mutation fails, naming
  its witness, the tree without it passes.
- A transaction's locked read, and its commit's flush, are never served
  stale by a degraded read.
"""

from __future__ import annotations

import pytest

import dst
import history
from repro.apps import build_app
from repro.core import BeldiConfig, BeldiRuntime, daal, intents, ops
from repro.core.errors import DeadlineExceeded
from repro.kvstore import ThrottledError, UnavailableError
from repro.platform import CrashPolicy, ServerlessPlatform
from repro.platform.errors import FunctionCrashed
from repro.sim import RandomSchedule, RandomSource, SimKernel

# ---------------------------------------------------------------------------
# literal histories
# ---------------------------------------------------------------------------


def _op(seq, name, op, item, start, end, txn=None, **facts):
    """An ``op.*`` span as the tracer records it."""
    table, key = item
    args = dict(facts, table=table, key=key, step=0)
    if txn is not None:
        args["txn"] = txn
    return {"cat": "op", "name": name, "seq": seq, "span_id": op,
            "parent_id": None, "ts": start, "dur": end - start,
            "args": args}


def _event(seq, name, ts=0.0, cat="txn", **args):
    return {"cat": cat, "name": name, "seq": seq, "span_id": f"s{seq}",
            "parent_id": None, "ts": ts, "dur": None, "args": args}


def _finish(seq, txn, mode, start, end):
    return {"cat": "txn", "name": f"txn.finish:{mode}", "seq": seq,
            "span_id": f"s{seq}", "parent_id": None, "ts": start,
            "dur": end - start, "args": {"txn": txn}}


X = ("bank.acct", "A")
Y = ("bank.acct", "B")

#: Two writes and a read of one item, one after the other, plus the
#: append that put the third version on a row of its own.
LINEAR = [
    _op(1, "op.write", "w#0", X, 0.0, 1.0, landed=["HEAD", 1]),
    _op(2, "op.write", "w#1", X, 2.0, 3.0, landed=["HEAD", 2]),
    _event(3, "row:append", 3.5, cat="daal", table=X[0], key=X[1],
           prev="HEAD", row="r1"),
    _op(4, "op.write", "w#2", X, 4.0, 5.0, landed=["r1", 1]),
    _op(5, "op.read", "r#0", X, 6.0, 7.0, read=["r1", 1]),
]


def _transfers(stale: bool) -> list:
    """T1 and T2 each read both accounts under their locks and flush
    both; T2 began after T1 ended. With ``stale`` T2's read of A returns
    the version before T1's flush: a lost update."""
    read_a = ["HEAD", 1] if stale else ["HEAD", 3]
    return [
        _event(1, "txn:begin", 0.0, txn="T1"),
        _op(2, "op.read", "t1#1", X, 0.0, 1.0, txn="T1", read=["HEAD", 1]),
        _op(3, "op.read", "t1#2", Y, 1.0, 2.0, txn="T1", read=["HEAD", 1]),
        _event(4, "txn:flush", 2.5, table=X[0], key=X[1], txn="T1",
               version=["HEAD", 3]),
        _event(5, "txn:flush", 2.5, table=Y[0], key=Y[1], txn="T1",
               version=["HEAD", 3]),
        _finish(6, "T1", "commit", 2.0, 3.0),
        _event(7, "txn:begin", 4.0, txn="T2"),
        _op(8, "op.read", "t2#1", X, 4.0, 5.0, txn="T2", read=read_a),
        _op(9, "op.read", "t2#2", Y, 5.0, 6.0, txn="T2", read=["HEAD", 4]),
        _event(10, "txn:flush", 6.5, table=X[0], key=X[1], txn="T2",
               version=["HEAD", 5]),
        _finish(11, "T2", "commit", 6.0, 7.0),
    ]


class TestCheckersOnLiteralHistories:
    def test_clean_histories_pass(self):
        checked = history.check(LINEAR + _transfers(stale=False))
        assert set(checked.txns) == {"T1", "T2"}
        assert checked.txns["T1"].status == "ok"
        assert history.check(LINEAR).ranker()(X, ["r1", 1]) == (1, 1)

    def test_a_read_older_than_a_finished_write(self):
        stale = LINEAR[:-1] + [
            _op(5, "op.read", "r#0", X, 6.0, 7.0, read=["HEAD", 2])]
        with pytest.raises(history.HistoryViolation,
                           match="^seq 5: r#0 .* older than") as caught:
            history.check(stale)
        witness = caught.value.witness
        assert witness["newer"]["op"] == "w#2"
        assert [op["seq"] for op in witness["ops"]] == [4, 5]

    def test_a_write_that_took_effect_twice(self):
        twice = LINEAR + [
            _op(6, "op.write", "w#1", X, 8.0, 9.0, landed=["r1", 2])]
        with pytest.raises(history.HistoryViolation,
                           match="^seq 6: w#1 took effect twice"):
            history.check(twice)

    def test_degraded_reads_are_excluded_and_counted(self):
        degraded = LINEAR[:-1] + [
            _op(5, "op.read", "r#0", X, 6.0, 7.0, read=["HEAD", 1],
                degraded=True),
            _op(6, "op.roread", "r#1", X, 6.0, 7.0)]
        checked = history.check(degraded)
        assert checked.excluded == {"degraded": 1, "eventual": 1}

    def test_a_lost_update_is_a_cycle(self):
        with pytest.raises(history.HistoryViolation,
                           match="not serializable") as caught:
            history.check(_transfers(stale=True))
        (step,) = [step for step in caught.value.witness["cycle"]
                   if step["edge"] == "rw"]
        assert step == {"from": "T2", "to": "T1", "edge": "rw",
                        "seq": [8, 4]}

    def test_an_aborted_transaction_sees_one_snapshot(self):
        """A wait-die victim that read A after T1's flush and B before
        it observed no state of any serial order."""
        victim = _transfers(stale=False)[:6] + [
            _event(7, "txn:begin", 2.0, txn="V"),
            _op(8, "op.read", "v#1", X, 2.6, 2.7, txn="V",
                read=["HEAD", 3]),
            _op(9, "op.read", "v#2", Y, 2.2, 2.3, txn="V",
                read=["HEAD", 1]),
            _finish(10, "V", "abort", 2.8, 2.9)]
        # Either read alone is a snapshot.
        history.check(victim[:7] + victim[8:])
        history.check(victim[:8] + victim[9:])
        with pytest.raises(history.HistoryViolation,
                           match=r"T1 -wr\(seq 4->8\)-> V -rw\(seq 9->5\)"):
            history.check(victim)

    def test_a_release_before_the_flush_breaks_two_phase_locking(self):
        records = _transfers(stale=False)
        records[3] = dict(records[3], seq=40)
        records.insert(3, _event(4, "txn:release", 2.4, table=X[0],
                                 key=X[1], txn="T1"))
        with pytest.raises(history.HistoryViolation,
                           match=r"^seq 4: T1 released its lock .* \(seq 40\)"):
            history.check(records)


# ---------------------------------------------------------------------------
# bank transfers
# ---------------------------------------------------------------------------

#: account -> the SSF that owns it, as the demo's three data nodes.
NODES = {"A": "n1", "B": "n2", "C": "n3"}
OPENING = 100


def _node(ctx, payload):
    """Apply ``delta`` to one account, aborting the whole transfer
    rather than overdraw it."""
    balance = ctx.read("acct", payload["account"])
    if balance + payload["delta"] < 0:
        ctx.abort_tx()
    ctx.write("acct", payload["account"], balance + payload["delta"])
    return balance + payload["delta"]


def _transfer(ctx, payload):
    """The coordinator: one transaction, a debit and a credit."""
    source, target, amount = payload
    with ctx.transaction() as tx:
        ctx.sync_invoke(NODES[source], {"account": source,
                                        "delta": -amount})
        ctx.sync_invoke(NODES[target], {"account": target,
                                        "delta": amount})
    return tx.outcome


def bank(seed: int, latency_scale: float = 1.0, schedule=None,
         deadline=None, without=None, **runtime_args) -> tuple:
    """A traced runtime with the three account SSFs and the coordinator,
    every account opened with ``OPENING``."""
    runtime = BeldiRuntime(
        kernel=SimKernel(seed=seed, schedule=schedule), seed=seed,
        latency_scale=latency_scale, observability=True,
        config=BeldiConfig(ic_restart_delay=200.0, gc_t=1e12,
                           lock_retry_backoff=5.0, lock_retry_limit=500,
                           request_deadline=deadline, without=without),
        **runtime_args)
    envs = {}
    for account, name in NODES.items():
        envs[account] = runtime.register_ssf(name, _node,
                                             tables=["acct"]).env
        envs[account].seed("acct", account, OPENING)
    runtime.register_ssf("transfer", _transfer)
    return runtime, envs


def run_transfers(runtime, envs, transfers, horizon=30_000.0,
                  stagger=0.0) -> list:
    """Start the transfers ``stagger`` ms apart (at once by default),
    drive until all are answered and recovered; check the money and the
    history. Returns the outcomes."""
    outcomes = [None] * len(transfers)

    def client(index):
        try:
            outcomes[index] = runtime.client_call("transfer",
                                                  transfers[index])
        except (FunctionCrashed, DeadlineExceeded, ThrottledError,
                UnavailableError):
            # No outcome: the intent collector finishes the transfer.
            outcomes[index] = "crashed"

    runtime.start_collectors(ic_period=100.0, gc_period=1e12)
    for index in range(len(transfers)):
        runtime.kernel.spawn(client, index, delay=index * stagger)
    runtime.kernel.run(until=horizon)
    runtime.stop_collectors()
    runtime.kernel.run(until=horizon + 1_000.0)
    assert None not in outcomes, outcomes
    history.check(runtime.obs.tracer.records)
    balances = {account: env.peek("acct", account)
                for account, env in envs.items()}
    assert sum(balances.values()) == OPENING * len(NODES), balances
    assert min(balances.values()) >= 0, balances
    return outcomes


SCENARIOS = {
    # Two transfers conflicting on B's lock: B -> C can only commit
    # after A -> B, and wait-die decides whether it gets to.
    "conflicting-locks": [("A", "B", 100), ("B", "C", 150)],
    # A -> B, B -> A and C -> A: every pair shares an account.
    "three-transfer-cycle": [("A", "B", 10), ("B", "A", 10),
                             ("C", "A", 20)],
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_bank_transfers_keep_the_money_and_check_clean(scenario, seed):
    runtime, envs = bank(seed)
    try:
        outcomes = run_transfers(runtime, envs, SCENARIOS[scenario])
        assert set(outcomes) <= {"committed", "aborted"}, outcomes
        assert "committed" in outcomes
    finally:
        runtime.kernel.shutdown()


class CrashMidCommit(CrashPolicy):
    """Kill the coordinator once, between its own part of phase 2 and
    the signals to the account SSFs."""

    fired = False

    def should_crash(self, function, invocation_index, tag) -> bool:
        if self.fired or function != "transfer":
            return False
        self.fired = tag.endswith(":resolved-local")
        return self.fired


@pytest.mark.parametrize("seed", range(3))
def test_a_coordinator_killed_mid_commit_still_commits_once(seed):
    runtime, envs = bank(seed)
    runtime.platform.crash_policy = CrashMidCommit()
    try:
        outcomes = run_transfers(runtime, envs,
                                 SCENARIOS["three-transfer-cycle"])
        assert runtime.platform.stats.injected_crashes == 1
        assert "crashed" in outcomes
        # The intent collector replayed the killed coordinator to its
        # one decision: a commit, which every account shows.
        records = runtime.obs.tracer.records
        decided = [txn for txn in history.of(records).txns.values()
                   if txn.status != "info"]
        assert len(decided) == 3
    finally:
        runtime.kernel.shutdown()


# ---------------------------------------------------------------------------
# mutations: each checker fails under one
# ---------------------------------------------------------------------------

def test_checker_c_catches_locks_released_before_the_flush(monkeypatch):
    runtime, envs = bank(seed=0)
    try:
        run_transfers(runtime, envs, SCENARIOS["three-transfer-cycle"])
    finally:
        runtime.kernel.shutdown()
    monkeypatch.setattr(daal, "flush_value", dst.flush_after_release)
    runtime, envs = bank(seed=0)
    try:
        with pytest.raises(history.HistoryViolation,
                           match="released its lock .* before its flush"):
            run_transfers(runtime, envs, SCENARIOS["three-transfer-cycle"])
    finally:
        runtime.kernel.shutdown()


def await_extension_trusting_every_miss(ctx, table, key, row_id, log_key):
    """``ops._await_extension`` without ``trusts_miss``: a waiter
    restarts past the full row even when its op may be logged there."""
    cache = ctx.tail_cache
    done = cache.extension_of(table, key, row_id)
    if done is None:
        return None
    ctx.runtime.kernel.wait(done)
    entry = cache.peek_tail(table, key)
    if (entry is None or entry.row_id == row_id
            or cache.position_of(table, key, log_key) is not None):
        return None
    return entry.row_id


class ForgetAtTheFill(CrashPolicy):
    """Crash nobody; drop the tail cache's memory (as a bounded cache's
    eviction may) the moment a writer filled the row and announced its
    extension: every instance it knew of is tainted."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime

    def should_crash(self, function, invocation_index, tag) -> bool:
        if tag == "write:0:done":
            self.runtime.tail_cache.clear()
        return False


def _duplicate_writers(seed: int) -> None:
    """Two executions of one instance race their one write into a row
    with one free slot, under a random schedule."""
    runtime = BeldiRuntime(
        kernel=SimKernel(seed=seed, schedule=RandomSchedule(seed)),
        seed=seed, observability=True,
        config=BeldiConfig(row_log_capacity=2, gc_t=1e12))
    env = runtime.register_ssf(
        "w", lambda ctx, payload: ctx.write("kv", "k", payload),
        tables=["kv"]).env
    try:
        runtime.run_workflow("w", "first")
        runtime.platform.crash_policy = ForgetAtTheFill(runtime)
        for _ in range(2):
            runtime.kernel.spawn(runtime.platform.client_request, "w", {
                "kind": "call", "input": "again", "instance_id": "dup"})
        runtime.kernel.run()
        assert env.peek("kv", "k") == "again"
        history.check(runtime.obs.tracer.records)
    finally:
        runtime.kernel.shutdown()


DUPLICATE_SEEDS = range(40)


def test_checker_a_catches_a_waiter_that_skips_case_a(monkeypatch):
    for seed in DUPLICATE_SEEDS:
        _duplicate_writers(seed)
    monkeypatch.setattr(ops, "_await_extension",
                        await_extension_trusting_every_miss)
    failures = []
    for seed in DUPLICATE_SEEDS:
        try:
            _duplicate_writers(seed)
        except history.HistoryViolation as exc:
            failures.append(str(exc))
    assert failures and all("dup#0 took effect twice" in failure
                            for failure in failures), failures


def _travel_records() -> list:
    """Six travel requests, one at a time, traced."""
    runtime = BeldiRuntime(seed=5, observability=True,
                           config=BeldiConfig(gc_t=1e12))
    app = build_app("travel", seed=5)
    app.install(runtime)
    mix = RandomSource(5, "history/travel")
    try:
        for _ in range(6):
            runtime.run_workflow(app.entry, app.sample_request(mix))
    finally:
        runtime.kernel.shutdown()
    return runtime.obs.tracer.records


#: name -> (patched owner, attribute, mutation, the broken order).
LIFECYCLE_MUTATIONS = {
    "mark_done ahead of _deliver": (
        BeldiRuntime, "_deliver", dst.done_then_deliver, "callback < done"),
    "reply consumed before its claim": (
        ServerlessPlatform, "sync_invoke", dst.await_then_claim,
        "claim < consumed"),
}


@pytest.mark.parametrize("name", sorted(LIFECYCLE_MUTATIONS))
def test_the_lifecycle_orders_catch_their_mutation_on_travel(name,
                                                            monkeypatch):
    """The ledger's orders on the travel app: clean without the
    mutation; with it, a violation whose witness is the event that came
    too early and the one it had to wait for."""
    history.check(_travel_records())
    owner, attribute, mutation, rule = LIFECYCLE_MUTATIONS[name]
    monkeypatch.setattr(owner, attribute, mutation)
    with pytest.raises(history.HistoryViolation) as caught:
        history.check(_travel_records())
    witness = caught.value.witness
    assert witness["checker"] == "lifecycle" and witness["rule"] == rule
    early, late = witness["rows"]
    first, then = rule.split(" < ")
    assert (early[0], late[0]) == (then, first)
    assert early[2] == late[2] and early[3] < late[3]
    assert str(caught.value).startswith(f"seq {early[3]}: ")


# ---------------------------------------------------------------------------
# a locked read, or a commit's flush, served degraded
# ---------------------------------------------------------------------------

def test_a_locked_read_is_never_served_degraded(monkeypatch):
    """The second of two transfers out of A takes A's lock; at that
    instant A's leader goes dark for reads, and A's follower still lags
    the first transfer's flush. The locked read waits the leader out: a
    follower's A is a value from before the flush — a lost update."""
    from repro.core import txn as txn_mod

    runtime, envs = bank(seed=0, shards=1, replicas=2)
    runtime.fault_timeline.partition(0.0, 20_000.0)
    real_lock = txn_mod.tx_lock
    taken = []

    def lock_then_dark_leader(ctx, short, key):
        fresh = (short, key) not in ctx.txn.locked
        real_lock(ctx, short, key)
        if fresh and key == "A":
            taken.append(ctx.txn.txn_id)
            if len(taken) == 2:
                now = ctx.platform_ctx.now
                runtime.fault_timeline.outage(now, now + 1.0,
                                              role="leader", ops="db.read")

    monkeypatch.setattr(txn_mod, "tx_lock", lock_then_dark_leader)
    try:
        outcomes = run_transfers(runtime, envs, [("A", "B", 10)] * 2,
                                 stagger=2_000.0)
        assert outcomes == ["committed"] * 2
        assert envs["A"].peek("acct", "A") == OPENING - 20
        assert len(taken) == 2
    finally:
        runtime.kernel.shutdown()


def test_a_commit_flush_is_never_served_degraded(monkeypatch):
    """A's leader goes dark for reads as the commit starts flushing A,
    and A's follower lags A's lock acquisition. A flush that resolved
    the tail on that follower saw no ``LockOwner``, answered "already
    flushed", and left A undebited and locked. (Sequential commit: an
    overlapped one runs its flushes where the retry layer is inert.)"""
    runtime, envs = bank(seed=0, without="async_io", shards=1, replicas=2)
    runtime.fault_timeline.partition(0.0, 20_000.0)
    real_flush = daal.flush_value
    darkened = []

    def dark_leader_then_flush(store, table, key, *args, **kwargs):
        if key == "A" and not darkened:
            now = runtime.kernel.now
            darkened.append(now)
            runtime.fault_timeline.outage(now, now + 1.0, role="leader",
                                          ops="db.read")
        return real_flush(store, table, key, *args, **kwargs)

    monkeypatch.setattr(daal, "flush_value", dark_leader_then_flush)
    try:
        outcomes = run_transfers(runtime, envs, [("A", "B", 10)])
        assert outcomes == ["committed"]
        assert darkened
        assert runtime.resilience.stats.degraded_reads == 0
        assert envs["A"].peek("acct", "A") == OPENING - 10
        tail = daal.tail_row(runtime.store, envs["A"].data_table("acct"),
                             "A", None)
        assert "LockOwner" not in tail
    finally:
        runtime.kernel.shutdown()


@pytest.mark.parametrize("seed", [0, 2])
def test_a_deadline_inside_a_transaction_is_no_outcome(seed, monkeypatch):
    """Right after the transfer locked A the store goes dark for longer
    than the request deadline, and the attempt gives up
    (``DeadlineExceeded``). That is no decision: aborting there released
    the locks the collector's replay then committed without — half a
    transfer. The replay makes the one decision, with every lock held
    throughout."""
    from repro.core import txn as txn_mod

    runtime, envs = bank(seed, deadline=150.0)
    real_lock = txn_mod.tx_lock

    def lock_then_dark_store(ctx, short, key):
        fresh = (short, key) not in ctx.txn.locked
        real_lock(ctx, short, key)
        if fresh and key == "A" and not runtime.fault_timeline:
            now = ctx.platform_ctx.now
            runtime.fault_timeline.outage(now, now + 400.0)

    monkeypatch.setattr(txn_mod, "tx_lock", lock_then_dark_store)
    try:
        assert run_transfers(runtime, envs, [("A", "B", 10)]) == ["crashed"]
        assert runtime.resilience.stats.deadline_aborts
        (txn,) = history.of(runtime.obs.tracer.records).txns.values()
        assert txn.modes == {"commit"}
        assert envs["A"].peek("acct", "A") == OPENING - 10
    finally:
        runtime.kernel.shutdown()
