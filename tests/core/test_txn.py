"""Transactions (§6.2): opacity, wait-die, shadow tables, 2PC propagation."""

import pytest

from repro.core import BeldiConfig, BeldiRuntime, TxnAborted, daal
from repro.obs import history
from repro.platform import FunctionCrashed
from repro.platform.crashes import CrashOnce


@pytest.fixture
def runtime():
    rt = BeldiRuntime(seed=9, config=BeldiConfig(
        ic_restart_delay=50.0, gc_t=1e12, lock_retry_backoff=5.0,
        lock_retry_limit=200))
    yield rt
    rt.kernel.shutdown()


class TestSingleSSFTransactions:
    def test_commit_applies_writes(self, runtime):
        def handler(ctx, payload):
            with ctx.transaction() as tx:
                balance = ctx.read("accts", "ann") or 100
                ctx.write("accts", "ann", balance - 30)
                ctx.write("accts", "bob", 30)
            return tx.outcome

        ssf = runtime.register_ssf("transfer", handler, tables=["accts"])
        assert runtime.run_workflow("transfer") == "committed"
        assert ssf.env.peek("accts", "ann") == 70
        assert ssf.env.peek("accts", "bob") == 30

    def test_abort_discards_writes(self, runtime):
        def handler(ctx, payload):
            ctx.write("accts", "ann", 100)
            with ctx.transaction() as tx:
                ctx.write("accts", "ann", 0)
                ctx.abort_tx()
            return tx.outcome

        ssf = runtime.register_ssf("aborter", handler, tables=["accts"])
        assert runtime.run_workflow("aborter") == "aborted"
        assert ssf.env.peek("accts", "ann") == 100

    def test_abort_releases_locks(self, runtime):
        def aborter(ctx, payload):
            with ctx.transaction():
                ctx.write("accts", "x", 1)
                ctx.abort_tx()
            return "done"

        def writer(ctx, payload):
            ctx.write("accts", "x", 42)
            return ctx.read("accts", "x")

        shared = runtime.create_env("team", tables=["accts"])
        runtime.register_ssf("aborter", aborter, env=shared)
        runtime.register_ssf("writer", writer, env=shared)
        assert runtime.run_workflow("aborter") == "done"
        assert runtime.run_workflow("writer") == 42

    def test_read_your_writes(self, runtime):
        def handler(ctx, payload):
            ctx.write("kv", "doc", "original")
            with ctx.transaction():
                ctx.write("kv", "doc", "draft")
                inside = ctx.read("kv", "doc")
            after = ctx.read("kv", "doc")
            return [inside, after]

        runtime.register_ssf("ryw", handler, tables=["kv"])
        assert runtime.run_workflow("ryw") == ["draft", "draft"]

    def test_uncommitted_writes_invisible_before_commit(self, runtime):
        observed = {}

        def observer(ctx, payload):
            return ctx.read("kv", "doc")

        def writer(ctx, payload):
            ctx.write("kv", "doc", "before")
            with ctx.transaction():
                ctx.write("kv", "doc", "during")
                observed["mid"] = True
                ctx.sleep(100.0)
            return "done"

        shared = runtime.create_env("team", tables=["kv"])
        runtime.register_ssf("observer", observer, env=shared)
        runtime.register_ssf("writer", writer, env=shared)

        results = {}

        def writer_client():
            results["w"] = runtime.client_call("writer", None)

        def observer_client():
            # Runs while the writer's transaction is open. The write went
            # to the shadow table, so the observer reads the old value...
            # except 2PL blocks it on the lock until commit; either way it
            # must never see "during"-then-rollback ghosts.
            results["o"] = runtime.client_call("observer", None)

        runtime.kernel.spawn(writer_client)
        runtime.kernel.spawn(observer_client, delay=20.0)
        runtime.kernel.run()
        assert results["w"] == "done"
        assert results["o"] in ("before", "during")

    def test_cond_write_in_transaction(self, runtime):
        from repro.kvstore import Gt
        from repro.kvstore.expressions import path

        def handler(ctx, payload):
            ctx.write("stock", "widget", {"count": 1})
            outcomes = []
            with ctx.transaction():
                outcomes.append(ctx.cond_write(
                    "stock", "widget", {"count": 0},
                    Gt(path("Value", "count"), 0)))
                outcomes.append(ctx.cond_write(
                    "stock", "widget", {"count": -1},
                    Gt(path("Value", "count"), 0)))
            return outcomes

        ssf = runtime.register_ssf("seller", handler, tables=["stock"])
        assert runtime.run_workflow("seller") == [True, False]
        assert ssf.env.peek("stock", "widget") == {"count": 0}

    def test_sequential_transactions_in_one_instance(self, runtime):
        def handler(ctx, payload):
            with ctx.transaction() as t1:
                ctx.write("kv", "a", 1)
            with ctx.transaction() as t2:
                ctx.write("kv", "a", 2)
            return [t1.outcome, t2.outcome]

        ssf = runtime.register_ssf("seq", handler, tables=["kv"])
        assert runtime.run_workflow("seq") == ["committed", "committed"]
        assert ssf.env.peek("kv", "a") == 2


class TestCrossSSFTransactions:
    def _build_travel_like(self, runtime, hotel_rooms=1, flight_seats=1):
        """A miniature hotel+flight reservation pair (the paper's §7.1)."""
        from repro.kvstore import Gt
        from repro.kvstore.expressions import path

        def reserve_hotel(ctx, payload):
            ok = ctx.cond_write("rooms", payload["hotel"],
                                {"left": ctx.read("rooms",
                                                  payload["hotel"])["left"]
                                 - 1},
                                Gt(path("Value", "left"), 0))
            if not ok:
                ctx.abort_tx()
            return "hotel-ok"

        def reserve_flight(ctx, payload):
            seats = ctx.read("seats", payload["flight"])
            if seats["left"] <= 0:
                ctx.abort_tx()
            ctx.write("seats", payload["flight"],
                      {"left": seats["left"] - 1})
            return "flight-ok"

        self.hotel = runtime.register_ssf("hotel", reserve_hotel,
                                          tables=["rooms"])
        self.flight = runtime.register_ssf("flight", reserve_flight,
                                           tables=["seats"])
        self.hotel.env.seed("rooms", "H1", {"left": hotel_rooms})
        self.flight.env.seed("seats", "F1", {"left": flight_seats})

        def reserve(ctx, payload):
            with ctx.transaction() as tx:
                ctx.sync_invoke("hotel", {"hotel": "H1"})
                ctx.sync_invoke("flight", {"flight": "F1"})
            return tx.outcome

        runtime.register_ssf("reserve", reserve)

    def test_commit_spans_ssfs(self, runtime):
        self._build_travel_like(runtime)
        assert runtime.run_workflow("reserve") == "committed"
        assert self.hotel.env.peek("rooms", "H1") == {"left": 0}
        assert self.flight.env.peek("seats", "F1") == {"left": 0}

    def test_abort_in_second_callee_rolls_back_first(self, runtime):
        self._build_travel_like(runtime, hotel_rooms=5, flight_seats=0)
        assert runtime.run_workflow("reserve") == "aborted"
        # The hotel decrement must NOT have been applied.
        assert self.hotel.env.peek("rooms", "H1") == {"left": 5}
        assert self.flight.env.peek("seats", "F1") == {"left": 0}

    def test_all_or_nothing_under_contention(self, runtime):
        """N concurrent reservations against 1 room + 1 seat: exactly one
        commits, and room/seat counts never go negative."""
        self._build_travel_like(runtime, hotel_rooms=1, flight_seats=1)
        outcomes = []
        for i in range(4):
            runtime.kernel.spawn(
                lambda: outcomes.append(
                    runtime.client_call("reserve", None)),
                delay=float(i))
        runtime.kernel.run()
        assert sorted(outcomes) == ["aborted", "aborted", "aborted",
                                    "committed"]
        assert self.hotel.env.peek("rooms", "H1") == {"left": 0}
        assert self.flight.env.peek("seats", "F1") == {"left": 0}

    def test_commit_crash_recovers(self, runtime):
        """Crash mid-commit: replay finishes the flush and the signals."""
        self._build_travel_like(runtime)
        # Crash the coordinator right after its local flush: before it
        # propagated Commit to the callees on the paper path, with the
        # signals in flight and nobody awaiting them on this one.
        runtime.platform.crash_policy = _CrashOnTagSubstring(
            "reserve", "resolved-local")
        outcome = {}

        def client():
            try:
                outcome["r"] = runtime.client_call("reserve", None)
            except FunctionCrashed:
                outcome["crashed"] = True

        runtime.start_collectors(ic_period=100.0, gc_period=1e11)
        runtime.kernel.spawn(client)
        runtime.kernel.run(until=5_000.0)
        runtime.stop_collectors()
        runtime.kernel.run(until=8_000.0)
        assert self.hotel.env.peek("rooms", "H1") == {"left": 0}
        assert self.flight.env.peek("seats", "F1") == {"left": 0}
        # No lock may survive recovery.
        for env, table, key in ((self.hotel.env, "rooms", "H1"),
                                (self.flight.env, "seats", "F1")):
            rows = env.store.query(env.data_table(table), key).items
            assert all("LockOwner" not in r for r in rows)


class TestCrashInsideTransaction:
    def test_owner_crash_mid_body_does_not_abort(self, runtime):
        """Regression: a platform kill inside the with-block must NOT run
        the abort protocol. Releasing the locks on crash would let a
        concurrent transaction slip between this one's logged reads and
        its replayed commit — a lost update the chaos tests caught."""
        runtime.platform.crash_policy = CrashOnce(
            "spender", tag="invoke:2:start")

        def bump(ctx, payload):
            n = ctx.read("kv", payload) or 0
            ctx.write("kv", payload, n + 1)
            return n + 1

        bump_ssf = runtime.register_ssf("bump", bump, tables=["kv"])

        def spender(ctx, payload):
            with ctx.transaction() as tx:
                ctx.sync_invoke("bump", "x")
                # steps: 0 begin, 1 invoke; crash at the second invoke
                ctx.sync_invoke("bump", "y")
            return tx.outcome

        runtime.register_ssf("spender", spender)
        outcome = {}

        def client():
            try:
                outcome["r"] = runtime.client_call("spender", None)
            except FunctionCrashed:
                outcome["crashed"] = True

        runtime.start_collectors(ic_period=200.0, gc_period=1e11)
        runtime.kernel.spawn(client)
        runtime.kernel.run(until=150.0)  # after the crash, before the IC
        # Mid-recovery invariant: the crash must have left bump's lock on
        # "x" in place (owned by the unfinished transaction).
        table = bump_ssf.env.data_table("kv")
        rows = bump_ssf.env.store.query(table, "x").items
        assert any("LockOwner" in r for r in rows), \
            "crash released transaction locks prematurely"
        runtime.kernel.run(until=5_000.0)
        runtime.stop_collectors()
        runtime.kernel.run(until=8_000.0)
        # Replay must have committed exactly once: both keys bumped, all
        # locks released.
        assert bump_ssf.env.peek("kv", "x") == 1
        assert bump_ssf.env.peek("kv", "y") == 1
        for key in ("x", "y"):
            rows = bump_ssf.env.store.query(table, key).items
            assert all("LockOwner" not in r for r in rows)


class _CrashOnTagSubstring:
    """Crash the first time a crash-point tag contains a substring."""

    def __init__(self, function, needle):
        self.function = function
        self.needle = needle
        self.fired = False

    def should_crash(self, function, invocation_index, tag):
        if (not self.fired and function == self.function
                and self.needle in tag):
            self.fired = True
            return True
        return False


class TestWaitDie:
    def test_younger_dies_older_waits(self, runtime):
        """Two conflicting transactions in opposite lock orders must not
        deadlock: the younger dies, the older commits."""
        def mover(ctx, payload):
            first, second = payload["order"]
            with ctx.transaction() as tx:
                a = ctx.read("kv", first) or 0
                ctx.sleep(50.0)  # ensure the conflict window overlaps
                b = ctx.read("kv", second) or 0
                ctx.write("kv", first, a + 1)
                ctx.write("kv", second, b + 1)
            return tx.outcome

        ssf = runtime.register_ssf("mover", mover, tables=["kv"])
        outcomes = []
        runtime.kernel.spawn(lambda: outcomes.append(
            runtime.client_call("mover", {"order": ["x", "y"]})))
        runtime.kernel.spawn(lambda: outcomes.append(
            runtime.client_call("mover", {"order": ["y", "x"]})),
            delay=10.0)
        runtime.kernel.run()
        assert "committed" in outcomes
        # Both may commit (if serialized cleanly) or one aborted; but the
        # run must terminate and the committed effects must be atomic.
        x, y = ssf.env.peek("kv", "x"), ssf.env.peek("kv", "y")
        assert x == y  # each committed txn increments both

    def test_a_lock_that_fills_its_row_is_carried_to_the_successor(self):
        """Capacity 1: the lock's own log entry fills the tail, so the
        transaction extends the chain itself (fill-and-extend) — and
        the empty successor must carry ``LockOwner``, or the contender
        that restarts from the new tail would walk into a held item."""
        runtime = BeldiRuntime(seed=9, latency_scale=1.0, config=BeldiConfig(
            row_log_capacity=1, gc_t=1e12, ic_restart_delay=1e9,
            lock_retry_backoff=5.0, lock_retry_limit=400))

        def book(ctx, payload):
            with ctx.transaction() as tx:
                left = ctx.read("rooms", "H1")
                ctx.sleep(60.0)  # hold the lock across the contender
                ctx.write("rooms", "H1", left - 1)
            return tx.outcome

        ssf = runtime.register_ssf("book", book, tables=["rooms"])
        ssf.env.seed("rooms", "H1", 5)
        table = ssf.env.data_table("rooms")
        held, outcomes = [], []

        def probe():
            # While the first transaction sleeps on its lock: the row
            # its acquisition filled and the successor it linked.
            store = ssf.env.store
            while len(chain := daal.load_skeleton(
                    store, table, "H1").reachable) < 2:
                runtime.kernel.sleep(5.0)
            held.extend(store.get(table, ("H1", row_id))
                        for row_id in chain)

        for delay in (0.0, 5.0):
            runtime.kernel.spawn(lambda: outcomes.append(
                runtime.client_call("book")), delay=delay)
        runtime.kernel.spawn(probe)
        runtime.kernel.run()
        runtime.kernel.shutdown()
        # The filled row and its successor name the same owner and the
        # seeded value; all the successor can have logged by now is the
        # contender bouncing off the carried lock (outcome False).
        head, tail = held
        assert head["NextRow"] == tail["RowId"] and "NextRow" not in tail
        assert list(head["RecentWrites"].values()) == [True]
        assert not any(tail["RecentWrites"].values())
        assert tail["LockOwner"] == head["LockOwner"]
        assert tail["Value"] == 5
        # Mutual exclusion held: every commit took exactly one room.
        assert "committed" in outcomes
        assert ssf.env.peek("rooms", "H1") == 5 - outcomes.count("committed")
        rows = ssf.env.store.query(table, "H1").items
        (last,) = [row for row in rows if "NextRow" not in row]
        assert "LockOwner" not in last
        stats = runtime.tail_cache.stats
        assert stats.extensions > 0
        assert stats.lazy_appends == stats.append_races_lost == 0

    def test_fig12_pattern_terminates_under_opacity(self, runtime):
        """The Fig. 12 OCC infinite loop: with opacity (2PL) the loop
        guard can never observe a fractured x/y pair, so it terminates."""
        def fig12(ctx, payload):
            with ctx.transaction() as tx:
                x = ctx.read("kv", "x")
                y = ctx.read("kv", "y")
                spins = 0
                while x != y:  # inconsistent snapshot would spin forever
                    spins += 1
                    assert spins < 3, "observed fractured read"
                    x = ctx.read("kv", "x")
                    y = ctx.read("kv", "y")
                ctx.write("kv", "x", x + 3)
                ctx.write("kv", "y", y + 3)
            return tx.outcome

        ssf = runtime.register_ssf("fig12", fig12, tables=["kv"])
        ssf.env.seed("kv", "x", 0)
        ssf.env.seed("kv", "y", 0)
        outcomes = []
        for i in range(3):
            runtime.kernel.spawn(lambda: outcomes.append(
                runtime.client_call("fig12", None)), delay=float(i))
        runtime.kernel.run()
        committed = outcomes.count("committed")
        assert committed >= 1
        assert ssf.env.peek("kv", "x") == committed * 3
        assert ssf.env.peek("kv", "y") == committed * 3


class TestTransactionInvariants:
    def test_money_conserved_under_concurrency(self, runtime):
        """Classic transfer invariant: total balance is conserved across
        every interleaving of concurrent transactional transfers."""
        def transfer(ctx, payload):
            src, dst, amount = payload["src"], payload["dst"], payload["n"]
            with ctx.transaction() as tx:
                a = ctx.read("accts", src)
                b = ctx.read("accts", dst)
                if a < amount:
                    ctx.abort_tx()
                ctx.write("accts", src, a - amount)
                ctx.write("accts", dst, b + amount)
            return tx.outcome

        ssf = runtime.register_ssf("transfer", transfer, tables=["accts"])
        ssf.env.seed("accts", "ann", 100)
        ssf.env.seed("accts", "bob", 100)
        transfers = [("ann", "bob", 30), ("bob", "ann", 45),
                     ("ann", "bob", 10), ("bob", "ann", 80),
                     ("ann", "bob", 60)]
        for i, (src, dst, n) in enumerate(transfers):
            runtime.kernel.spawn(
                lambda p={"src": src, "dst": dst, "n": n}:
                runtime.client_call("transfer", p),
                delay=float(i) * 3.0)
        runtime.kernel.run()
        ann = ssf.env.peek("accts", "ann")
        bob = ssf.env.peek("accts", "bob")
        assert ann + bob == 200
        assert ann >= 0 and bob >= 0

    def test_nontransactional_ssf_inherits_txn(self, runtime):
        """An SSF with no begin/end of its own, invoked inside a txn,
        automatically locks and shadows (§6.2)."""
        def plain_writer(ctx, payload):
            ctx.write("kv", "item", payload)
            return "wrote"

        writer = runtime.register_ssf("plain", plain_writer,
                                      tables=["kv"])

        def owner(ctx, payload):
            with ctx.transaction() as tx:
                ctx.sync_invoke("plain", "txn-value")
                if payload == "abort":
                    ctx.abort_tx()
            return tx.outcome

        runtime.register_ssf("owner", owner)
        assert runtime.run_workflow("owner", "commit") == "committed"
        assert writer.env.peek("kv", "item") == "txn-value"
        assert runtime.run_workflow("owner", "abort") == "aborted"
        assert writer.env.peek("kv", "item") == "txn-value"  # unchanged

    def test_async_invoke_rejected_in_txn(self, runtime):
        from repro.core.errors import NotSupported
        runtime.register_ssf("leaf", lambda ctx, p: "x")

        def owner(ctx, payload):
            with ctx.transaction():
                try:
                    ctx.async_invoke("leaf", None)
                except NotSupported:
                    return "rejected"
            return "allowed"

        runtime.register_ssf("owner", owner)
        assert runtime.run_workflow("owner") == "rejected"


# ---------------------------------------------------------------------------
# Phase 2 fans out (``async_io``): signals first, local part beside them
# ---------------------------------------------------------------------------

def _fan_out_runtime(**config) -> BeldiRuntime:
    return BeldiRuntime(seed=9, latency_scale=1.0, observability=True,
                        config=BeldiConfig(gc_t=1e12, **config))


def _build_tree(runtime):
    """``owner`` (writes) -> ``mid`` (writes, -> ``leaf`` (writes)) and
    ``side`` (locks an item it never writes), all in one transaction."""
    envs = {}

    def leaf(ctx, payload):
        ctx.write("kv", "leaf", payload)
        return "leaf"

    def mid(ctx, payload):
        ctx.write("kv", "mid", payload)
        return [ctx.sync_invoke("leaf", payload)]

    def side(ctx, payload):
        return ctx.read("kv", "seen")

    def owner(ctx, payload):
        with ctx.transaction() as tx:
            ctx.write("kv", "owner", payload)
            ctx.sync_invoke("mid", payload)
            ctx.sync_invoke("side", payload)
            if payload == "abort":
                ctx.abort_tx()
        return tx.outcome

    for name, handler in (("leaf", leaf), ("mid", mid), ("side", side),
                          ("owner", owner)):
        envs[name] = runtime.register_ssf(name, handler, tables=["kv"]).env
    envs["side"].seed("kv", "seen", "s")
    return envs


def _log_signals(runtime) -> list:
    """Every ``txn_signal`` the platform serves: ``{function, start, end}``."""
    signals = []
    real = runtime.platform.sync_invoke

    def logged(name, payload, meanwhile=None):
        if (payload or {}).get("kind") != "txn_signal":
            return real(name, payload, meanwhile=meanwhile)
        row = {"function": name, "start": runtime.kernel.now}
        signals.append(row)
        try:
            return real(name, payload, meanwhile=meanwhile)
        finally:
            row["end"] = runtime.kernel.now

    runtime.platform.sync_invoke = logged
    return signals


def _no_lock_left(envs) -> bool:
    return all("LockOwner" not in row
               for env in envs.values()
               for key in ("owner", "mid", "leaf", "seen")
               for row in env.store.query(env.data_table("kv"), key).items)


def _spans(runtime, name, **args) -> list:
    return [r for r in history.of(runtime.obs.tracer.records).named(name)
            if all(r["args"].get(k) == v for k, v in args.items())]


class TestCommitFanOut:
    def test_signals_start_together_and_the_local_part_runs_beside(self):
        runtime = _fan_out_runtime()
        envs = _build_tree(runtime)
        signals = _log_signals(runtime)
        assert runtime.run_workflow("owner", "v") == "committed"
        runtime.kernel.shutdown()
        assert [envs[n].peek("kv", n) for n in ("owner", "mid", "leaf")] \
            == ["v", "v", "v"]
        assert _no_lock_left(envs)
        by_fn = {s["function"]: s for s in signals}
        assert sorted(by_fn) == ["leaf", "mid", "side"]
        finish, = _spans(runtime, "txn.finish:commit")
        resolves = sorted(_spans(runtime, "txn.resolve"),
                          key=lambda r: r["ts"])
        local = resolves[0]
        # The owner's signals leave at the instant phase 2 opens — its
        # callees come from memory, not from an invoke-log query — and
        # its own resolve runs while they are in flight.
        assert by_fn["mid"]["start"] == by_fn["side"]["start"] \
            == finish["ts"] == local["ts"]
        assert not _spans(runtime, "store.query",
                          table=envs["owner"].invoke_log)
        assert local["ts"] + local["dur"] < min(
            by_fn["mid"]["end"], by_fn["side"]["end"])
        # mid does the same one level down: leaf's signal is in flight
        # before mid's own resolve ends.
        mid_resolve = next(r for r in resolves[1:]
                           if by_fn["mid"]["start"] < r["ts"]
                           and r["ts"] + r["dur"] <= by_fn["mid"]["end"]
                           and r["ts"] <= by_fn["leaf"]["start"])
        assert by_fn["leaf"]["start"] <= mid_resolve["ts"] + 1e-9
        # Phase 2 costs its slowest participant, not their sum.
        assert finish["dur"] == pytest.approx(
            max(s["end"] for s in signals) - finish["ts"])
        assert finish["dur"] < 0.75 * (
            local["dur"] + sum(s["end"] - s["start"]
                               for s in (by_fn["mid"], by_fn["side"])))

    def test_without_async_io_phase_two_is_the_papers_walk(self):
        runtime = _fan_out_runtime(without="async_io")
        envs = _build_tree(runtime)
        signals = _log_signals(runtime)
        assert runtime.run_workflow("owner", "v") == "committed"
        runtime.kernel.shutdown()
        assert _no_lock_left(envs)
        local = min(_spans(runtime, "txn.resolve"), key=lambda r: r["ts"])
        mid, leaf, side = signals  # depth first, one at a time
        assert [s["function"] for s in signals] == ["mid", "leaf", "side"]
        assert local["ts"] + local["dur"] <= mid["start"]
        assert mid["start"] < leaf["start"] and leaf["end"] <= mid["end"]
        assert mid["end"] <= side["start"]
        assert len(_spans(runtime, "store.query",
                          table=envs["owner"].invoke_log)) == 1

    def test_a_flush_is_its_items_release(self):
        """Round 2 has one branch per item: the written ones flush (and
        unlock), only the merely locked ones are released."""
        counts = {}
        for name, config in (("current", {}),
                             ("walk", {"without": "async_io"})):
            runtime = _fan_out_runtime(**config)
            envs = _build_tree(runtime)
            assert runtime.run_workflow("owner", "v") == "committed"
            runtime.kernel.shutdown()
            finish, = _spans(runtime, "txn.finish:commit")
            stores = history.of(runtime.obs.tracer.records).in_cat("store")
            counts[name] = {
                fn: [r["name"] for r in stores if r["ts"] >= finish["ts"]
                     and r["args"]["table"] == envs[fn].data_table("kv")]
                for fn in ("owner", "side")}
            assert _no_lock_left(envs)
        # owner wrote its one locked item: tail read + update resolve it;
        # the walk's release pass then fails a second update (a failed
        # condition leaves no span) and reads the row to learn why.
        # side only locked: one release either way.
        flush = ["store.read", "store.cond_write"]
        assert counts == {
            "current": {"owner": flush, "side": ["store.cond_write"]},
            "walk": {"owner": flush + ["store.read"],
                     "side": ["store.cond_write"]}}

    def test_abort_fans_out_too(self):
        runtime = _fan_out_runtime()
        envs = _build_tree(runtime)
        signals = _log_signals(runtime)
        assert runtime.run_workflow("owner", "abort") == "aborted"
        runtime.kernel.shutdown()
        assert [envs[n].peek("kv", n) for n in ("owner", "mid", "leaf")] \
            == [None, None, None]
        assert _no_lock_left(envs)
        by_fn = {s["function"]: s for s in signals}
        assert by_fn["mid"]["start"] == by_fn["side"]["start"]

    def test_only_this_transactions_callees_are_signalled(self):
        """The owner's memory is exact; its invoke log also holds the
        callees of the transactions it ran before."""
        seen = {}
        for name, config in (("current", {}),
                             ("walk", {"without": "async_io"})):
            runtime = _fan_out_runtime(**config)

            def owner(ctx, payload):
                for key in ("a", "b"):
                    with ctx.transaction():
                        ctx.sync_invoke("leaf", key)
                return "done"

            leaf = runtime.register_ssf(
                "leaf", lambda ctx, key: ctx.write("kv", key, 1),
                tables=["kv"])
            runtime.register_ssf("owner", owner)
            signals = _log_signals(runtime)
            assert runtime.run_workflow("owner") == "done"
            runtime.kernel.shutdown()
            assert [leaf.env.peek("kv", k) for k in ("a", "b")] == [1, 1]
            seen[name] = len(signals)
        assert seen == {"current": 2, "walk": 3}

    @pytest.mark.parametrize("victim", ["mid", "side"])
    def test_one_participants_failure_does_not_strand_the_others(
            self, victim):
        """One callee's signal handler dies every time — the first of
        the fan-out (``mid``) or one started beside it (``side``): the
        other callees and the owner's own part are resolved all the
        same, and the failure still surfaces."""
        from repro.platform import CrashPolicy

        class KillSignals(CrashPolicy):
            armed = False

            def should_crash(self, function, invocation_index, tag):
                return function == victim and tag == "enter" and self.armed

        runtime = _fan_out_runtime(invoke_retry_limit=2,
                                   invoke_retry_backoff=1.0)
        envs = _build_tree(runtime)
        policy = runtime.platform.crash_policy = KillSignals()
        real = runtime.platform.sync_invoke

        def arm_on_signal(name, payload, meanwhile=None):
            if (payload or {}).get("kind") == "txn_signal":
                policy.armed = True
            return real(name, payload, meanwhile=meanwhile)

        runtime.platform.sync_invoke = arm_on_signal
        box = {}

        def client():
            try:
                box["result"] = runtime.client_call("owner", "v")
            except Exception as exc:  # noqa: BLE001 - asserted below
                box["error"] = exc

        runtime.kernel.spawn(client)
        runtime.kernel.run(until=5_000.0)
        runtime.kernel.shutdown()
        assert isinstance(box.get("error"), FunctionCrashed)
        assert envs["owner"].peek("kv", "owner") == "v"
        resolved = {"mid": [("owner", "owner"), ("side", "seen")],
                    "side": [("owner", "owner"), ("mid", "mid"),
                             ("leaf", "leaf")]}[victim]
        for fn, key in resolved:
            env = envs[fn]
            assert all("LockOwner" not in row for row in env.store.query(
                env.data_table("kv"), key).items), (fn, key)

    def test_no_slot_for_a_signal_still_resolves_the_rest(self):
        """``TooManyRequests`` before any worker started: the rest of the
        fan-out runs right away, the signal is retried after it."""
        from repro.platform import TooManyRequests

        runtime = _fan_out_runtime(invoke_retry_backoff=1.0)
        envs = _build_tree(runtime)
        real = runtime.platform.sync_invoke
        refused = []

        def refuse_first_signal(name, payload, meanwhile=None):
            if ((payload or {}).get("kind") == "txn_signal"
                    and name == "mid" and not refused):
                refused.append(runtime.kernel.now)
                raise TooManyRequests("no slot")
            return real(name, payload, meanwhile=meanwhile)

        runtime.platform.sync_invoke = refuse_first_signal
        assert runtime.run_workflow("owner", "v") == "committed"
        runtime.kernel.shutdown()
        assert len(refused) == 1
        assert [envs[n].peek("kv", n) for n in ("owner", "mid", "leaf")] \
            == ["v", "v", "v"]
        assert _no_lock_left(envs)
