"""Exhaustive crash-point sweep (the paper's core claim, mechanized).

A recording run enumerates every crash point a workflow passes through
(``RecordingPolicy`` sees each ``ctx.crash_point(tag)``). The sweep then
re-runs the workflow once per recorded point, killing the instance at
exactly that point with ``CrashOnce``, letting the intent collector
recover, and asserting:

1. **exactly-once effects** — the workflow's externally visible writes
   happened exactly once (or, when the crash precedes the root intent,
   exactly zero times with the client told so);
2. **atomicity** — the travel reservation's hotel/flight decrements and
   booking record move together, never partially;
3. **a clean final store** — after the GC horizon passes, every log,
   intent, lock-set record, shadow chain, lock, and write-log entry is
   gone: crashes leave no permanent residue.

Swept over the travel-booking transaction and the movie-review workflow,
under both profiles (``paper``, ``current``) — nothing built on top of
the paper's protocols may change crash semantics anywhere in the crash
space.

The read-heavy travel ``search`` workflow (frontend → search → geo / rate
/ profile: runs of logged reads, no writes) is swept too, with every
seeded row **rewritten at the instant of the crash**: whatever the
re-execution returns must then be exactly what its read log holds — a
value replayed from anywhere else (a fresh data read, a half-landed run)
shows up as a return that disagrees with the log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import pytest

import dst
import lifecycle
from repro.apps.movie import MovieReviewApp
from repro.apps.travel import TravelReservationApp
from repro.core import BeldiConfig, BeldiRuntime
from repro.core import daal, intents, ops
from repro.core.gc import make_garbage_collector
from repro.kvstore import Set
from repro.kvstore.faults import FaultPolicy
from repro.platform import CrashOnce, CrashPolicy, RecordingPolicy
from repro.platform.errors import FunctionCrashed, TooManyRequests

SEED = 5
GC_T = 400.0
RECOVERY_SLICE = 500.0
RECOVERY_HORIZON = 40_000.0

# ``shards``/``replicas``/``leader_crash``/``latency_scale`` are runtime
# knobs, not BeldiConfig fields. The sharded sweep proves the commit
# protocol's shadow writes stay atomic when they span shard boundaries;
# the replicated sweep additionally crashes shard *leaders* out from
# under the workflow (``leader_crash_probability`` on every leader-routed
# store op). Store latency stays at scale 0 (deterministic recording),
# but the replica groups' own latency model always runs at scale 1, so
# replication lag — and the failover's unacked-suffix replay — is
# nonzero anyway. ``read_consistency`` rides along to exercise the GC's
# eventual first-pass scan under crash + failover recovery.
#
# ``paper`` sweeps the seed protocol, ``current`` everything on top of it
# (tail cache, batched reads, overlapped commit fan-outs, batched GC
# deletions and parallel-invoke claims); both must be just as
# exactly-once, atomic, and residue-free at every point.
#
# ``current-repl3`` is the deepest topology, and additionally gives the
# elasticity detector hair-trigger thresholds (any 8-op window over a
# 1.01 load ratio), which forces live chain migrations *mid-request* —
# the recording run captures the migration protocol's own crash points
# (``migrate:start/prepared/committed/done``) inside whatever SSF
# invocation tripped the detector, and the sweep then crashes each of
# them. Recovery is the durable migration record: the GC (or the next
# attempt) rolls the move forward or back, and ``assert_store_clean``
# additionally demands zero placement residue and no mid-phase records.
#
# ``current-cap1`` gives every row room for one log entry, so every
# logged write and every lock acquisition *fills* its row and its writer
# extends the chain itself (fill-and-extend, ``ops._extend_filled_row``).
# Every ``write`` / ``condwrite`` of the recording run then passes its
# ``:done`` point announced and with the tail full, an ``:extend:put``
# point between the candidate put and the CAS, and its next point with
# an empty successor linked — and a filler killed at each must leave
# only what a crashed lazy appender always could: a full tail without a
# successor, an orphan candidate, an empty successor carrying ``Value``
# / ``LockOwner`` forward.
SETTINGS = {
    "paper": dict(profile="paper"),
    "current": dict(),
    "current-cap1": dict(row_log_capacity=1),
    "current-shards2": dict(shards=2),
    "current-repl3": dict(elastic_check_every=2, elastic_min_window=8,
                          elastic_load_ratio=1.01, elastic_max_moves=4,
                          elastic_tolerance=0.0,
                          shards=2, replicas=3, leader_crash=0.02,
                          read_consistency="eventual"),
}
UNSHARDED_SETTINGS = [name for name, flags in SETTINGS.items()
                      if "shards" not in flags]
#: The search workflow writes nothing: no row of it can fill.
SEARCH_SETTINGS = [name for name in UNSHARDED_SETTINGS
                   if "row_log_capacity" not in SETTINGS[name]]


def _runtime(flags: dict) -> BeldiRuntime:
    flags = dict(flags)
    shards = flags.pop("shards", 1)
    replicas = flags.pop("replicas", 1)
    leader_crash = flags.pop("leader_crash", 0.0)
    latency_scale = flags.pop("latency_scale", 0.0)
    read_consistency = flags.pop("read_consistency", None)
    config = BeldiConfig(ic_restart_delay=200.0, gc_t=GC_T,
                         lock_retry_backoff=5.0, lock_retry_limit=500,
                         **flags)
    store_faults = (FaultPolicy(leader_crash_probability=leader_crash)
                    if leader_crash else None)
    return BeldiRuntime(seed=SEED, config=config, shards=shards,
                        replicas=replicas, latency_scale=latency_scale,
                        read_consistency=read_consistency,
                        store_faults=store_faults, observability=True)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

class Scenario:
    #: Rewrites seeded data at the instant of the swept crash (or None).
    mutate: Optional[Callable] = None

    def ok(self, result) -> bool:
        """Did the client get the workflow's success reply?"""
        return isinstance(result, dict) and bool(result.get("ok"))


class TravelReserveScenario(Scenario):
    """One cross-SSF reservation transaction (hotel + flight + booking)."""

    entry = "frontend"
    # flight-0001 (not -0000) so that at shards=2 the hotel and flight
    # rows live on different shards — asserted by
    # test_sharded_sweep_actually_crosses_shards below.
    payload = {"action": "reserve", "user": "user-0000",
               "hotel": "hotel-0000", "flight": "flight-0001"}

    def build(self, flags: dict):
        runtime = _runtime(flags)
        app = TravelReservationApp(seed=SEED, n_hotels=2, n_flights=2,
                                   rooms_per_hotel=2, seats_per_flight=2,
                                   n_users=1)
        app.register(runtime)
        app.seed_data(runtime)
        return runtime, app

    def check_effects(self, runtime, app, result) -> None:
        rooms, seats = app.capacity_remaining()
        rooms_used = 2 * 2 - rooms
        seats_used = 2 * 2 - seats
        env = app.envs["reserve"]
        bookings = len(daal.all_keys(env.store,
                                     env.data_table("bookings")))
        # Atomicity: the three effects move together...
        assert rooms_used == seats_used == bookings, (
            f"partial reservation: rooms={rooms_used} "
            f"seats={seats_used} bookings={bookings}")
        # ...exactly once or not at all; and a success reply to the
        # client implies the effects landed.
        assert bookings in (0, 1)
        if self.ok(result):
            assert bookings == 1


class MovieComposeScenario(Scenario):
    """The compose-review workflow: store + two index appends."""

    entry = "frontend"
    payload = {"action": "compose", "username": "user-0000",
               "title": "Title 0", "text": "great movie  indeed",
               "rating": 8}

    def build(self, flags: dict):
        runtime = _runtime(flags)
        app = MovieReviewApp(seed=SEED, n_movies=2, n_users=1)
        app.register(runtime)
        app.seed_data(runtime)
        return runtime, app

    def check_effects(self, runtime, app, result) -> None:
        storage_env = app.envs["review_storage"]
        review_ids = daal.all_keys(storage_env.store,
                                   storage_env.data_table("reviews"))
        by_user = app.envs["user_review"].peek("by_user",
                                               "uid-0000") or []
        by_movie = app.envs["movie_review"].peek("by_movie",
                                                 "movie-0000") or []
        assert len(review_ids) in (0, 1)
        # Exactly-once indexing: no duplicate appends ever.
        assert len(by_user) == len(set(by_user)) == len(review_ids)
        assert len(by_movie) == len(set(by_movie)) == len(review_ids)
        if review_ids:
            assert by_user == review_ids and by_movie == review_ids
        if self.ok(result):
            assert len(review_ids) == 1


class TravelSearchScenario(Scenario):
    """One hotel search: geo reads the cell, rate reads one row per
    nearby hotel, profile one row per ranked hotel — three runs of
    logged reads and not a single write."""

    entry = "frontend"
    payload = {"action": "search", "cell": 0}
    #: What each leaf must have returned, given its arguments and the
    #: ``step -> value`` its read log holds.
    RETURNS = {
        "geo": lambda args, logged: logged[0],
        "rate": lambda args, logged: [
            {"hotel": hotel, "rate": logged[i]}
            for i, hotel in enumerate(args["hotels"])],
        "profile": lambda args, logged: [
            logged[i] for i in range(len(args["hotels"]))],
    }

    def build(self, flags: dict):
        runtime = _runtime(flags)
        # 30 hotels over 10 cells: cell 0 holds three of them.
        app = TravelReservationApp(seed=SEED, n_hotels=30, n_flights=1,
                                   n_users=1)
        app.register(runtime)
        app.seed_data(runtime)
        return runtime, app

    def ok(self, result) -> bool:
        return isinstance(result, dict) and "hotels" in result

    def mutate(self, runtime, app) -> None:
        """Change every row the search reads: the cell loses a hotel and
        reverses, the rate order flips, every profile gains a marker."""
        def rewrite(name, short, key, change):
            env = app.envs[name]
            env.store.update(env.data_table(short), (key, daal.HEAD_ROW_ID),
                             [Set("Value", change(env.peek(short, key)))])

        rewrite("geo", "cells", "cell-0", lambda hotels: hotels[:0:-1])
        for i in range(app.n_hotels):
            hotel = f"hotel-{i:04d}"
            rewrite("rate", "rates", hotel, lambda rate: 1000.0 - rate)
            rewrite("profile", "profiles", hotel,
                    lambda profile: dict(profile, renovated=True))

    def check_effects(self, runtime, app, result) -> None:
        grouped = runtime.config.has_async_io
        returned = {}
        for name in ("frontend", "search", "geo", "rate", "profile"):
            env = app.envs[name]
            done = env.store.scan(env.intent_table).items
            assert len(done) <= 1, f"{name} ran as {len(done)} instances"
            for intent in done:
                returned[name] = intent["Ret"]
                logged = ops.logged_reads(env, intent["InstanceId"])
                if name in self.RETURNS:
                    # The recorded return is a function of the log alone.
                    assert intent["Ret"] == self.RETURNS[name](
                        intent["Args"], logged), (
                        f"{name} returned a value its read log lacks")
                rows = env.store.query(env.read_log,
                                       intent["InstanceId"]).items
                assert len(rows) == (min(1, len(logged)) if grouped
                                     else len(logged)), (
                    f"{name}: {len(rows)} read-log rows for "
                    f"{len(logged)} reads")
        if "frontend" in returned:
            # One answer, carried unchanged along the workflow edges.
            assert (returned["frontend"] == returned["search"]
                    == {"hotels": returned["profile"]})
            assert [p["id"] for p in returned["profile"]] == [
                r["hotel"] for r in sorted(
                    returned["rate"], key=lambda r: r["rate"])[:5]]
            assert [r["hotel"] for r in returned["rate"]] == (
                returned["geo"])
        if self.ok(result):
            assert result == returned["frontend"]


SCENARIOS = {
    "travel-reserve": TravelReserveScenario(),
    "movie-compose": MovieComposeScenario(),
    "travel-search": TravelSearchScenario(),
}


@dataclass
class CrashOnceThen(CrashOnce):
    """:class:`CrashOnce` that also calls ``then`` as it fires."""

    then: Callable = lambda: None

    def should_crash(self, function: str, invocation_index: int,
                     tag: str) -> bool:
        fired = super().should_crash(function, invocation_index, tag)
        if fired:
            self.then()
        return fired


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

def record_crash_space(scenario, flags: dict):
    """Crash-free run under a recording policy -> the full crash space."""
    runtime, app = scenario.build(flags)
    recording = RecordingPolicy()
    runtime.platform.crash_policy = recording
    result = runtime.run_workflow(scenario.entry, dict(scenario.payload))
    runtime.kernel.shutdown()
    points = recording.unique_points()
    assert len(points) > 40, "suspiciously small crash space"
    return points, result


def run_until_recovered(runtime, scenario):
    """Issue the client request; drive until the client finished and no
    intent is pending. Returns what the client saw (``"crashed"`` when
    its invocation failed)."""
    box = {}

    def client():
        try:
            box["result"] = runtime.client_call(scenario.entry,
                                                dict(scenario.payload))
        except (FunctionCrashed, TooManyRequests):
            box["result"] = "crashed"

    runtime.start_collectors(ic_period=100.0, gc_period=1e12)
    runtime.kernel.spawn(client)
    deadline = RECOVERY_HORIZON
    elapsed = 0.0
    while elapsed < deadline:
        elapsed += RECOVERY_SLICE
        runtime.kernel.run(until=elapsed)
        if "result" not in box:
            continue
        if all(not intents.pending_intents(env)
               for env in runtime.envs.values()):
            break
    runtime.stop_collectors()
    runtime.kernel.run(until=elapsed + RECOVERY_SLICE)
    assert "result" in box, "client never completed"
    assert all(not intents.pending_intents(env)
               for env in runtime.envs.values()), (
        "unfinished intents survived recovery")
    return box["result"]


def run_gc_passes(runtime, passes: int = 3) -> None:
    """Advance past the GC horizon and collect everything, repeatedly
    (stamp -> recycle/disconnect -> delete needs T between passes)."""
    handlers = [make_garbage_collector(runtime, env)
                for env in runtime.envs.values()]

    class _Ctx:
        request_id = "sweep-gc"
        invocation_index = 0

        def crash_point(self, tag):
            pass

    for _ in range(passes):
        runtime.kernel.spawn(
            lambda: runtime.kernel.sleep(GC_T + 50.0))
        runtime.kernel.run()

        def one_round():
            for handler in handlers:
                handler(_Ctx(), {})

        runtime.kernel.spawn(one_round)
        runtime.kernel.run()


def sweep(scenario_name: str, flags_name: str) -> None:
    scenario = SCENARIOS[scenario_name]
    flags = SETTINGS[flags_name]
    points, baseline_result = record_crash_space(scenario, flags)
    assert scenario.ok(baseline_result), "crash-free run must succeed"
    failures = []
    total_failovers = 0
    total_migrations = 0
    migration_points = sum(1 for _f, _i, tag in points
                           if tag.startswith("migrate:"))
    for function, index, tag in points:
        runtime, app = scenario.build(flags)
        policy = CrashOnce(function, tag, invocation_index=index)
        if scenario.mutate is not None:
            # The rewrite runs at the crash's own virtual instant, ahead
            # of the caller's retry and of the intent collector.
            policy = CrashOnceThen(
                function, tag, invocation_index=index,
                then=lambda: runtime.kernel.spawn(
                    scenario.mutate, runtime, app))
        runtime.platform.crash_policy = policy
        try:
            result = run_until_recovered(runtime, scenario)
            scenario.check_effects(runtime, app, result)
            assert runtime.platform.stats.injected_crashes == 1, (
                "crash point was not reached on the re-run")
            lifecycle.check(runtime.obs.tracer.records)
            run_gc_passes(runtime)
            dst.assert_store_clean(runtime.store, [runtime])
        except AssertionError as exc:  # collect, report all at once
            failures.append((function, index, tag,
                             dst.failure_line(exc)))
        finally:
            if hasattr(runtime.store, "replication_stats"):
                total_failovers += (
                    runtime.store.replication_stats.failovers)
            if runtime.elasticity is not None:
                stats = runtime.elasticity.migrator.stats
                total_migrations += (stats.migrations
                                     + stats.rolled_forward
                                     + stats.rolled_back)
            runtime.kernel.shutdown()
    _check_reply_points(points, runtime.config.has_async_io)
    _check_open_points(points, runtime.config.has_async_io)
    if scenario.mutate is not None:
        _check_read_log_points(points, runtime.config.has_async_io)
    if flags.get("row_log_capacity") == 1:
        _check_extension_points(points)
    assert not failures, (
        f"{len(failures)}/{len(points)} crash points violated "
        f"exactly-once/cleanliness:\n" + "\n".join(
            f"  {f}#{i} @ {t}: {msg}"
            for f, i, t, msg in failures[:10]))
    if flags.get("replicas", 1) > 1 and flags.get("leader_crash"):
        # The replicated sweep is only meaningful if leaders actually
        # crashed mid-workflow — across the whole sweep, many must.
        assert total_failovers > len(points), (
            f"only {total_failovers} leader failovers across "
            f"{len(points)} swept runs")
    if "elastic_load_ratio" in flags:
        # The hair-trigger sweep is only meaningful if chains actually moved
        # mid-request — the recording run must have reached the
        # migration protocol's own crash points, and the swept re-runs
        # must have performed (or recovered) migrations throughout.
        assert migration_points >= 3, (
            f"only {migration_points} migrate:* crash points recorded")
        assert total_migrations > len(points), (
            f"only {total_migrations} migrations across "
            f"{len(points)} swept runs")


def _check_reply_points(points, replies_early: bool) -> None:
    """Every sync callee was killed between its reply and its callback
    (``current``) — a window the paper's order does not have."""
    replied = {function for function, _index, tag in points
               if tag == "reply:sent"}
    called_back = {function for function, _index, tag in points
                   if tag == "callback:done"}
    assert replied == (called_back if replies_early else set()), (
        sorted(replied), sorted(called_back))
    assert called_back, "no sync callee in the swept workflow"


def _check_open_points(points, pipelined: bool) -> None:
    """The workflow root was killed with its callee running and no claim
    yet (``current``) — a window neither the paper's order nor a caller
    inside a transaction (``reserve``) has."""
    dispatched = {function for function, _index, tag in points
                  if tag.startswith("invoke:")
                  and tag.endswith(":dispatched")}
    assert ("frontend" in dispatched) == pipelined, sorted(dispatched)
    assert pipelined or not dispatched, sorted(dispatched)
    assert "reserve" not in dispatched


def _check_read_log_points(points, grouped: bool) -> None:
    """The search sweep is only meaningful if it killed ``rate`` around
    its batched fetch, around its group flush and between buffering and
    flushing (``current``), and if the paper path — ``read_many`` as the
    per-key loop — really has no such points."""
    tags = {tag for function, _index, tag in points if function == "rate"}
    if grouped:
        assert {"readmany:0:start", "readmany:0:fetched",
                "readlog:0:before-flush", "readlog:0:after-flush",
                "body:done"} <= tags, sorted(tags)
        assert not any(tag.startswith("roread:") for tag in tags)
    else:
        assert {"roread:0:start", "roread:1:before-log"} <= tags
        assert not any(tag.startswith(("readlog:", "readmany:"))
                       for _f, _i, tag in points)


def _check_extension_points(points) -> None:
    """The capacity-1 sweep is only meaningful if it killed fillers
    between candidate put and CAS — after plain writes and, where the
    workflow locks (the reservation), after lock acquisitions alike,
    whose successor must carry ``LockOwner``. (The states either side
    of that window are its ``:done`` and whatever point follows.)"""
    tags = {tag for _function, _index, tag in points}
    for op in ("write", "condwrite"):
        tried = {tag for tag in tags if tag.startswith(f"{op}:")}
        assert tried or op == "condwrite"
        extended = {tag.rsplit(":", 2)[0] for tag in tried
                    if tag.endswith(":extend:put")}
        landed = {tag.rsplit(":", 1)[0] for tag in tried
                  if tag.endswith(":done")}
        assert extended == landed, (op, sorted(landed - extended))


@pytest.mark.parametrize("flags_name", sorted(SETTINGS))
def test_travel_reserve_crash_sweep(flags_name):
    sweep("travel-reserve", flags_name)


@pytest.mark.parametrize("flags_name", sorted(UNSHARDED_SETTINGS))
def test_movie_compose_crash_sweep(flags_name):
    sweep("movie-compose", flags_name)


@pytest.mark.parametrize("flags_name", sorted(SEARCH_SETTINGS))
def test_travel_search_crash_sweep(flags_name):
    sweep("travel-search", flags_name)


def test_sharded_sweep_actually_crosses_shards():
    """The shards=2 sweep is only meaningful if the reservation's three
    effects (hotel inventory, flight seats, booking record) do not all
    co-locate on one shard — pin that property so a routing change
    cannot silently turn the sharded sweep into a single-shard one."""
    scenario = SCENARIOS["travel-reserve"]
    runtime, app = scenario.build(SETTINGS["current-shards2"])
    store = runtime.store
    touched = {
        store.shard_for(app.envs["reserve_hotel"].data_table("inventory"),
                        scenario.payload["hotel"]),
        store.shard_for(app.envs["reserve_flight"].data_table("seats"),
                        scenario.payload["flight"]),
    }
    runtime.kernel.shutdown()
    assert len(touched) > 1, (
        "hotel and flight rows landed on one shard; pick other keys")


# ---------------------------------------------------------------------------
# A filler killed mid-extension, with writers waiting on it
# ---------------------------------------------------------------------------

EXTENSION_POINTS = ("filled", "put", "linked")


class KillTheFiller(CrashPolicy):
    """Kill whichever invocation fills the head row: at its ``:done``
    (``filled`` — the extension announced, nothing put), between the
    candidate put and the CAS (``put``), or at its first crash point
    after the CAS (``linked``)."""

    def __init__(self, point: str, announced: Callable[[], bool]) -> None:
        self.point = point
        self.announced = announced
        self.past_put = None
        self.fired = False

    def should_crash(self, function, invocation_index, tag) -> bool:
        if self.fired:
            return False
        if self.point == "filled":
            self.fired = tag.endswith(":done") and self.announced()
        elif self.point == "put":
            self.fired = tag.endswith(":extend:put")
        else:
            self.fired = self.past_put == (function, invocation_index)
            if tag.endswith(":extend:put"):
                self.past_put = (function, invocation_index)
        return self.fired


def _crash_the_filler(point: str):
    """Three concurrent requests write one key twice each at capacity 2
    and real latencies; the request whose update fills the head row is
    killed at ``point`` while the others are about to write."""
    config = BeldiConfig(row_log_capacity=2, ic_restart_delay=200.0,
                         gc_t=GC_T)
    runtime = BeldiRuntime(seed=SEED, config=config, latency_scale=1.0,
                           observability=True)

    def writer(ctx, payload):
        for index in range(2):
            ctx.write("kv", "hot", [payload, index])
        return {"ok": True}

    ssf = runtime.register_ssf("w", writer, tables=["kv"])
    ssf.env.seed("kv", "hot", None)
    table = ssf.env.data_table("kv")
    runtime.platform.crash_policy = KillTheFiller(
        point, lambda: runtime.tail_cache.extension_of(
            table, "hot", daal.HEAD_ROW_ID) is not None)
    results = []

    def client(payload):
        try:
            results.append(runtime.client_call("w", payload))
        except FunctionCrashed:
            results.append("crashed")

    runtime.start_collectors(ic_period=100.0, gc_period=1e12)
    for payload in range(3):
        runtime.kernel.spawn(client, payload)
    runtime.kernel.run(until=5_000.0)
    runtime.stop_collectors()
    runtime.kernel.run(until=5_000.0 + RECOVERY_SLICE)
    return runtime, ssf.env, results


@pytest.mark.parametrize("point", EXTENSION_POINTS)
def test_crashed_filler_releases_its_waiters(point):
    runtime, env, results = _crash_the_filler(point)
    table = env.data_table("kv")
    try:
        assert runtime.platform.stats.injected_crashes == 1
        assert sorted(map(str, results)) == sorted(
            ["crashed"] + [str({"ok": True})] * 2)
        assert not intents.pending_intents(env)
        rows = env.store.query(table, "hot").items
        entries = [log_key for row in rows
                   for log_key in row["RecentWrites"]]
        assert len(entries) == len(set(entries)) == 6
        stats = runtime.tail_cache.stats
        skeleton = daal.load_skeleton(env.store, table, "hot")
        # (At ``filled`` the filler dies in the scheduling step that
        # announced it: nobody saw the announcement.)
        assert (stats.extension_waits >= 1) == (point != "filled")
        if point == "linked":
            # The link landed: the waiters restart from the new tail.
            assert stats.lazy_appends == 0 and skeleton.orphans == []
        else:
            # Released into today's case D: the first waiter appends
            # lazily, and the candidate the filler had already put is
            # an orphan for the GC.
            assert stats.lazy_appends >= 1
            assert len(skeleton.orphans) == (point == "put")
        assert stats.append_races_lost == 0
        lifecycle.check(runtime.obs.tracer.records)
        run_gc_passes(runtime)
        dst.assert_store_clean(runtime.store, [runtime])
        assert daal.load_skeleton(env.store, table, "hot").orphans == []
    finally:
        runtime.kernel.shutdown()
