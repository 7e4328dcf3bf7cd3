"""Concurrent-workload DST harness: N conflicting requests on one kernel.

Generalizes the single-request crash sweep (``test_crashpoint_sweep``) to
a *mix* of concurrent requests — two travel reservations contending on
the same hotel/flight rows plus a movie compose-review workflow — driven
deterministically on one sim kernel, with:

- a pluggable :class:`~repro.sim.schedule.Schedule` controlling the
  interleaving at every kernel blocking point (and, for exploring
  schedules, at the named ``interleave`` points near locks, 2PC rounds,
  ``migrate:*`` phases and failover promotion);
- crash injection per (request, crash point) via the same
  ``CrashOnce``/``CrashScript`` policies, namespaced across the two
  hosted platforms with :class:`~repro.platform.PrefixedPolicy`;
- seeded schedule exploration where every assertion failure carries a
  ``(seed, schedule-trace)`` pair that replays it deterministically
  (``DST-REPLAY seed=... trace=...`` — see docs/testing.md).

Two runtimes share one kernel and one store: the apps' SSF names collide
("frontend", "user", ...), so the movie app lives on its own
``ServerlessPlatform`` and its envs are namespaced with
``env_prefix="mv."`` on the shared store. Crash points recorded from the
movie platform are prefixed ``movie:`` so the combined crash space stays
unambiguous.
"""

from __future__ import annotations

import json
import os
import pickle
import select
import signal
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

import history
from repro.apps.movie import MovieReviewApp
from repro.apps.travel import TravelReservationApp
from repro.core import BeldiConfig, BeldiRuntime
from repro.core import daal, intents, ops
from repro.core.gc import make_garbage_collector
from repro.core.errors import DeadlineExceeded
from repro.kvstore import AttrNotExists, ConditionFailed, FaultTimeline, Set
from repro.kvstore.errors import ThrottledError, UnavailableError
from repro.platform import CrashPolicy, PrefixedPolicy, RecordingPolicy
from repro.platform.errors import FunctionCrashed, TooManyRequests
from repro.sim import RandomSchedule, SimKernel
from repro.sim.schedule import format_failure

SEED = 11
MOVIE_SEED_OFFSET = 1
GC_T = 400.0
RECOVERY_SLICE = 500.0
RECOVERY_HORIZON = 60_000.0
MOVIE_PREFIX = "movie:"

# The deepest topology (mirrors the single-request elastic sweep):
# 2 shards, 3 replicas per shard, leader crashes on store ops, hot-shard
# elasticity with hair-trigger thresholds, on the ``current`` profile.
DEEP_FLAGS = dict(elastic_check_every=2, elastic_min_window=8,
                  elastic_load_ratio=1.01, elastic_max_moves=4,
                  elastic_tolerance=0.0,
                  shards=2, replicas=3, leader_crash=0.02,
                  read_consistency="eventual", observability=True)

# Exploration topology: same sharding + elasticity (the conflict sites we
# perturb), but single replicas and no injected leader crashes so one run
# is cheap enough to afford hundreds of schedules per CI job.
LIGHT_FLAGS = dict(elastic_check_every=2, elastic_min_window=8,
                   elastic_load_ratio=1.01, elastic_max_moves=4,
                   elastic_tolerance=0.0,
                   shards=2, observability=True)


@dataclass
class Request:
    """One client request in the concurrent mix."""

    name: str
    runtime_key: str  # "travel" | "movie"
    entry: str
    payload: dict
    #: Client-chosen instance id (an idempotency key); ``None`` leaves
    #: it to the platform's request id, drawn from the seed.
    instance_id: Optional[str] = None


# Conflicting by construction: both reservations hit hotel-0000 and
# flight-0001 (which land on different shards — pinned by the sweep
# test), so their wait-die transactions contend on the same lock rows
# while the movie workflow keeps unrelated traffic in flight.
REQUESTS = [
    Request("travel-a", "travel", "frontend",
            {"action": "reserve", "user": "user-0000",
             "hotel": "hotel-0000", "flight": "flight-0001"}),
    Request("travel-b", "travel", "frontend",
            {"action": "reserve", "user": "user-0001",
             "hotel": "hotel-0000", "flight": "flight-0001"}),
    Request("movie-c", "movie", "frontend",
            {"action": "compose", "username": "user-0000",
             "title": "Title 0", "text": "great movie  indeed",
             "rating": 8}),
]

# On a zero-latency store both reservations' wait-die timestamps tie and
# the conflict resolves on the transaction ids, which derive from the
# root instance ids: with the ids ``SEED`` draws for ``REQUESTS`` the
# first lock holder is the *younger* transaction and the second waits it
# out (both commit). Arrival offsets cannot change that — at zero
# latency an earlier request is done before a later one starts — so the
# regime where the second *dies* (one commit, abort path run) names its
# clients: these two ids rank the first holder older. Pinned per regime
# by ``test_concurrent_sweep.py::test_concurrent_mix_actually_conflicts``.
CONTENDED_REQUESTS = [
    replace(REQUESTS[0], instance_id="client-a"),
    replace(REQUESTS[1], instance_id="client-b"),
    REQUESTS[2],
]


def failure_line(exc: BaseException) -> str:
    """One line that names a failure for a sweep's report: the first
    line of its message or, for an assert that carries none, the source
    line that raised it."""
    message = str(exc).strip()
    if message:
        return message.splitlines()[0]
    frames = traceback.extract_tb(exc.__traceback__)
    if not frames:
        return type(exc).__name__
    frame = frames[-1]
    return (f"{os.path.basename(frame.filename)}:{frame.lineno}: "
            f"{frame.line}")


class ScheduleFailure(AssertionError):
    """An invariant broke under an explored schedule; carries the
    ``(seed, trace)`` pair that replays it deterministically, and the
    failure artifact of the run (see :func:`explore`)."""

    def __init__(self, seed: int, trace: list, original: BaseException,
                 artifact: Optional[dict] = None):
        self.seed = seed
        self.trace = list(trace)
        self.original = original
        self.artifact = artifact
        super().__init__(
            f"{original}\nreplay with: {format_failure(seed, self.trace)}")

    def __reduce__(self):
        # Raised in a forked worker, re-raised here (map_forked).
        return (ScheduleFailure,
                (self.seed, self.trace, self.original, self.artifact))


#: The least a :func:`map_forked` parent waits for its child's half
#: after finishing its own (it waits three times its own half's time
#: when that is longer).
FORK_WAIT_S = 300.0


def map_forked(fn: Callable[[Any], Any], items,
               wait_s: float = FORK_WAIT_S) -> list:
    """``[fn(item) for item in items]``, run by this process and one
    forked child, each taking every other item in order.

    For sweeps over independent runs: each item builds its own kernel
    and runtimes, and every draw is seeded, so where an item runs
    changes nothing it computes — with a second CPU the two halves of a
    CPU-bound sweep take half the wall time. The first exception in item
    order is re-raised, as the plain loop would raise it (results and
    exceptions cross the pipe pickled; a failure's traceback comes as a
    note, or as the cause where exceptions take no notes). A child that
    has not answered by the deadline (``wait_s``) is killed and its
    items are named in a ``RuntimeError``. Without ``os.fork`` or with
    fewer than two items it is the plain loop.
    """
    items = list(items)
    if len(items) < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: the odd items; it never returns
        try:
            os.close(read_fd)
            try:
                data = pickle.dumps(_run_share(fn, items, 1))
            except BaseException:  # noqa: BLE001 - reported, not hidden
                data = pickle.dumps(([], 1, RuntimeError(
                    "a forked sweep worker failed:\n"
                    + traceback.format_exc()), ""))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        started = time.monotonic()
        evens = _run_share(fn, items, 0)
        data = _read_by(read_fd, time.monotonic() + max(
            wait_s, 3 * (time.monotonic() - started)))
        if data is None:
            raise RuntimeError(
                f"a forked sweep worker gave no answer in time; it held "
                f"items {items[1::2]!r}")
    except BaseException:
        # Interrupted or out of time here: do not wait out the child.
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        os.close(read_fd)
    os.waitpid(pid, 0)
    odds = (pickle.loads(data) if data else
            ([], 1, RuntimeError("a forked worker died"), ""))
    failed = [share for share in (evens, odds) if share[2] is not None]
    if failed:
        _results, _index, exc, note = min(failed, key=lambda sh: sh[1])
        if not note:
            raise exc
        if hasattr(exc, "add_note"):  # Python >= 3.11
            exc.add_note(note)
            raise exc
        raise exc from RuntimeError(note)
    results: list = [None] * len(items)
    results[0::2] = evens[0]
    results[1::2] = odds[0]
    return results


def _read_by(fd: int, deadline: float) -> Optional[bytes]:
    """Everything written to the pipe ``fd`` until its writer closes it,
    or ``None`` if that has not happened by ``deadline`` (monotonic)."""
    chunks = []
    while True:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _run_share(fn, items: list, start: int) -> tuple:
    """``(results, index, exception, traceback text)`` of ``fn`` over
    ``items[start::2]``, stopping at the first exception (index and
    exception are ``None`` when there was none)."""
    results = []
    for index in range(start, len(items), 2):
        try:
            results.append(fn(items[index]))
        except Exception as exc:  # noqa: BLE001 - re-raised by the caller
            return (results, index, exc,
                    "in a forked sweep worker:\n" + traceback.format_exc()
                    if start else "")
    return results, None, None, ""


@dataclass
class Harness:
    """Two runtimes (travel + movie) sharing one kernel and one store."""

    kernel: SimKernel
    travel: BeldiRuntime
    movie: BeldiRuntime
    travel_app: TravelReservationApp
    movie_app: MovieReviewApp
    results: dict = field(default_factory=dict)

    @property
    def runtimes(self) -> dict:
        return {"travel": self.travel, "movie": self.movie}

    @property
    def injected_crashes(self) -> int:
        return (self.travel.platform.stats.injected_crashes
                + self.movie.platform.stats.injected_crashes)

    def set_crash_policy(self, policy: CrashPolicy) -> None:
        """Install one policy across both platforms; points reaching it
        from the movie platform carry the ``movie:`` function prefix."""
        self.travel.platform.crash_policy = policy
        self.movie.platform.crash_policy = PrefixedPolicy(
            policy, MOVIE_PREFIX)

    def shutdown(self) -> None:
        self.kernel.shutdown()


def build_harness(flags: dict, schedule=None,
                  seed: int = SEED) -> Harness:
    flags = dict(flags)
    shards = flags.pop("shards", 1)
    replicas = flags.pop("replicas", 1)
    leader_crash = flags.pop("leader_crash", 0.0)
    # Nemesis windows join the travel runtime's timeline, which the
    # movie runtime shares with its store — both apps ride them out.
    timeline = flags.pop("timeline", None)
    observability = flags.pop("observability", False)
    kernel = SimKernel(seed=seed, schedule=schedule)
    config = BeldiConfig(ic_restart_delay=200.0, gc_t=GC_T,
                         lock_retry_backoff=5.0, lock_retry_limit=500,
                         **flags)
    travel = BeldiRuntime(kernel=kernel, seed=seed, config=config,
                          shards=shards, replicas=replicas,
                          latency_scale=0.0, observability=observability)
    if leader_crash:
        travel.fault_timeline.leader_crash(rate=leader_crash)
    # The movie runtime rides on the travel runtime's store (whose one
    # elasticity controller is travel's); its envs are namespaced so
    # same-named envs do not adopt each other's tables.
    movie = BeldiRuntime(kernel=kernel, seed=seed + MOVIE_SEED_OFFSET,
                         config=config, store=travel.store,
                         latency_scale=0.0, env_prefix="mv.",
                         observability=observability)
    travel_app = TravelReservationApp(seed=seed, n_hotels=2, n_flights=2,
                                      rooms_per_hotel=2,
                                      seats_per_flight=2, n_users=2)
    travel_app.register(travel)
    travel_app.seed_data(travel)
    movie_app = MovieReviewApp(seed=seed, n_movies=2, n_users=1)
    movie_app.register(movie)
    movie_app.seed_data(movie)
    if timeline is not None:
        # Added *after* seeding (operator setup precedes the incident),
        # so windows may start at t=0 and still let the fixtures land.
        travel.fault_timeline.add(*timeline.windows)
    return Harness(kernel=kernel, travel=travel, movie=movie,
                   travel_app=travel_app, movie_app=movie_app)


# ---------------------------------------------------------------------------
# Driving
# ---------------------------------------------------------------------------

def run_requests(h: Harness, requests=REQUESTS,
                 horizon: float = RECOVERY_HORIZON) -> dict:
    """Issue every request concurrently; drive until all clients have a
    result and no intent is pending anywhere — with the lifecycle orders
    and both isolation checkers run over the history of a traced run.
    Returns name -> result."""
    results: dict = {}

    def client(req: Request) -> None:
        runtime = h.runtimes[req.runtime_key]
        call = {"kind": "call", "input": dict(req.payload)}
        if req.instance_id is not None:
            call["instance_id"] = req.instance_id
        try:
            results[req.name] = runtime.platform.client_request(req.entry,
                                                                call)
        except (FunctionCrashed, TooManyRequests, ThrottledError,
                UnavailableError, DeadlineExceeded):
            # Injected-environment errors surface here when the
            # resilience layer exhausts its budget mid-incident, or
            # raw from an overlap-scope fan-out (scope bodies are
            # atomic in virtual time — nowhere to sleep a backoff).
            # Either way the *client* sees a clean abort and the
            # pending intent is the collector's to finish —
            # check_effects still demands exactly-once.
            results[req.name] = "crashed"

    for runtime in h.runtimes.values():
        runtime.start_collectors(ic_period=100.0, gc_period=1e12)
    for req in requests:
        h.kernel.spawn(client, req, name=f"client-{req.name}")
    elapsed = 0.0
    while elapsed < horizon:
        elapsed += RECOVERY_SLICE
        h.kernel.run(until=elapsed)
        if len(results) < len(requests):
            continue
        try:
            if all(not intents.pending_intents(env)
                   for runtime in h.runtimes.values()
                   for env in runtime.envs.values()):
                break
        except (ThrottledError, UnavailableError):
            # The store is dark at this poll instant — the intents
            # can't be inspected, so by definition they aren't done.
            # Keep driving; the post-heal poll settles it.
            continue
    for runtime in h.runtimes.values():
        runtime.stop_collectors()
    h.kernel.run(until=elapsed + RECOVERY_SLICE)
    # A chain migration can outlive the requests (riding out a
    # leader election, say). The checks below read the store from
    # outside the kernel, where a token still latched by a frozen
    # migration would be waited on forever: let it finish.
    while getattr(h.travel.store, "_latched", None):
        elapsed += RECOVERY_SLICE
        h.kernel.run(until=elapsed + RECOVERY_SLICE)
    assert len(results) == len(requests), (
        f"clients never completed: have {sorted(results)}")
    for runtime in h.runtimes.values():
        assert all(not intents.pending_intents(env)
                   for env in runtime.envs.values()), (
            "unfinished intents survived recovery")
    # Orders and isolation no final store shows (flush < reply, callback
    # < Done, linearizable keys, serializable transactions), read off the
    # run's trace; a dark run (the dark-parity tests, the kernel goldens)
    # recorded none and is checked as its traced twin.
    if h.travel.obs is not None:
        history.check(h.travel.obs.tracer.records)
    h.results = results
    return results


def gc_pass(runtime: BeldiRuntime, *envs) -> list:
    """One GC pass over each of ``envs`` (default: every env of
    ``runtime``), run inline — call it from a kernel process. Returns
    each pass's stats. The collector reads nothing of its invocation
    context, so none is faked."""
    return [make_garbage_collector(runtime, env)(None, {})
            for env in envs or runtime.envs.values()]


def run_gc_passes(*runtimes: BeldiRuntime, passes: int = 3) -> None:
    """Advance past the GC horizon and collect everything in
    ``runtimes`` (one kernel), repeatedly (stamp -> recycle/disconnect
    -> delete needs T between passes)."""
    kernel = runtimes[0].kernel
    for _ in range(passes):
        kernel.spawn(lambda: kernel.sleep(GC_T + 50.0))
        kernel.run()

        def one_round():
            for runtime in runtimes:
                gc_pass(runtime)

        kernel.spawn(one_round)
        kernel.run()


def run_gc_now(runtime, env, times=1):
    """Invoke the env's GC directly (no timers) from a client process."""
    results = []

    def client():
        for _ in range(times):
            results.extend(gc_pass(runtime, env))

    runtime.kernel.spawn(client)
    runtime.kernel.run()
    return results


def advance(runtime, ms):
    runtime.kernel.spawn(lambda: runtime.kernel.sleep(ms))
    runtime.kernel.run()


# ---------------------------------------------------------------------------
# Protocol mutations the lifecycle checker must catch
# ---------------------------------------------------------------------------

DELIVER = BeldiRuntime._deliver


def done_then_deliver(runtime, platform_ctx, reply, caller, callee_id,
                      result):
    """``BeldiRuntime._deliver`` with ``mark_done`` moved ahead of it:
    a ``Done`` callee may be collected before its caller holds the
    result (§4.5). The moved statement takes the event that says it
    along."""
    intents.mark_done(runtime.ssfs[platform_ctx.function].env, callee_id,
                      result)
    platform_ctx.lifecycle("done", instance=callee_id)
    DELIVER(runtime, platform_ctx, reply, caller, callee_id, result)


def await_then_claim(platform, name, payload, meanwhile=None):
    """``ServerlessPlatform.sync_invoke`` that runs ``meanwhile`` — a
    pipelined open's claim — only after the reply was consumed."""
    entry = platform._entry(name)
    platform._acquire_slot_with_retry()
    proc, ctx = platform._start_instance(entry, payload)
    result = platform._await_result(proc, ctx)
    if meanwhile is not None:
        meanwhile()
    return result


FLUSH_READ_LOG = ops.flush_read_log


def flush_without_rollback(ctx) -> None:
    """``ops.flush_read_log`` without its ``raise ReadLogLost()``: an
    execution whose flush lost to a duplicate that logged other values
    goes on as if it had landed — to reply, call back and finish with
    values no log holds."""
    try:
        FLUSH_READ_LOG(ctx)
    except ops.ReadLogLost:
        ctx.lifecycle("flush")


def flush_after_release(store, table, key, value, txn_id, cache=None):
    """``daal.flush_value`` with its one update split in two, the lock
    released first: another transaction may read the item between."""
    if not daal.release_lock(store, table, key, txn_id, cache=cache):
        return False
    while True:
        row = daal.tail_row(store, table, key, None)
        try:
            row = store.update(table, (key, row["RowId"]),
                               [Set("Value", value), daal.bump_version()],
                               condition=AttrNotExists("NextRow"),
                               return_new=True)
        except ConditionFailed:
            continue
        store.obs.tracer.event("txn:flush", cat="txn", table=table,
                               key=key, txn=txn_id,
                               version=[row["RowId"], row["Version"]])
        return True


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def check_effects(h: Harness) -> None:
    """Exactly-once + atomicity across the whole concurrent mix."""
    results = h.results
    store = h.travel.store
    # Travel: each committed reservation moves one room, one seat and
    # one booking record together. Two requests contend on the same
    # keys; capacity admits both, wait-die may abort one (ok=False).
    rooms, seats = h.travel_app.capacity_remaining()
    rooms_used = 2 * 2 - rooms
    seats_used = 2 * 2 - seats
    env = h.travel_app.envs["reserve"]
    bookings = len(daal.all_keys(store, env.data_table("bookings")))
    assert rooms_used == seats_used == bookings, (
        f"partial reservation: rooms={rooms_used} seats={seats_used} "
        f"bookings={bookings}")
    travel_ok = sum(
        1 for name in ("travel-a", "travel-b")
        if isinstance(results.get(name), dict)
        and results[name].get("ok"))
    assert travel_ok <= bookings <= 2, (
        f"{travel_ok} confirmed clients but {bookings} bookings")
    # Movie: the review lands exactly once, with both indexes in step.
    storage_env = h.movie_app.envs["review_storage"]
    review_ids = daal.all_keys(store,
                               storage_env.data_table("reviews"))
    by_user = h.movie_app.envs["user_review"].peek("by_user",
                                                   "uid-0000") or []
    by_movie = h.movie_app.envs["movie_review"].peek("by_movie",
                                                     "movie-0000") or []
    assert len(review_ids) in (0, 1), f"duplicated review: {review_ids}"
    assert len(by_user) == len(set(by_user)) == len(review_ids), (
        f"user index {by_user} out of step with reviews {review_ids}")
    assert len(by_movie) == len(set(by_movie)) == len(review_ids), (
        f"movie index {by_movie} out of step with reviews {review_ids}")
    movie_result = results.get("movie-c")
    if isinstance(movie_result, dict) and movie_result.get("ok"):
        assert len(review_ids) == 1, (
            f"client told {movie_result} but reviews are {review_ids}")


def assert_store_clean(store, runtimes) -> None:
    """No residue anywhere in ``store``, over every env of ``runtimes``:
    logs, intents, locksets, shadows, locks — plus settled migrations
    and zero placement residue when elastic. The one statement of the
    invariant; every sweep imports it."""
    runtimes = list(runtimes)
    if any(runtime.elasticity is not None for runtime in runtimes):
        from repro.kvstore.rebalance import (MIGRATIONS_TABLE,
                                             placement_residue)
        for record in store.scan(MIGRATIONS_TABLE).items:
            assert record["Phase"] == "done", (
                f"migration record left mid-phase: {record}")
        residue = placement_residue(store)
        assert residue == [], f"placement residue: {residue}"
    for runtime in runtimes:
        for env in runtime.envs.values():
            assert store.item_count(env.intent_table) == 0, (
                f"{env.name}: {store.item_count(env.intent_table)} rows left "
                f"in {env.intent_table}")
            assert store.item_count(env.read_log) == 0, (
                f"{env.name}: {store.item_count(env.read_log)} rows left "
                f"in {env.read_log}")
            assert store.item_count(env.invoke_log) == 0, (
                f"{env.name}: {store.item_count(env.invoke_log)} rows left "
                f"in {env.invoke_log}")
            assert store.item_count(env.lockset_table) == 0, (
                f"{env.name}: {store.item_count(env.lockset_table)} rows left "
                f"in {env.lockset_table}")
            for short in env.table_names():
                table = env.data_table(short)
                assert store.item_count(env.shadow_table(short)) == 0, (
                    f"{table} shadow not collected")
                for key in daal.all_keys(store, table):
                    for row in store.query(table, key).items:
                        assert "LockOwner" not in row, (
                            f"leaked lock on {table}:{key}")
                        assert not row.get("RecentWrites"), (
                            f"leaked log entries on {table}:{key}")


def final_state(h: Harness) -> list:
    """Deterministic digest of every env table's full contents (used by
    the bit-identical determinism and replay assertions)."""
    store = h.travel.store
    state = []
    for rt_name in sorted(h.runtimes):
        runtime = h.runtimes[rt_name]
        for env_name in sorted(runtime.envs):
            env = runtime.envs[env_name]
            for short in env.table_names():
                table = env.data_table(short)
                for key in sorted(daal.all_keys(store, table), key=repr):
                    rows = store.query(table, key).items
                    state.append((table, repr(key), sorted(
                        repr(sorted(row.items(), key=lambda kv: kv[0]))
                        for row in rows)))
    return state


# ---------------------------------------------------------------------------
# Fault timelines (the nemesis sweep's, and the trace tests' outage)
# ---------------------------------------------------------------------------

# Retry/breaker knobs matched to the incident scale of the DST mix
# (tens-to-hundreds of virtual ms): enough budget to ride out the
# survivable windows, cooldowns short enough to re-probe before the
# retry budget drains against fast-fails.
TUNED = dict(retry_max_attempts=10, breaker_cooldown=60.0)


def scenario_flags(base, timeline, **extra):
    flags = dict(base, timeline=timeline, **TUNED)
    flags.update(extra)
    return flags


DEEP_SCENARIOS = {
    "leader-outage": FaultTimeline().outage(0.0, 100.0, shards=0,
                                            role="leader"),
    "partition": FaultTimeline().partition(0.0, 300.0, shards=0),
}


# ---------------------------------------------------------------------------
# Single-request crash sweeps (``test_crashpoint_sweep``; the trace tests
# re-run one of its points)
# ---------------------------------------------------------------------------

SWEEP_SEED = 5
SWEEP_RECOVERY_HORIZON = 40_000.0

# ``shards``/``replicas``/``leader_crash``/``latency_scale`` are runtime
# knobs, not BeldiConfig fields. The sharded sweep proves the commit
# protocol's shadow writes stay atomic when they span shard boundaries;
# the replicated sweep additionally crashes shard *leaders* out from
# under the workflow (a ``leader_crash`` window over every leader-routed
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
SWEEP_SETTINGS = {
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


def sweep_runtime(flags: dict) -> BeldiRuntime:
    flags = dict(flags)
    shards = flags.pop("shards", 1)
    replicas = flags.pop("replicas", 1)
    leader_crash = flags.pop("leader_crash", 0.0)
    latency_scale = flags.pop("latency_scale", 0.0)
    config = BeldiConfig(ic_restart_delay=200.0, gc_t=GC_T,
                         lock_retry_backoff=5.0, lock_retry_limit=500,
                         **flags)
    runtime = BeldiRuntime(seed=SWEEP_SEED, config=config, shards=shards,
                           replicas=replicas, latency_scale=latency_scale,
                           observability=True)
    if leader_crash:
        runtime.fault_timeline.leader_crash(rate=leader_crash)
    return runtime


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
    # ``test_crashpoint_sweep.py::test_sharded_sweep_actually_crosses_shards``.
    payload = {"action": "reserve", "user": "user-0000",
               "hotel": "hotel-0000", "flight": "flight-0001"}

    def build(self, flags: dict):
        runtime = sweep_runtime(flags)
        app = TravelReservationApp(seed=SWEEP_SEED, n_hotels=2, n_flights=2,
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


def record_crash_space(scenario, flags: dict):
    """Crash-free run under a recording policy -> the full crash space,
    the run's result and the configuration every swept run shares."""
    runtime, app = scenario.build(flags)
    recording = RecordingPolicy()
    runtime.platform.crash_policy = recording
    result = runtime.run_workflow(scenario.entry, dict(scenario.payload))
    runtime.kernel.shutdown()
    points = recording.unique_points()
    assert len(points) > 40, "suspiciously small crash space"
    return points, result, runtime.config


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
    deadline = SWEEP_RECOVERY_HORIZON
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


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

def run_one(flags: dict, schedule=None,
            crash_policy: Optional[CrashPolicy] = None,
            capture_trace: bool = False) -> Harness:
    """One full concurrent run: requests, effects, GC, clean store.

    Returns the (shut-down) harness for further inspection; raises
    AssertionError when any invariant breaks.
    """
    h = build_harness(flags, schedule=schedule)
    if capture_trace:
        h.kernel.capture_trace = True
    try:
        if crash_policy is not None:
            h.set_crash_policy(crash_policy)
        run_requests(h)
        check_effects(h)
        run_gc_passes(*h.runtimes.values())
        assert_store_clean(h.travel.store, h.runtimes.values())
    finally:
        h.shutdown()
    return h


def explore(seeds, flags: dict = LIGHT_FLAGS,
            schedule_factory: Callable[[int], Any] = RandomSchedule,
            crash_policy_factory: Optional[
                Callable[[int], CrashPolicy]] = None) -> set:
    """Run the concurrent mix once per seed under fresh schedules.

    Returns the set of distinct schedule traces covered. On any
    invariant failure raises :class:`ScheduleFailure` whose message
    contains the replayable ``DST-REPLAY seed=... trace=...`` line (and,
    when ``$DST_FAILURE_FILE`` is set, writes the pair there as JSON for
    CI artifact upload). The seeds are independent runs, shared by two
    processes (:func:`map_forked`); the first failing seed is reported.
    """
    def run(seed: int) -> tuple:
        schedule = schedule_factory(seed)
        h = build_harness(flags, schedule=schedule)
        try:
            if crash_policy_factory is not None:
                h.set_crash_policy(crash_policy_factory(seed))
            run_requests(h)
            check_effects(h)
            run_gc_passes(*h.runtimes.values())
            assert_store_clean(h.travel.store, h.runtimes.values())
            return tuple(h.kernel.schedule_trace)
        except AssertionError as exc:
            trace = list(h.kernel.schedule_trace)
            raise ScheduleFailure(
                seed, trace, exc,
                _failure_artifact(seed, trace, exc, h)) from exc
        finally:
            h.shutdown()

    try:
        return set(map_forked(run, seeds))
    except ScheduleFailure as failure:
        # Written here, for the first failing seed only.
        _dump_artifact(failure.artifact)
        raise


def _write_failure_artifact(seed: int, trace: list,
                            exc: BaseException,
                            h: Optional[Harness] = None) -> None:
    _dump_artifact(_failure_artifact(seed, trace, exc, h))


def _failure_artifact(seed: int, trace: list, exc: BaseException,
                      h: Optional[Harness] = None) -> Optional[dict]:
    """The failing run's artifact, when ``$DST_FAILURE_FILE`` asks for
    one."""
    if not os.environ.get("DST_FAILURE_FILE"):
        return None
    artifact = {"seed": seed, "trace": trace,
                "replay": format_failure(seed, trace),
                "error": str(exc)}
    if h is not None and h.travel.fault_timeline:
        artifact["fault_timeline"] = h.travel.fault_timeline.describe()
    if isinstance(exc, history.HistoryViolation):
        # The checker's smallest witness: the ops of the cycle, or the
        # item's ops around the read that is not linearizable.
        artifact["history"] = exc.witness
    obs = h.travel.obs if h is not None else None
    if obs is not None:
        # The failing run's trace rows and metrics snapshot, so the
        # artifact alone explains *what the system was doing* when the
        # invariant broke: ``python -m repro.obs.report incident`` reads
        # it, ``report chrome`` renders it for Perfetto.
        artifact.update(obs.export(h.travel))
    return artifact


def _dump_artifact(artifact: Optional[dict]) -> None:
    path = os.environ.get("DST_FAILURE_FILE")
    if not path or artifact is None:
        return
    try:
        with open(path, "w") as fh:
            json.dump(artifact, fh, indent=2)
    except (OSError, TypeError, ValueError):
        pass  # never mask the real failure with an artifact-write error
