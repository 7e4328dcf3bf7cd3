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
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

import lifecycle
from repro.apps.movie import MovieReviewApp
from repro.apps.travel import TravelReservationApp
from repro.core import BeldiConfig, BeldiRuntime
from repro.core import daal, intents
from repro.core.gc import make_garbage_collector
from repro.core.errors import DeadlineExceeded
from repro.kvstore.errors import ThrottledError, UnavailableError
from repro.kvstore.faults import FaultPolicy
from repro.platform import CrashPolicy, PrefixedPolicy
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
    ``(seed, trace)`` pair that replays it deterministically."""

    def __init__(self, seed: int, trace: list, original: BaseException):
        self.seed = seed
        self.trace = list(trace)
        self.original = original
        super().__init__(
            f"{original}\nreplay with: {format_failure(seed, self.trace)}")


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
    read_consistency = flags.pop("read_consistency", None)
    # Nemesis timeline: installed once on the travel runtime's store,
    # which the movie runtime shares — both apps ride out the incident.
    timeline = flags.pop("timeline", None)
    kernel = SimKernel(seed=seed, schedule=schedule)
    config = BeldiConfig(ic_restart_delay=200.0, gc_t=GC_T,
                         lock_retry_backoff=5.0, lock_retry_limit=500,
                         **flags)
    store_faults = (FaultPolicy(leader_crash_probability=leader_crash)
                    if leader_crash else None)
    travel = BeldiRuntime(kernel=kernel, seed=seed, config=config,
                          shards=shards, replicas=replicas,
                          latency_scale=0.0,
                          read_consistency=read_consistency,
                          store_faults=store_faults)
    # The movie runtime rides on the travel runtime's store (whose one
    # elasticity controller is travel's); its envs are namespaced so
    # same-named envs do not adopt each other's tables.
    movie = BeldiRuntime(kernel=kernel, seed=seed + MOVIE_SEED_OFFSET,
                         config=config, store=travel.store,
                         latency_scale=0.0,
                         read_consistency=read_consistency,
                         env_prefix="mv.")
    travel_app = TravelReservationApp(seed=seed, n_hotels=2, n_flights=2,
                                      rooms_per_hotel=2,
                                      seats_per_flight=2, n_users=2)
    travel_app.register(travel)
    travel_app.seed_data(travel)
    movie_app = MovieReviewApp(seed=seed, n_movies=2, n_users=1)
    movie_app.register(movie)
    movie_app.seed_data(movie)
    if timeline is not None:
        # Installed *after* seeding (operator setup precedes the
        # incident), so windows may start at t=0 and still let the
        # fixtures land.
        BeldiRuntime._install_timeline(travel.store, timeline)
        travel.fault_timeline = timeline
        movie.fault_timeline = timeline
    return Harness(kernel=kernel, travel=travel, movie=movie,
                   travel_app=travel_app, movie_app=movie_app)


# ---------------------------------------------------------------------------
# Driving
# ---------------------------------------------------------------------------

def run_requests(h: Harness, requests=REQUESTS,
                 horizon: float = RECOVERY_HORIZON) -> dict:
    """Issue every request concurrently; drive until all clients have a
    result and no intent is pending anywhere — with the lifecycle orders
    checked over every execution of a traced run. Returns name ->
    result."""
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
    # Orders no final store shows (flush < reply, callback < Done, ...),
    # read off the run's trace; a dark run (the dark-parity tests, the
    # kernel goldens) recorded none and is checked as its traced twin.
    if h.travel.obs is not None:
        lifecycle.check(h.travel.obs.tracer.records)
    h.results = results
    return results


def run_gc_passes(h: Harness, passes: int = 3) -> None:
    """Advance past the GC horizon and collect everything, repeatedly
    (stamp -> recycle/disconnect -> delete needs T between passes)."""
    handlers = [make_garbage_collector(runtime, env)
                for runtime in h.runtimes.values()
                for env in runtime.envs.values()]

    class _Ctx:
        request_id = "dst-gc"
        invocation_index = 0

        def crash_point(self, tag):
            pass

    for _ in range(passes):
        h.kernel.spawn(lambda: h.kernel.sleep(GC_T + 50.0))
        h.kernel.run()

        def one_round():
            for handler in handlers:
                handler(_Ctx(), {})

        h.kernel.spawn(one_round)
        h.kernel.run()


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
        run_gc_passes(h)
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
    CI artifact upload).
    """
    traces: set = set()
    for seed in seeds:
        schedule = schedule_factory(seed)
        h = build_harness(flags, schedule=schedule)
        try:
            if crash_policy_factory is not None:
                h.set_crash_policy(crash_policy_factory(seed))
            run_requests(h)
            check_effects(h)
            run_gc_passes(h)
            assert_store_clean(h.travel.store, h.runtimes.values())
            traces.add(tuple(h.kernel.schedule_trace))
        except AssertionError as exc:
            trace = list(h.kernel.schedule_trace)
            _write_failure_artifact(seed, trace, exc, h)
            raise ScheduleFailure(seed, trace, exc) from exc
        finally:
            h.shutdown()
    return traces


def _write_failure_artifact(seed: int, trace: list,
                            exc: BaseException,
                            h: Optional[Harness] = None) -> None:
    path = os.environ.get("DST_FAILURE_FILE")
    if not path:
        return
    artifact = {"seed": seed, "trace": trace,
                "replay": format_failure(seed, trace),
                "error": str(exc)}
    timeline = (getattr(h.travel, "fault_timeline", None)
                if h is not None else None)
    if timeline is not None:
        artifact["fault_timeline"] = timeline.describe()
    obs = h.travel.obs if h is not None else None
    if obs is not None:
        # Attach the virtual-time trace and the unified metrics snapshot
        # of the failing run, so the artifact alone explains *what the
        # system was doing* when the invariant broke — load the
        # chrome_trace value into chrome://tracing / Perfetto.
        artifact["chrome_trace"] = obs.tracer.to_chrome()
        artifact["metrics"] = obs.snapshot(h.travel)
    try:
        with open(path, "w") as fh:
            json.dump(artifact, fh, indent=2)
    except (OSError, TypeError, ValueError):
        pass  # never mask the real failure with an artifact-write error
