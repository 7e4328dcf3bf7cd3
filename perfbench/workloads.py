"""The four workloads: inputs, runtimes, drivers, books, metrics, checks.

Every input (arrival times, keys, request mix) is generated here from
``--seed``; the program under test only ever sees arrivals and payloads.
Every ``BeldiConfig`` *flag* stays at its default — the numeric knobs a
workload sets (collector periods, detector thresholds, retry schedule)
are the ones the issue names. All virtual durations scale by one common
factor (``scale``; 1.0 is the full-size run of perfbench/README.md).
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.apps import build_app
from repro.bench.reporting import load_imbalance, per_shard_rows
from repro.core import BeldiConfig, BeldiRuntime, daal
from repro.core import collector as collector_mod
from repro.core import gc as gc_mod
from repro.kvstore import FaultTimeline
from repro.kvstore.rebalance import placement_residue
from repro.platform import PlatformConfig, ProbabilisticCrash
from repro.sim.randsrc import RandomSource
# Called through the module so the traced pass can wrap run_open_loop.
from repro.workload import openloop

WARMUP_MS = 1_000.0
N_KEYS = 256
#: p99 limit that defines the knee of the rate ladder (virtual ms).
SLO_P99_MS = 250.0

LADDER_RPS = (50.0, 100.0, 150.0, 175.0, 200.0, 250.0)
REF_RPS = 150.0
LADDER_RUNG_MS = 40_000.0

TRAVEL_RPS = 30.0
TRAVEL_MS = 240_000.0

HOTKEY_USERS = 24
HOTKEY_REQUESTS = 1_000
HOTKEY_ZIPF_S = 1.1
HOTKEY_GC_PERIOD_MS = 600.0

FAULTS_RPS = 100.0
FAULTS_CYCLE_MS = 60_000.0
FAULTS_CYCLES = 4
FAULTS_OUTAGE_AT_MS = 10_000.0
FAULTS_OUTAGE_MS = 8_000.0
FAULTS_GRAY_AT_MS = 35_000.0
FAULTS_GRAY_MS = 20_000.0
FAULTS_GRAY_FACTOR = 5.0
FAULTS_POST_HEAL_MS = 12_500.0
FAULTS_CRASH_P = 0.001
#: Outcomes the fault workload scripts; anything else is a bug.
FAULT_OUTCOMES = frozenset({
    "crashed", "timeout", "rejected", "error:UnavailableError",
    "error:ThrottledError", "error:DeadlineExceeded"})

READ_OPS = ("read", "batch_get", "query", "scan", "query_index")


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class StageResult:
    """What one driven stage (one fresh runtime) produced."""

    #: Virtual latency per request index; ``None`` = warm-up or not ok.
    latencies: list
    #: Arrival time per request relative to the recorded window (ms).
    starts: list
    #: Outcome label per request (``None`` for warm-up arrivals).
    outcomes: list
    #: Recorded window (open loop) or makespan (closed loop), virtual s.
    window_s: float
    offered_rps: float = 0.0
    shed: int = 0
    queue_depth_max: int = 0

    @property
    def recorded(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome is not None)

    @property
    def ok(self) -> list:
        return [lat for lat in self.latencies if lat is not None]


@dataclass
class Stage:
    """One fresh runtime plus the input it will be driven with."""

    label: str
    runtime: Any
    payloads: list
    drive: Callable[[], StageResult]
    #: Stages whose latencies feed the named end-to-end metrics (on the
    #: ladder only the ``ref_rps`` rung; other rungs feed the knee).
    reference: bool = True
    collector_books: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    result: Optional[StageResult] = None
    books: dict = field(default_factory=dict)


def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile (same rule as ``LatencyRecorder``)."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _rng(seed: int, *path: Any) -> random.Random:
    return random.Random("/".join(["perfbench", str(seed), *map(str, path)]))


def arrivals_at(rate_rps: float, edges: list, rng: random.Random) -> list:
    """Open-loop arrival times: a Poisson process conditioned on its
    counts. Every segment between consecutive ``edges`` (virtual ms)
    gets exactly ``rate x length`` arrivals, placed uniformly — locally
    as bursty as Poisson, but the offered load of the warm-up, of the
    recorded window and of every fault window no longer varies with the
    seed, so goodput and shares do not carry Poisson count noise."""
    out = []
    for lo, hi in zip(edges, edges[1:]):
        count = round(rate_rps * hi / 1000.0) - round(rate_rps * lo / 1000.0)
        out.extend(sorted(rng.uniform(lo, hi) for _ in range(count)))
    return out


def uniform_users(count: int, rng: random.Random) -> list:
    return [{"user": f"user-{rng.randrange(N_KEYS):04d}"}
            for _ in range(count)]


def zipf_wallets(count: int, s: float, rng: random.Random) -> list:
    cdf, acc = [], 0.0
    for rank in range(N_KEYS):
        acc += (rank + 1) ** -s
        cdf.append(acc)
    return [{"user": "wallet-%04d" % min(
        bisect.bisect_right(cdf, rng.random() * acc), N_KEYS - 1)}
        for _ in range(count)]


# ---------------------------------------------------------------------------
# SSFs and collectors
# ---------------------------------------------------------------------------

def install_profile(runtime: BeldiRuntime, started: set) -> None:
    """The 1-read + 1-write profile SSF over ``N_KEYS`` users.

    ``started`` collects the instance ids whose body ran at least once —
    exactly the instances that own an intent record, which is what the
    fault workload's recovery check counts against."""

    def profile(ctx, payload):
        started.add(ctx.instance_id)
        uid = payload["user"]
        record = ctx.read("profiles", uid) or {"visits": 0}
        record = {"visits": record["visits"] + 1}
        ctx.write("profiles", uid, record)
        return {"user": uid, "visits": record["visits"]}

    ssf = runtime.register_ssf("profile", profile, tables=["profiles"])
    for i in range(N_KEYS):
        ssf.env.seed("profiles", f"user-{i:04d}", {"visits": 0})


def install_wallet(runtime: BeldiRuntime) -> None:
    """The 5-op wallet handler (2 reads, 3 writes) on the key's chains."""

    def wallet(ctx, payload):
        uid = payload["user"]
        record = ctx.read("profiles", uid) or {"visits": 0}
        record = {"visits": record["visits"] + 1}
        ctx.write("profiles", uid, record)
        history = ctx.read("statements", uid) or {"entries": 0}
        ctx.write("statements", uid, {"entries": history["entries"] + 1})
        ctx.write("profiles", uid, dict(record, balanced=True))
        return {"user": uid, "visits": record["visits"]}

    ssf = runtime.register_ssf("wallet", wallet,
                               tables=["profiles", "statements"])
    for i in range(N_KEYS):
        ssf.env.seed("profiles", f"wallet-{i:04d}", {"visits": 0})


def start_collectors(runtime: BeldiRuntime, books: dict,
                     gc_period: float,
                     ic_period: Optional[float] = None) -> None:
    """Schedule GC (and IC) timers per env, keeping a book of what the
    handlers report — their return values are otherwise dropped by the
    platform timer. ``runtime.start_collectors`` cannot be used on the
    closed loop: it always starts both collectors."""
    books.update(gc_passes=0, rows_reclaimed=0, restarts=0)

    def booked_gc(handler):
        def run(platform_ctx, payload):
            stats = handler(platform_ctx, payload)
            books["gc_passes"] += 1
            books["rows_reclaimed"] += (
                stats["recycled_intents"] + stats["log_entries"]
                + stats["deleted_rows"] + stats["locksets"])
            return stats
        return run

    def booked_ic(handler):
        def run(platform_ctx, payload):
            report = handler(platform_ctx, payload)
            books["restarts"] += len(report["restarted"])
            return report
        return run

    platform = runtime.platform
    for env in runtime.envs.values():
        platform.register(f"{env.name}.gc", booked_gc(
            gc_mod.make_garbage_collector(runtime, env)))
        platform.add_timer(f"{env.name}.gc", gc_period)
        if ic_period is not None:
            platform.register(f"{env.name}.ic", booked_ic(
                collector_mod.make_intent_collector(runtime, env)))
            platform.add_timer(f"{env.name}.ic", ic_period)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def drive_open_loop(runtime: BeldiRuntime, entry: str, arrivals: list,
                    payloads: list, rate: float, duration_ms: float,
                    max_in_flight: int, max_queue: int) -> StageResult:
    config = openloop.OpenLoopConfig(
        max_in_flight=max_in_flight, policy="queue", max_queue=max_queue,
        warmup_ms=WARMUP_MS)
    result = openloop.run_open_loop(
        runtime, entry, lambda _rand, tag: payloads[tag],
        list(zip(arrivals, range(len(arrivals)))), config=config,
        offered_rps=rate, duration_ms=duration_ms)
    starts = [at - WARMUP_MS for at in arrivals]
    index_of = {start: i for i, start in enumerate(starts)}
    latencies = [None] * len(arrivals)
    outcomes = [None] * len(arrivals)
    for start, outcome, latency in result.recorder.events:
        i = index_of[start]
        outcomes[i] = outcome
        latencies[i] = latency
    return StageResult(latencies, starts, outcomes, duration_ms / 1000.0,
                       offered_rps=rate, shed=result.admission.shed,
                       queue_depth_max=result.admission.max_queue_depth)


def drive_closed_loop(runtime: BeldiRuntime, entry: str,
                      user_payloads: list) -> StageResult:
    """One client process per user, requests back to back; the last user
    to finish stops the collector timers so the kernel can drain.
    (``repro.workload.run_closed_loop`` never returns while a timer is
    armed, and does not say which request a latency belongs to.)"""
    kernel = runtime.kernel
    per_user = len(user_payloads[0])
    total = per_user * len(user_payloads)
    latencies = [None] * total
    starts = [0.0] * total
    outcomes = [None] * total
    state = {"users": len(user_payloads), "end": 0.0}

    def user(base: int, payloads: list) -> None:
        for offset, payload in enumerate(payloads):
            i = base + offset
            starts[i] = kernel.now
            try:
                runtime.client_call(entry, payload)
            except Exception as exc:  # noqa: BLE001 - becomes an outcome
                outcomes[i] = f"error:{type(exc).__name__}"
                continue
            outcomes[i] = "ok"
            latencies[i] = kernel.now - starts[i]
        state["end"] = max(state["end"], kernel.now)
        state["users"] -= 1
        if state["users"] == 0:
            runtime.stop_collectors()

    begin = kernel.now
    for index, payloads in enumerate(user_payloads):
        kernel.spawn(user, index * per_user, payloads, name="user")
    kernel.run()
    return StageResult(latencies, starts, outcomes,
                       (state["end"] - begin) / 1000.0)


# ---------------------------------------------------------------------------
# books: numbers read from the program's public counters after a stage
# ---------------------------------------------------------------------------

def _leaf_nodes(store) -> list:
    nodes = getattr(store, "nodes", None)
    if nodes is None:
        return [store]
    return [leaf for node in nodes for leaf in _leaf_nodes(node)]


def running_totals(runtime: BeldiRuntime) -> dict:
    """The store's additive books. Seeding already moved them (and left
    a backlog in the capacity queues at t=0), so a stage reports the
    difference across its drive."""
    store = runtime.store
    metering = store.metering
    ops = metering.ops
    queues = [leaf.queue for leaf in _leaf_nodes(store)
              if leaf.queue is not None]
    return {
        "round_trips": metering.op_count,
        "items": int(metering.total("items")),
        "read_units": metering.total("read_units"),
        "write_units": metering.total("write_units"),
        "read_round_trips": sum(ops[op].count for op in READ_OPS
                                if op in ops),
        "eventual_reads": int(metering.total("eventual_count")),
        "dollars": metering.dollar_cost(),
        "queue_waited_ms": sum(q.stats_waited for q in queues),
        "shard_requests": [row["requests"]
                           for row in per_shard_rows(store)],
    }


def read_books(stage: Stage, before: dict) -> dict:
    """Everything the metrics need from the program's public counters,
    read once the stage has been driven."""
    runtime = stage.runtime
    store = runtime.store
    books = {}
    for name, value in running_totals(runtime).items():
        if name == "shard_requests":
            books[name] = [now - then for now, then
                           in zip(value, before[name])]
        else:
            books[name] = value - before[name]
    books["shard_load_max_over_mean"] = load_imbalance(
        [{"requests": count} for count in books["shard_requests"]]
    )["max_mean"]
    books["residue"] = len(placement_residue(store))
    stats = runtime.platform.stats
    for name in ("invocations", "cold_starts", "rejected",
                 "peak_concurrency", "injected_crashes"):
        books[f"platform_{name}"] = getattr(stats, name)
    cache = runtime.tail_cache.stats
    books["tail_hits"] = cache.tail_hits
    books["tail_misses"] = cache.tail_misses
    replication = getattr(store, "replication_stats", None)
    books["shipped_records"] = replication.shipped if replication else 0
    books["failovers"] = replication.failovers if replication else 0
    elasticity = runtime.elasticity
    migration = elasticity.migrator.stats if elasticity else None
    books["migrations"] = migration.migrations if migration else 0
    books["rows_moved"] = migration.rows_moved if migration else 0
    books["migration_dollars"] = migration.dollars() if migration else 0.0
    resilience = runtime.resilience.snapshot()
    for name in ("retries", "backoff_ms", "fast_fails", "breaker_opens",
                 "degraded_reads", "deadline_aborts"):
        books[f"resilience_{name}"] = resilience[name]
    books.update(stage.collector_books)
    # Last: the chain walk itself issues metered queries.
    longest = 0
    for env in runtime.envs.values():
        for short in env.table_names():
            table = env.data_table(short)
            for key in daal.all_keys(store, table):
                longest = max(longest, daal.chain_length(store, table, key))
    books["chain_rows_max"] = longest
    return books


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def _profile_runtime(seed: int, observability: bool, config: BeldiConfig,
                     concurrency: int, **kwargs) -> BeldiRuntime:
    """4 shards x 2 replicas, 2 servers per node, elastic (the default)."""
    return BeldiRuntime(
        seed=seed, latency_scale=1.0, config=config,
        platform_config=PlatformConfig(concurrency_limit=concurrency),
        shards=4, shard_capacity=2, replicas=2,
        observability=observability, **kwargs)


def profile_ladder(seed: int, scale: float, subset: bool,
                   observability: bool) -> list:
    rung_ms = LADDER_RUNG_MS * scale
    stages = []
    for rate in LADDER_RPS:
        if subset and rate != REF_RPS:
            continue  # the traced pass replays the whole reference rung
        runtime = _profile_runtime(seed, observability, BeldiConfig(), 400)
        install_profile(runtime, set())
        arrivals = arrivals_at(rate, [0.0, WARMUP_MS, WARMUP_MS + rung_ms],
                               _rng(seed, "ladder", rate, "arrivals"))
        payloads = uniform_users(len(arrivals),
                                 _rng(seed, "ladder", rate, "keys"))
        stages.append(Stage(
            f"{rate:g}rps", runtime, payloads,
            lambda r=runtime, a=arrivals, p=payloads, rate=rate:
            drive_open_loop(r, "profile", a, p, rate, rung_ms, 64, 128),
            reference=rate == REF_RPS))
    return stages


def travel_mix(seed: int, scale: float, subset: bool,
               observability: bool) -> list:
    duration_ms = TRAVEL_MS * scale
    runtime = BeldiRuntime(
        seed=seed, latency_scale=1.0, config=BeldiConfig(),
        platform_config=PlatformConfig(concurrency_limit=400),
        observability=observability)
    app = build_app("travel", seed=seed)
    app.install(runtime)
    arrivals = arrivals_at(TRAVEL_RPS,
                           [0.0, WARMUP_MS, WARMUP_MS + duration_ms],
                           _rng(seed, "travel", "arrivals"))
    mix = RandomSource(seed, "perfbench/travel/mix")
    payloads = [app.sample_request(mix) for _ in arrivals]
    if subset:
        duration_ms /= 3.0
        arrivals = [at for at in arrivals if at < WARMUP_MS + duration_ms]
    return [Stage(
        "30rps", runtime, payloads,
        lambda: drive_open_loop(runtime, app.entry, arrivals, payloads,
                                TRAVEL_RPS, duration_ms, 256, 512),
        extra={"app": app})]


def hotkey_gc(seed: int, scale: float, subset: bool,
              observability: bool) -> list:
    requests = max(1, round(HOTKEY_REQUESTS * scale))
    runtime = BeldiRuntime(
        seed=seed, latency_scale=1.0,
        config=BeldiConfig(gc_t=1200.0, elastic_check_every=32,
                           elastic_min_window=400, elastic_load_ratio=1.4,
                           elastic_max_moves=16),
        platform_config=PlatformConfig(concurrency_limit=400),
        shards=4, shard_capacity=2, observability=observability)
    install_wallet(runtime)
    user_payloads = [
        zipf_wallets(requests, HOTKEY_ZIPF_S, _rng(seed, "hotkey", user))
        for user in range(HOTKEY_USERS)]
    if subset:
        user_payloads = [payloads[:max(1, requests // 3)]
                         for payloads in user_payloads]
    stage = Stage(
        f"{HOTKEY_USERS}users", runtime,
        [payload for payloads in user_payloads for payload in payloads],
        lambda: drive_closed_loop(runtime, "wallet", user_payloads))
    start_collectors(runtime, stage.collector_books, HOTKEY_GC_PERIOD_MS)
    return [stage]


def fault_windows(scale: float) -> dict:
    """Scripted incident, in recorded-window coordinates (virtual ms)."""
    cycle = FAULTS_CYCLE_MS * scale
    outages = [(k * cycle + FAULTS_OUTAGE_AT_MS * scale,
                k * cycle + (FAULTS_OUTAGE_AT_MS + FAULTS_OUTAGE_MS) * scale,
                k) for k in range(FAULTS_CYCLES)]
    return {
        "outages": outages,
        "gray": (FAULTS_GRAY_AT_MS * scale,
                 (FAULTS_GRAY_AT_MS + FAULTS_GRAY_MS) * scale, 1),
        "post_heal": [(end, end + FAULTS_POST_HEAL_MS * scale)
                      for _start, end, _shard in outages],
        "duration_ms": cycle * FAULTS_CYCLES,
    }


def profile_faults(seed: int, scale: float, subset: bool,
                   observability: bool) -> list:
    windows = fault_windows(scale)
    duration_ms = windows["duration_ms"]
    timeline = FaultTimeline()
    for start, end, shard in windows["outages"]:
        timeline.outage(WARMUP_MS + start, WARMUP_MS + end, shards=shard,
                        role="leader")
    start, end, shard = windows["gray"]
    timeline.gray(WARMUP_MS + start, WARMUP_MS + end,
                  multiplier=FAULTS_GRAY_FACTOR, shards=shard)
    runtime = _profile_runtime(
        seed, observability,
        BeldiConfig(gc_t=10_000.0, ic_restart_delay=2_000.0,
                    retry_max_attempts=12, retry_base_backoff=25.0,
                    breaker_cooldown=250.0),
        2_000, fault_timeline=timeline)
    started: set = set()
    install_profile(runtime, started)
    runtime.platform.crash_policy = ProbabilisticCrash.build(
        FAULTS_CRASH_P, RandomSource(seed, "perfbench/faults/crash"),
        functions=["profile"])
    edges = sorted({0.0, duration_ms, *(
        edge for lo, hi, *_ in windows["outages"] + windows["post_heal"]
        for edge in (lo, hi))})
    arrivals = arrivals_at(FAULTS_RPS,
                           [0.0] + [WARMUP_MS + edge for edge in edges],
                           _rng(seed, "faults", "arrivals"))
    payloads = uniform_users(len(arrivals), _rng(seed, "faults", "keys"))
    if subset:
        duration_ms /= 3.0
        arrivals = [at for at in arrivals if at < WARMUP_MS + duration_ms]
    stage = Stage(
        "100rps", runtime, payloads,
        lambda: drive_open_loop(runtime, "profile", arrivals, payloads,
                                FAULTS_RPS, duration_ms, 256, 512),
        extra={"started": started, "windows": windows})
    start_collectors(runtime, stage.collector_books, 5_000.0,
                     ic_period=1_000.0)
    return [stage]


WORKLOADS = {
    "profile-ladder": profile_ladder,
    "travel-mix": travel_mix,
    "hotkey-gc": hotkey_gc,
    "profile-faults": profile_faults,
}


# ---------------------------------------------------------------------------
# virtual-clock metrics and correctness checks
# ---------------------------------------------------------------------------

def rung_row(stage: Stage) -> dict:
    result = stage.result
    ok = result.ok
    return {
        "stage": stage.label,
        "offered_rps": result.offered_rps,
        "recorded": result.recorded,
        "ok": len(ok),
        "shed": result.shed,
        "goodput_rps": len(ok) / result.window_s,
        "p50_ms": percentile(ok, 50.0) if ok else None,
        "p99_ms": percentile(ok, 99.0) if ok else None,
    }


def knee_of(rows: list) -> float:
    """Highest offered rate that meets the SLO, read off the ladder.

    A rung passes with p99 within the limit, nothing shed and at least
    95% of its arrivals completed. The knee is the last rung of the
    passing prefix, moved toward the first failing rung by linear
    interpolation of p99 against rate — so a change that shifts the p99
    curve moves the knee continuously instead of by whole rungs."""
    def passes(row):
        return (row["p99_ms"] is not None and row["p99_ms"] <= SLO_P99_MS
                and row["shed"] == 0 and row["ok"] >= 0.95 * row["recorded"])

    knee = None
    for row in rows:
        if not passes(row):
            if knee is None:
                return 0.0
            if row["p99_ms"] is not None and row["p99_ms"] > SLO_P99_MS:
                share = ((SLO_P99_MS - knee["p99_ms"])
                         / (row["p99_ms"] - knee["p99_ms"]))
                return knee["offered_rps"] + share * (
                    row["offered_rps"] - knee["offered_rps"])
            break
        knee = row
    return knee["offered_rps"]


def virtual_metrics(name: str, stages: list) -> tuple:
    """``(metrics, detail)`` of the recorded window on the virtual clock."""
    rows = [rung_row(stage) for stage in stages]
    reference = next(stage for stage in stages if stage.reference)
    result = reference.result
    ok = result.ok
    recorded = result.recorded
    dollars = reference.books["dollars"]
    # Dollars cover the whole stage (warm-up, migration, GC traffic), so
    # the recorded ok count is scaled to the whole stage by arrivals.
    served = len(ok) * len(result.outcomes) / max(1, recorded)
    metrics = {
        "p50_ms": percentile(ok, 50.0),
        "p90_ms": percentile(ok, 90.0),
        "goodput_rps": len(ok) / result.window_s,
        "ok_share": len(ok) / recorded,
        "usd_per_1k_req": 1000.0 * dollars / served,
    }
    # The three workload-specific metrics fall back to their whole-window
    # counterpart where the workload has no ladder / no incident.
    metrics["knee_rps"] = (knee_of(rows) if name == "profile-ladder"
                           else metrics["goodput_rps"])
    metrics["incident_goodput_rps"] = metrics["goodput_rps"]
    metrics["post_heal_p50_ms"] = metrics["p50_ms"]
    detail = {"samples": len(ok), "recorded": recorded, "stages": rows,
              "p99_ms": percentile(ok, 99.0)}
    windows = reference.extra.get("windows")
    if windows is not None:
        def arrived_in(spans):
            return [lat for lat, start in zip(result.latencies, result.starts)
                    if lat is not None
                    and any(lo <= start < hi for lo, hi, *_ in spans)]

        horizon = result.window_s * 1000.0
        outages = [w for w in windows["outages"] if w[0] < horizon]
        during = arrived_in(outages)
        after = arrived_in([w for w in windows["post_heal"]
                            if w[0] < horizon])
        dark_s = sum(end - start for start, end, _ in outages) / 1000.0
        if during:
            metrics["incident_goodput_rps"] = len(during) / dark_s
        if after:
            metrics["post_heal_p50_ms"] = percentile(after, 50.0)
            detail["post_heal_p99_ms"] = percentile(after, 99.0)
        detail["incident_samples"] = len(during)
        detail["post_heal_samples"] = len(after)
    return metrics, detail


def check(name: str, stages: list) -> tuple:
    """``(unscripted_failures, problems)`` — both empty/zero when correct."""
    problems = []
    unscripted = 0
    for stage in stages:
        allowed = {"ok", "shed"}
        if name == "profile-faults":
            allowed |= FAULT_OUTCOMES
        bad = [o for o in stage.result.outcomes
               if o is not None and o not in allowed]
        unscripted += len(bad)
        if bad:
            problems.append(f"{stage.label}: {len(bad)} unscripted "
                            f"failures, e.g. {bad[0]}")
        if stage.books["residue"]:
            problems.append(f"{stage.label}: placement residue "
                            f"{stage.books['residue']}")
    stage = stages[-1]
    runtime = stage.runtime
    if name == "travel-mix":
        app = stage.extra["app"]
        rooms = [app.envs["reserve_hotel"].peek(
            "inventory", f"hotel-{i:04d}")["available"]
            for i in range(app.n_hotels)]
        seats = [app.envs["reserve_flight"].peek(
            "seats", f"flight-{i:04d}")["available"]
            for i in range(app.n_flights)]
        if min(rooms + seats) < 0:
            problems.append("negative inventory")
        booked_rooms = app.n_hotels * app.rooms_per_hotel - sum(rooms)
        booked_seats = app.n_flights * app.seats_per_flight - sum(seats)
        if booked_rooms != booked_seats:
            problems.append(f"atomicity: {booked_rooms} rooms vs "
                            f"{booked_seats} seats reserved")
    if name == "hotkey-gc":
        if len(stage.result.ok) != len(stage.result.outcomes):
            problems.append("closed loop lost requests")
    if name == "profile-faults":
        # Recovery: once the drain is over every instance that logged an
        # intent has finished (intents the GC recycled were done too),
        # and no arrival ever ran as two instances.
        env = runtime.envs["profile"]
        pending = [row for row in runtime.store.scan(env.intent_table).items
                   if not row.get("Done")]
        if pending:
            problems.append(f"{len(pending)} intents pending after drain")
        started = len(stage.extra["started"])
        if not len(stage.result.ok) <= started <= len(stage.result.outcomes):
            problems.append(f"{started} instances for "
                            f"{len(stage.result.outcomes)} arrivals")
    return unscripted, problems
