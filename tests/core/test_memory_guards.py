"""Memory guards that count objects, not bytes.

The simulator's resident memory (perfbench's ``peak_rss_mb``) is a host
number: it moves with the interpreter, the allocator and the box. What
decides it is countable, and these tests bound the counts:

- the distinct container objects the store holds per request — a value
  the store keeps is frozen and shared by every row, replica and log
  entry that holds it (a read-log run, a callee's ``Ret``, the caller's
  invoke-log ``Result``), and a read hands out the stored value itself,
  so a workload's stored values are not copied once per row: a value a
  step reads is one object in the data row and in the read-log run;
  and values that separate requests compute alike are one object too
  (``item.freeze_value`` hands out one object per distinct value): two
  searches of one cell store one ``Ret``;
- the stored rows themselves — each is a record of its values over one
  names tuple per row shape (``item.FrozenRow``), never a ``dict``, so
  the travel app's thousands of rows hold a handful of names tuples;
- the kernel's queue — one execution-timeout watchdog arms one timer
  for the earliest live deadline, instead of one timer per invocation
  that outlives its worker by the whole timeout;
- and what the watchdog must not lose doing so: a timed-out worker dies
  at exactly its start plus its timeout.
"""

import pytest

from repro.apps import build_app
from repro.core import BeldiConfig, BeldiRuntime
from repro.kvstore import item as item_model
from repro.kvstore.item import FrozenMap, FrozenRow
from repro.kvstore.surface import leaves
from repro.platform import FunctionTimeout, PlatformConfig, ServerlessPlatform
from repro.sim import LatencyModel, RandomSource, SimKernel
from repro.workload.runner import run_closed_loop

USERS, PER_USER = 8, 25
#: Distinct containers the store may hold per travel request. One object
#: per distinct frozen value measures 6.6 here; frozen, shared values
#: that reads hand out by reference, but one object per freeze, measured
#: 24.5; with reads handing out copies, each logged or re-written copy
#: was frozen anew (35.5); copying each value into every row that holds
#: it measured 67.5.
MAX_CONTAINERS_PER_REQUEST = 10
#: Distinct names tuples the travel app's stored rows hold, one per row
#: shape: 9 measured here (intents with and without a caller or a
#: transaction, read- and invoke-log rows, DAAL rows, lock records);
#: one per row would be the 2 695 rows.
MAX_ROW_SHAPES = 12
#: Queue entries beyond one per live worker: the watchdog's timer(s) and
#: the driving client.
QUEUE_SLACK = 4


def stored_containers(store) -> int:
    """Distinct container objects inside every row of every leaf."""
    seen: set = set()
    stack = []
    for row in stored_rows(store):
        stack.extend(row.values())
    while stack:
        value = stack.pop()
        if isinstance(value, (dict, list, set, frozenset)) and (
                id(value) not in seen):
            seen.add(id(value))
            stack.extend(value.values() if isinstance(value, dict)
                         else value)
    return len(seen)


def stored_rows(store) -> list:
    """Every stored row of every leaf."""
    return [row for leaf in leaves(store) for name in leaf.table_names()
            for _key, row in leaf.table(name)._iter_raw()]


@pytest.fixture(scope="module")
def travel_store():
    """The store after ``USERS`` closed-loop travel users ran
    ``PER_USER`` requests each."""
    runtime = BeldiRuntime(
        seed=11, latency_scale=1.0, config=BeldiConfig(),
        platform_config=PlatformConfig(concurrency_limit=400))
    app = build_app("travel", seed=11)
    app.install(runtime)
    mix = RandomSource(11, "memory-guard")
    users = [[app.sample_request(mix) for _ in range(PER_USER)]
             for _ in range(USERS)]
    try:
        result = run_closed_loop(runtime, app.entry, users)
        assert result.failures == 0
        yield runtime.store
    finally:
        runtime.kernel.shutdown()


def test_stored_containers_per_travel_request_stay_bounded(travel_store):
    per_request = stored_containers(travel_store) / (USERS * PER_USER)
    assert per_request <= MAX_CONTAINERS_PER_REQUEST, per_request


def test_stored_rows_share_a_few_shapes(travel_store):
    """A stored row is its values over one names tuple per shape: the
    travel app's rows come in a few shapes, and no row is a ``dict``."""
    rows = stored_rows(travel_store)
    assert len(rows) > 10 * MAX_ROW_SHAPES
    assert not [row for row in rows if isinstance(row, dict)]
    assert all(type(row) is FrozenRow for row in rows)
    shapes = {id(row.keys()) for row in rows}
    assert len(shapes) <= MAX_ROW_SHAPES, len(shapes)


def test_a_value_a_step_reads_is_one_object_in_every_row_that_holds_it():
    """The data row, the read-log run that logged the read and the
    intent's ``Ret`` that returned it hold one object."""
    runtime = BeldiRuntime(seed=11, config=BeldiConfig(gc_t=1e12))

    def handler(ctx, payload):
        seen = ctx.read("kv", "k")
        ctx.write("kv", "other", 1)
        return seen

    ssf = runtime.register_ssf("f", handler, tables=["kv"])
    env = ssf.env
    env.seed("kv", "k", {"m": [1, {"n": 2}], "s": {3}})
    try:
        runtime.run_workflow("f")
        (data_row,) = [row for row in env.store.query(
            env.data_table("kv"), "k").items if "Value" in row]
        (log_row,) = env.store.scan(env.read_log).items
        (intent,) = env.store.scan(env.intent_table).items
        assert log_row["Value"] is data_row["Value"]
        assert intent["Ret"] is data_row["Value"]
    finally:
        runtime.kernel.shutdown()


def test_two_searches_of_one_cell_store_one_ret():
    """Two requests that compute the same answer store it once: the
    ``search`` intents' ``Ret`` is one object, and so is the ``Result``
    the frontend's invoke log holds for it."""
    runtime = BeldiRuntime(seed=11, config=BeldiConfig(gc_t=1e12))
    app = build_app("travel", seed=11)
    app.install(runtime)
    try:
        first, second = [
            runtime.run_workflow(app.entry, {"action": "search", "cell": 3})
            for _ in range(2)]
        assert first == second and first["hotels"]
        search = app.envs["search"]
        rets = [intent["Ret"] for intent in
                search.store.scan(search.intent_table).items]
        assert len(rets) == 2 and rets[0] is rets[1]
        frontend = app.envs["frontend"]
        results = [row["Result"] for row in
                   frontend.store.scan(frontend.invoke_log).items]
        assert len(results) == 2 and results[0] is results[1]
    finally:
        runtime.kernel.shutdown()



def test_an_intents_caller_is_stored_without_a_lookup():
    """A ``Caller`` names one call (the caller's instance and step), so
    no other value is ever alike: it is frozen without entering the
    table of canonical values, where it could only be missed and kept
    alive."""
    runtime = BeldiRuntime(seed=11, config=BeldiConfig(gc_t=1e12))
    app = build_app("travel", seed=11)
    app.install(runtime)
    try:
        runtime.run_workflow(app.entry, {"action": "search", "cell": 3})
        search = app.envs["search"]
        (intent,) = search.store.scan(search.intent_table).items
        caller = intent["Caller"]
        assert caller["ssf"] == "frontend" and isinstance(caller, FrozenMap)
        assert all(value is not caller
                   for value in item_model._canonical.values())
    finally:
        runtime.kernel.shutdown()

def make_platform(timeout: float = 60_000.0):
    kernel = SimKernel(seed=1)
    rand = RandomSource(1)
    platform = ServerlessPlatform(
        kernel, rand=rand.child("platform"),
        latency=LatencyModel(rand.child("latency"), scale=1.0),
        config=PlatformConfig(default_timeout=timeout))
    return kernel, platform


def test_the_kernel_queue_holds_live_workers_not_past_invocations():
    kernel, platform = make_platform()
    platform.register("fast", lambda ctx, payload: payload)
    peak = []

    def client():
        for n in range(3000):
            platform.sync_invoke("fast", n)
            peak.append((len(kernel._queue), platform.active_instances))

    kernel.spawn(client)
    try:
        kernel.run()
    finally:
        kernel.shutdown()
    assert len(peak) == 3000
    assert max(queued - live for queued, live in peak) <= QUEUE_SLACK
    assert platform.stats.timeouts == 0


def test_a_timed_out_worker_dies_at_exactly_start_plus_timeout():
    """Deadlines are kept as absolute instants: a start at an instant
    no float sum reproduces (``0.1 + 0.2``) still dies at exactly
    ``start + timeout``. A later invocation with a shorter timeout dies
    first, at its own deadline, and a run of short ones in between
    re-arms the watchdog many times."""
    timeout = 60_000.0
    kernel, platform = make_platform(timeout)
    died, caught = {}, []

    def runaway(ctx, name):
        try:
            ctx.sleep(10 * timeout)
        finally:
            died[name] = kernel.now

    platform.register("runaway", runaway)
    platform.register("brief", runaway, timeout=1_000.1)
    platform.register("fast", lambda ctx, payload: payload)

    def caller(name):
        try:
            platform.sync_invoke(name, name)
        except FunctionTimeout:
            caught.append(name)

    def client():
        for n in range(50):
            platform.sync_invoke("fast", n)

    kernel.spawn(caller, "runaway", delay=0.1 + 0.2)
    kernel.spawn(caller, "brief", delay=0.1 + 0.2 + 7.7)
    kernel.spawn(client, delay=1.0)
    try:
        kernel.run()
    finally:
        kernel.shutdown()
    # The deadline counts from the invocation (dispatch latency
    # included, as in AWS).
    assert died == {"runaway": (0.1 + 0.2) + timeout,
                    "brief": (0.1 + 0.2 + 7.7) + 1_000.1}
    assert caught == ["brief", "runaway"]
    assert platform.stats.timeouts == 2
    assert platform.active_instances == 0
