"""The read log's serialization point sits at the effect frontier.

With the ``async_io`` feature a run of logged reads (``read``,
``read_eventual``, ``record``) is made durable by **one** conditional put
of **one** row, immediately before the next effect; a replay loads the
log with one query and answers logged steps from memory. Without the
feature (``paper``, ``without="async_io"``) every read is its own run —
the paper's row, the paper's round trips. See ``core/ops.py`` and
``docs/async_io.md``.
"""

import pytest

from repro.core import BeldiConfig, BeldiRuntime, daal
from repro.kvstore import Eq, Set
from repro.kvstore.expressions import path
from repro.platform import CrashOnce, FunctionCrashed

PER_READ = [dict(profile="paper"), dict(without="async_io")]


def _runtime(**config) -> BeldiRuntime:
    return BeldiRuntime(seed=9, config=BeldiConfig(
        gc_t=1e12, ic_restart_delay=50.0, **config))


def _register(runtime, handler, name="f"):
    ssf = runtime.register_ssf(name, handler, tables=["kv"])
    for i, key in enumerate("abc"):
        ssf.env.seed("kv", key, i)
    return ssf.env


def _log_rows(env) -> list:
    return sorted(env.store.scan(env.read_log).items,
                  key=lambda row: row["Step"])


def _log_round_trips(runtime, env) -> int:
    return runtime.store.metering.per_table[env.read_log]


def three_reads_a_record_and_a_write(ctx, payload):
    seen = [ctx.read("kv", key) for key in "abc"]
    seen.append(ctx.record(lambda: "drawn"))
    ctx.write("kv", "a", seen)
    return seen


def test_a_run_of_reads_is_one_row_and_one_put():
    runtime = _runtime()
    env = _register(runtime, three_reads_a_record_and_a_write)
    assert runtime.run_workflow("f") == [0, 1, 2, "drawn"]
    assert _log_round_trips(runtime, env) == 1
    (row,) = _log_rows(env)
    assert row["Step"] == 0 and row["Value"] == 0
    assert row["Run"] == [1, 2, "drawn"]
    runtime.kernel.shutdown()


@pytest.mark.parametrize("config", PER_READ, ids=["paper", "no-async-io"])
def test_without_async_io_every_read_is_the_papers_row(config):
    runtime = _runtime(**config)
    env = _register(runtime, three_reads_a_record_and_a_write)
    assert runtime.run_workflow("f") == [0, 1, 2, "drawn"]
    # One put per read, plus record's probing get.
    assert _log_round_trips(runtime, env) == 5
    rows = _log_rows(env)
    assert [row["Step"] for row in rows] == [0, 1, 2, 3]
    assert all(sorted(row) == ["InstanceId", "Step", "Value"]
               for row in rows)
    runtime.kernel.shutdown()


def test_a_run_too_big_for_one_row_flushes_early():
    """Three 90 KB values do not fit the store's 400 KB row with room to
    spare, so the run lands as two rows instead of failing."""
    runtime = _runtime()
    env = _register(runtime, three_reads_a_record_and_a_write)
    for key in "abc":
        env.store.update(env.data_table("kv"), (key, daal.HEAD_ROW_ID),
                         [Set("Value", key * 90_000)])
    result = runtime.run_workflow("f")
    assert [len(value) for value in result] == [90_000] * 3 + [5]
    rows = _log_rows(env)
    assert [(row["Step"], len(row.get("Run", ()))) for row in rows] == [
        (0, 1), (2, 1)]
    runtime.kernel.shutdown()


def _effects():
    held = Eq(path("Value"), 0)
    return {
        "write": lambda ctx: ctx.write("kv", "c", 9),
        "cond_write": lambda ctx: ctx.cond_write("kv", "c", 9, held),
        "lock": lambda ctx: ctx.lock("kv", "c"),
        "sync_invoke": lambda ctx: ctx.sync_invoke("leaf", None),
        "async_invoke": lambda ctx: ctx.async_invoke("leaf", None),
        "parallel_invoke": lambda ctx: ctx.parallel_invoke(
            [("leaf", None), ("leaf", None)]),
        "begin_tx": lambda ctx: ctx.begin_tx(),
    }


@pytest.mark.parametrize("effect", sorted(_effects()))
def test_every_effect_is_a_frontier(effect):
    """The read before an effect is durable on its own — it does not
    wait in the buffer for the read after it."""
    runtime = _runtime()
    runtime.register_ssf("leaf", lambda ctx, p: "v")
    act = _effects()[effect]

    def handler(ctx, payload):
        first = ctx.read("kv", "a")
        act(ctx)
        return [first, ctx.read("kv", "b")]

    env = _register(runtime, handler)
    assert runtime.run_workflow("f") == [0, 1]
    rows = _log_rows(env)
    assert len(rows) == 2 and rows[0]["Step"] == 0
    assert "Run" not in rows[0] and "Run" not in rows[1]
    runtime.kernel.shutdown()


def test_a_result_is_not_observable_before_its_reads_are_durable():
    """A callee killed right before its flush has called nobody back."""
    runtime = _runtime()
    env = _register(runtime, lambda ctx, p: ctx.read("kv", "a"), "leaf")
    top = runtime.register_ssf(
        "f", lambda ctx, p: ctx.sync_invoke("leaf", None))
    runtime.platform.crash_policy = CrashOnce(
        "leaf", "readlog:0:before-flush")
    seen = {}

    def peek_at_the_crash():
        seen["log"] = _log_rows(env)
        seen["result"] = top.env.store.scan(top.env.invoke_log).items

    runtime.kernel.spawn(peek_at_the_crash, delay=0.0)
    assert runtime.run_workflow("f") == 0
    assert seen["log"] == []
    assert all("Result" not in entry for entry in seen["result"])
    runtime.kernel.shutdown()


def test_a_replay_loads_the_log_and_reads_nothing_else():
    runtime = _runtime()
    env = _register(runtime, three_reads_a_record_and_a_write)
    runtime.platform.crash_policy = CrashOnce("f", "readlog:0:after-flush")
    delivery = {"kind": "call", "instance_id": "once", "input": None}
    results = []

    def client():
        try:
            runtime.platform.sync_invoke("f", delivery)
        except FunctionCrashed:
            pass
        # The rows change under the crashed instance...
        for key in "abc":
            env.store.update(env.data_table("kv"), (key, daal.HEAD_ROW_ID),
                             [Set("Value", "changed")])
        before = runtime.store.metering.copy()
        results.append(runtime.platform.sync_invoke("f", delivery))
        results.append(runtime.store.metering.diff(before))
        results.append(_log_round_trips(runtime, env)
                       - before.per_table[env.read_log])

    runtime.kernel.spawn(client)
    runtime.kernel.run()
    result, spent, log_round_trips = results
    # ...and the replay still returns what the first execution logged,
    # for one query of the log: no put lost, no row fetched back.
    assert result == [0, 1, 2, "drawn"]
    assert env.peek("kv", "a") == [0, 1, 2, "drawn"]
    assert log_round_trips == spent["query"].count == 1
    # The one ``get`` is the intent record: no data row was read.
    assert spent["read"].count == 1
    runtime.kernel.shutdown()


@pytest.mark.parametrize("config, round_trips",
                         [({}, 1), (dict(without="async_io"), 4)],
                         ids=["current", "no-async-io"])
def test_fresh_execution_records_without_probing(config, round_trips):
    runtime = _runtime(**config)

    def handler(ctx, payload):
        return [ctx.fresh_id(), ctx.current_time()]

    env = _register(runtime, handler)
    first, now = runtime.run_workflow("f")
    assert isinstance(first, str) and isinstance(now, float)
    assert _log_round_trips(runtime, env) == round_trips
    runtime.kernel.shutdown()


def _rollbacks(runtime) -> int:
    """``readlog:rollback`` events of a traced run."""
    return sum(1 for record in runtime.obs.tracer.records
               if record["name"] == "readlog:rollback")


def test_an_identical_duplicate_run_is_not_a_lost_flush():
    """Two live executions that logged the same values both go on — and
    "same" is judged on what the store holds (tuples come back lists)."""
    runtime = BeldiRuntime(seed=9, observability=True,
                           config=BeldiConfig(gc_t=1e12))

    def handler(ctx, payload):
        pair = ctx.record(lambda: (1, 2))
        ctx.sleep(5.0)  # both executions reach the frontier together
        ctx.write("kv", "a", list(pair))
        return list(pair)

    env = _register(runtime, handler)
    results = []

    def deliver():
        results.append(runtime.platform.sync_invoke(
            "f", {"kind": "call", "instance_id": "twin", "input": None}))

    runtime.kernel.spawn(deliver)
    runtime.kernel.spawn(deliver)
    runtime.kernel.run()
    assert results == [[1, 2], [1, 2]]
    assert len(_log_rows(env)) == 1
    assert _rollbacks(runtime) == 0
    runtime.kernel.shutdown()


def mutate_the_read_value_in_place(ctx, payload):
    cart = ctx.read("kv", "cart")
    drawn = ctx.record(lambda: ["drawn"])
    cart.append("item")
    drawn.append("twice?")
    ctx.write("kv", "marker", 1)
    ctx.write("kv", "cart", cart)
    return cart


@pytest.mark.parametrize("config", [{}] + PER_READ,
                         ids=["current", "paper", "no-async-io"])
def test_the_log_holds_what_was_observed_not_what_the_handler_made_of_it(
        config):
    """The handler owns the value it was handed; mutating it before the
    frontier must not reach the log, or a replay appends twice."""
    runtime = _runtime(**config)
    env = _register(runtime, mutate_the_read_value_in_place)
    env.seed("kv", "cart", [])
    runtime.platform.crash_policy = CrashOnce("f", "write:2:done")
    runtime.start_collectors(ic_period=50.0, gc_period=1e12)
    results = []

    def client():
        try:
            results.append(runtime.client_call("f"))
        except FunctionCrashed:
            pass

    runtime.kernel.spawn(client)
    runtime.kernel.run(until=2_000.0)
    from repro.core.ops import logged_reads
    (instance_id,) = {row["InstanceId"] for row in _log_rows(env)}
    assert logged_reads(env, instance_id) == {0: [], 1: ["drawn"]}
    assert env.peek("kv", "cart") == ["item"]
    (intent,) = env.store.scan(env.intent_table).items
    assert intent["Done"] and intent["Ret"] == ["item"]
    runtime.kernel.shutdown()


def _async_fan_out(runtime):
    env = _register(runtime, lambda ctx, p: ctx.write(
        "kv", "a", ctx.read("kv", "b")), "leaf")
    runtime.register_ssf(
        "f", lambda ctx, p: ctx.async_invoke("leaf", None))
    return env


def test_a_first_async_execution_does_not_load_an_empty_log():
    """The stub's intent exists since registration, so "did not create
    the intent" says nothing there: only an IC relaunch marks a replay."""
    round_trips = {}
    for name, config in [("current", {}),
                         ("no-async-io", dict(without="async_io"))]:
        runtime = _runtime(**config)
        env = _async_fan_out(runtime)
        runtime.run_workflow("f")
        runtime.kernel.run()
        assert env.peek("kv", "a") == 1
        assert _log_round_trips(runtime, env) == 1  # the put, no query
        round_trips[name] = sum(runtime.store.metering.per_table.values())
        runtime.kernel.shutdown()
    assert round_trips["current"] == round_trips["no-async-io"]


def test_an_async_duplicate_that_guessed_first_is_rolled_back_to_the_log():
    """The caller's own replay re-fires the stub with no relaunch stamp;
    the duplicate starts without the log, loses its first flush to the
    logged row and replays it."""
    runtime = BeldiRuntime(seed=9, observability=True, config=BeldiConfig(
        gc_t=1e12, ic_restart_delay=50.0))
    env = _async_fan_out(runtime)
    # Invocation 0 of the leaf is its registration, 1 the stub's run.
    runtime.platform.crash_policy = CrashOnce("leaf", "write:1:start",
                                              invocation_index=1)
    runtime.run_workflow("f")
    runtime.kernel.run()
    assert env.peek("kv", "a") == 0  # the leaf died before its write
    (row,) = _log_rows(env)
    env.store.update(env.data_table("kv"), ("b", daal.HEAD_ROW_ID),
                     [Set("Value", "changed")])
    runtime.kernel.spawn(runtime.platform.async_invoke, "leaf", {
        "kind": "call", "instance_id": row["InstanceId"], "async": True})
    runtime.kernel.run()
    assert env.peek("kv", "a") == 1
    assert _log_rows(env) == [row]
    assert _rollbacks(runtime) == 1
    runtime.kernel.shutdown()


def test_an_execution_that_keeps_losing_its_flush_dies_like_a_crash(
        monkeypatch):
    """Rollbacks are bounded: past the bound the lost flush is the crash
    ISSUE 14 describes, not unbounded re-entry."""
    from repro.core import ops, runtime as runtime_module
    runtime = BeldiRuntime(seed=9, observability=True,
                           config=BeldiConfig(gc_t=1e12))
    env = _register(runtime, three_reads_a_record_and_a_write)
    env.store.put(env.read_log, {"InstanceId": "stuck", "Step": 0,
                                 "Value": "other"})
    # A reload that never shows the row the flush keeps losing to.
    monkeypatch.setattr(ops, "logged_reads", lambda env, instance_id: {})
    outcome = []

    def client():
        try:
            runtime.platform.sync_invoke(
                "f", {"kind": "call", "instance_id": "stuck", "input": None})
        except FunctionCrashed:
            outcome.append("crashed")

    runtime.kernel.spawn(client)
    runtime.kernel.run()
    assert outcome == ["crashed"]
    assert _rollbacks(runtime) == runtime_module._MAX_READ_LOG_ROLLBACKS
    assert env.peek("kv", "a") == 0  # nothing was ever shown
    runtime.kernel.shutdown()


# ---------------------------------------------------------------------------
# read_many: one batch in, one group row out
# ---------------------------------------------------------------------------

def read_many_then_write(ctx, payload):
    seen = ctx.read_many("kv", ["a", "b", "missing", "c"])
    ctx.write("kv", "a", seen)
    return seen


def _warm(runtime, env) -> None:
    """Let the tail cache learn where ``a``/``b``/``c`` end."""
    for key in "abc":
        daal.load_skeleton(runtime.store, env.data_table("kv"), key,
                           cache=runtime.tail_cache)


def test_read_many_is_one_batch_get_and_joins_one_run():
    runtime = _runtime()
    env = _register(runtime, read_many_then_write)
    _warm(runtime, env)
    before = runtime.store.metering.copy()
    assert runtime.run_workflow("f") == [0, 1, None, 2]
    spent = runtime.store.metering.diff(before)
    # The three cached tails in one round trip; the key nobody ever
    # wrote has no tail to batch and takes the (overlapped) traversal.
    assert spent["batch_get"].count == 1 and spent["batch_get"].items == 3
    assert spent["query"].count == 1
    assert _log_round_trips(runtime, env) == 1
    (row,) = _log_rows(env)
    assert row["Step"] == 0 and row["Value"] == 0
    assert row["Run"] == [1, daal.MISSING, 2]
    runtime.kernel.shutdown()


@pytest.mark.parametrize("config", PER_READ, ids=["paper", "no-async-io"])
def test_without_async_io_read_many_is_the_per_key_loop(config):
    runtime = _runtime(**config)
    env = _register(runtime, read_many_then_write)
    assert runtime.run_workflow("f") == [0, 1, None, 2]
    assert "batch_get" not in runtime.store.metering.ops
    rows = _log_rows(env)
    assert [row["Step"] for row in rows] == [0, 1, 2, 3]
    assert all("Run" not in row for row in rows)
    runtime.kernel.shutdown()


def test_a_read_many_run_too_big_for_one_row_splits():
    """Three 90 KB values cross ``_MAX_RUN_BYTES``: the run flushes
    early *inside* the batch's join and lands as two rows."""
    runtime = _runtime()
    env = _register(runtime, read_many_then_write)
    for key in "abc":
        env.store.update(env.data_table("kv"), (key, daal.HEAD_ROW_ID),
                         [Set("Value", key * 90_000)])
    result = runtime.run_workflow("f")
    assert [value and len(value) for value in result] == [
        90_000, 90_000, None, 90_000]
    rows = _log_rows(env)
    assert [(row["Step"], len(row.get("Run", ()))) for row in rows] == [
        (0, 2), (3, 0)]
    runtime.kernel.shutdown()


def test_a_read_many_replay_fetches_only_what_the_log_lacks():
    """The first execution dies once the first part of its (split) run
    is durable. Its replay answers those steps from the loaded log —
    whatever the rows hold by now — and fetches only the last key."""
    runtime = _runtime()
    env = _register(runtime, read_many_then_write)
    for key in "abc":
        env.store.update(env.data_table("kv"), (key, daal.HEAD_ROW_ID),
                         [Set("Value", key * 90_000)])
    _warm(runtime, env)
    runtime.platform.crash_policy = CrashOnce("f", "readlog:0:after-flush")
    delivery = {"kind": "call", "instance_id": "once", "input": None}
    results = []

    def client():
        try:
            runtime.platform.sync_invoke("f", delivery)
        except FunctionCrashed:
            pass
        for key in "abc":
            env.store.update(env.data_table("kv"), (key, daal.HEAD_ROW_ID),
                             [Set("Value", "changed")])
        before = runtime.store.metering.copy()
        results.append(runtime.platform.sync_invoke("f", delivery))
        results.append(runtime.store.metering.diff(before))

    runtime.kernel.spawn(client)
    runtime.kernel.run()
    result, spent = results
    assert result == ["a" * 90_000, "b" * 90_000, None, "changed"]
    assert spent["batch_get"].count == 1 and spent["batch_get"].items == 1
    from repro.core.ops import logged_reads
    assert logged_reads(env, "once") == {
        0: "a" * 90_000, 1: "b" * 90_000, 2: daal.MISSING, 3: "changed"}
    runtime.kernel.shutdown()


def test_a_stale_cached_tail_repairs_through_the_traversal():
    """A cached tail that chained, and one that vanished, cost their
    key one repair traversal (and an eviction) — never a wrong value."""
    runtime = _runtime(row_log_capacity=2)
    env = _register(runtime, read_many_then_write)
    runtime.register_ssf(
        "bump", lambda ctx, p: [ctx.write("kv", "b", n) for n in (7, 8, 9)],
        env=env)
    runtime.run_workflow("bump")  # "b" outgrows its head row
    table = env.data_table("kv")
    assert daal.chain_length(runtime.store, table, "b") == 2
    _warm(runtime, env)
    cache = runtime.tail_cache
    cache.remember_tail(table, "b", daal.HEAD_ROW_ID)   # chained since
    cache.remember_tail(table, "c", "row-long-gone")    # vanished since
    fallbacks = cache.stats.tail_fallbacks
    before = runtime.store.metering.copy()
    assert runtime.run_workflow("f") == [0, 9, None, 2]
    spent = runtime.store.metering.diff(before)
    assert spent["batch_get"].count == 1 and spent["batch_get"].items == 3
    assert cache.stats.tail_fallbacks - fallbacks == 2
    assert cache.tail_of(table, "b").row_id != daal.HEAD_ROW_ID
    assert cache.tail_of(table, "c").row_id == daal.HEAD_ROW_ID
    runtime.kernel.shutdown()
