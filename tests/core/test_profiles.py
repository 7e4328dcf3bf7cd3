"""The configuration contract: two profiles plus single-feature ablations.

``BeldiConfig`` reaches exactly six configurations — ``paper``,
``current``, and ``current`` without one of ``fastpath`` / ``async_io`` /
``elastic`` / ``resilience``. Everything else is rejected at
construction, including every retired per-feature boolean.
"""

from __future__ import annotations

import hashlib
import json

import pytest

import history

from repro.apps.travel import TravelReservationApp
from repro.core import BeldiConfig, BeldiRuntime
from repro.core.config import FEATURES

SEED = 5
RETIRED_FIELDS = ("tail_cache", "batch_reads", "async_io",
                  "batch_log_writes", "elastic", "resilience",
                  "degraded_reads", "retry_max_backoff", "retry_jitter")
RETIRED_RUNTIME_KWARGS = ("async_io", "batch_log_writes", "elastic",
                          "resilience", "read_consistency")


def _features(config: BeldiConfig) -> set:
    return {feature for feature in FEATURES
            if getattr(config, f"has_{feature}")}


def test_default_is_the_current_profile_with_everything_on():
    assert BeldiConfig() == BeldiConfig(profile="current")
    assert _features(BeldiConfig()) == set(FEATURES)


def test_paper_profile_has_no_feature():
    assert _features(BeldiConfig(profile="paper")) == set()


@pytest.mark.parametrize("feature", FEATURES)
def test_without_removes_exactly_one_feature(feature):
    assert (_features(BeldiConfig(without=feature))
            == set(FEATURES) - {feature})


@pytest.mark.parametrize("kwargs", [
    dict(profile="seed"), dict(profile=None), dict(without="tail_cache"),
    dict(without=("fastpath", "async_io")),
    dict(profile="paper", without="fastpath")])
def test_anything_outside_the_six_is_rejected(kwargs):
    with pytest.raises(ValueError):
        BeldiConfig(**kwargs)


def test_read_consistency_is_checked_where_it_is_set():
    """A misspelt consistency fails at construction, not as a GC that
    silently reads strong and a first ``read_eventual`` that raises."""
    with pytest.raises(ValueError):
        BeldiConfig(read_consistency="evntual")
    assert BeldiConfig(read_consistency="eventual").read_consistency == (
        "eventual")


@pytest.mark.parametrize("field", RETIRED_FIELDS)
def test_retired_fields_are_gone(field):
    with pytest.raises(TypeError):
        BeldiConfig(**{field: False})
    assert not hasattr(BeldiConfig(), field)


@pytest.mark.parametrize("kwarg", RETIRED_RUNTIME_KWARGS)
def test_retired_runtime_kwargs_are_gone(kwarg):
    with pytest.raises(TypeError):
        BeldiRuntime(seed=SEED, **{kwarg: False})


def _table_rows(runtime) -> dict:
    store = runtime.store
    tables = []
    for env in runtime.envs.values():
        tables += env.log_table_names()
        for short in env.table_names():
            tables += [env.data_table(short), env.shadow_table(short)]
    return {table: sorted(repr(sorted(row.items()))
                          for row in store.scan(table).items)
            for table in tables}


def _balanced_run(without, shards, replicas, read_consistency):
    """The travel reservation + search of the sharding figures: far
    below ``elastic_min_window``, so there is nothing to rebalance."""
    runtime = BeldiRuntime(
        seed=SEED, latency_scale=1.0,
        config=BeldiConfig(gc_t=1e12, without=without,
                           read_consistency=read_consistency),
        shards=shards, replicas=replicas)
    app = TravelReservationApp(seed=SEED, n_hotels=2, n_flights=2,
                               rooms_per_hotel=2, seats_per_flight=2,
                               n_users=1)
    app.register(runtime)
    app.seed_data(runtime)
    reserved = runtime.run_workflow(
        "frontend", {"action": "reserve", "user": "user-0000",
                     "hotel": "hotel-0000", "flight": "flight-0001"})
    runtime.run_workflow("frontend", {"action": "search", "cell": 3})
    assert reserved.get("ok")
    runtime.kernel.shutdown()
    return runtime


RESERVE = {"action": "reserve", "user": "user-0000",
           "hotel": "hotel-0000", "flight": "flight-0001"}
#: With 30 hotels cell 0 holds three: ``rate`` and ``profile`` each read
#: three rows through ``read_many``.
SEARCH = {"action": "search", "cell": 0}


def _one_request(request, n_hotels=2, **config_args):
    """One travel request at real latencies: when the client was
    answered, a digest of the bill and every final row, the trace the
    lifecycle ledger reads, and the runtime."""
    runtime = BeldiRuntime(seed=SEED, latency_scale=1.0, observability=True,
                           config=BeldiConfig(gc_t=1e12, **config_args))
    app = TravelReservationApp(seed=SEED, n_hotels=n_hotels, n_flights=2,
                               rooms_per_hotel=2, seats_per_flight=2,
                               n_users=1)
    app.register(runtime)
    app.seed_data(runtime)
    box = {}

    def client():
        box["result"] = runtime.client_call("frontend", dict(request))
        box["answered_at"] = runtime.kernel.now

    runtime.kernel.spawn(client)
    runtime.kernel.run(until=30_000.0)
    runtime.kernel.shutdown()
    digest = hashlib.sha256(json.dumps(
        [runtime.store.metering.snapshot(), _table_rows(runtime)],
        sort_keys=True, default=repr).encode()).hexdigest()
    return (box["answered_at"], digest, runtime.obs.tracer.records,
            (runtime, box["result"]))


def _one_reservation(**config_args):
    answered_at, digest, trace, (_runtime, result) = _one_request(
        RESERVE, **config_args)
    assert result == {"ok": True}
    return answered_at, digest, trace


#: Recorded at d9973c5, the commit before replies moved ahead of the
#: callback: (virtual ms at which the client was answered, sha256 of
#: metering snapshot + every final row).
REPLY_AT_EXIT = {
    "paper": (dict(profile="paper"), 1423.9048863403796,
              "6aaab43698c9dad2"),
    "without-async_io": (dict(without="async_io"), 1669.7088830989712,
                         "1be348e674ec416c"),
}


@pytest.mark.parametrize("name", sorted(REPLY_AT_EXIT))
def test_without_async_io_a_callee_replies_at_worker_exit(name):
    """``paper`` and ``without="async_io"`` keep the paper's order —
    callback, ``Done``, then the reply that is the worker's exit: same
    virtual time, same bill, same final rows as before there was an
    early reply."""
    config_args, answered_at, digest = REPLY_AT_EXIT[name]
    got_at, got_digest, trace = _one_reservation(**config_args)
    assert not history.of(trace).kinds("reply")
    # reserve, hotel, flight
    assert len(history.of(trace).kinds("callback")) == 3
    assert got_at == answered_at
    assert got_digest.startswith(digest)


def test_current_replies_before_the_callback_and_answers_sooner():
    current_at, _digest, trace = _one_reservation()
    ledger = history.check(trace)
    assert len(ledger.kinds("reply")) == len(ledger.kinds("callback")) == 3
    assert current_at < 0.8 * REPLY_AT_EXIT["without-async_io"][1]


#: Recorded at b877f31, the commit before ``read_many`` and the
#: pipelined invoke open: (virtual ms at which a ``SEARCH`` over 30
#: hotels was answered, sha256 of metering snapshot + every final row).
SEARCH_AT_PARENT = {
    "paper": (dict(profile="paper"), 1371.3886670729396,
              "df550a93eb444e8b"),
    "without-async_io": (dict(without="async_io"), 1371.3886670729396,
                         "5713446a2c92c96b"),
}


@pytest.mark.parametrize("name", sorted(SEARCH_AT_PARENT))
def test_without_async_io_read_many_and_invoke_are_the_parents(name):
    """``paper`` and ``without="async_io"``: ``read_many`` is the
    per-key loop it replaced and every invoke claims before it starts
    its callee — same virtual time, same bill, same final rows as before
    either existed."""
    config_args, answered_at, digest = SEARCH_AT_PARENT[name]
    got_at, got_digest, trace, (runtime, result) = _one_request(
        SEARCH, n_hotels=30, **config_args)
    assert len(result["hotels"]) == 3
    assert got_at == answered_at
    assert got_digest.startswith(digest)
    assert "batch_get" not in runtime.store.metering.ops
    starts = [row[0] for row in history.of(trace).rows
              if row[0] in ("claim", "start")]
    assert starts == ["claim", "start"] * 4


def test_current_opens_invokes_pipelined_and_batches_read_many():
    current_at, _digest, trace, (runtime, result) = _one_request(
        SEARCH, n_hotels=30)
    starts = [row[0] for row in history.check(trace).rows
              if row[0] in ("claim", "start")]
    assert starts == ["start", "claim"] * 4
    assert current_at < 0.5 * SEARCH_AT_PARENT["without-async_io"][1]
    loop_at, _d, _l, (_runtime, loop_result) = _one_request(
        SEARCH, n_hotels=30, without="async_io")
    assert result == loop_result and len(result["hotels"]) == 3


def test_without_fastpath_read_many_overlaps_its_traversals():
    """No tail cache, nothing to batch: every key takes the sound
    traversal, as branches of one overlap scope — correct, and cheaper
    than the per-key loop in time only."""
    _at, _digest, _trace, (runtime, result) = _one_request(
        SEARCH, n_hotels=30, without="fastpath")
    _at, _digest, _trace, (loop_runtime, loop_result) = _one_request(
        SEARCH, n_hotels=30, without="async_io")
    assert result == loop_result and len(result["hotels"]) == 3
    ops = runtime.store.metering.ops
    assert "batch_get" not in ops
    rate = runtime.envs["rate"]
    table = rate.data_table("rates")
    # Three traversals (query + get each), one scope: the round trips
    # of the three sequential reads, to the same rows.
    assert (runtime.store.metering.per_table[table]
            == loop_runtime.store.metering.per_table[table])
    (row,) = runtime.store.scan(rate.read_log).items
    assert len(row["Run"]) == 2


@pytest.mark.parametrize("topology", [(2, 1, "strong"), (4, 1, "strong"),
                                      (2, 3, "eventual")])
def test_idle_elasticity_changes_nothing(topology):
    """Armed-and-idle is bit-for-bit static placement: below its trigger
    the controller is pure arithmetic — no randomness, no latency, no
    store traffic."""
    elastic = _balanced_run(None, *topology)
    static = _balanced_run("elastic", *topology)
    assert elastic.kernel.now == static.kernel.now
    assert (elastic.store.metering.snapshot()
            == static.store.metering.snapshot())
    assert _table_rows(elastic) == _table_rows(static)
    # The machinery was armed...
    assert elastic.store.heat  # heat tracking did run
    assert elastic.elasticity.rebalances == 0
    assert elastic.elasticity.migrator.stats.migrations == 0
    assert elastic.store.ring.forwards == {}
    # ...and without the feature there is none: no controller, no heat
    # books, no meta table.
    assert static.elasticity is None
    assert static.store.heat is None
    assert "__migrations__" not in static.store.table_names()


def test_single_shard_has_no_controller():
    runtime = BeldiRuntime(seed=SEED, shards=1)
    assert runtime.elasticity is None
    runtime.kernel.shutdown()


def test_one_controller_per_store():
    """A runtime handed its store builds no second controller (and no
    second migrator) on it; the store's builder owns the only one."""
    owner = BeldiRuntime(seed=SEED, shards=2)
    guest = BeldiRuntime(kernel=owner.kernel, seed=SEED + 1,
                         store=owner.store, env_prefix="guest.")
    assert owner.elasticity is not None
    assert guest.elasticity is None
    owner.kernel.shutdown()
