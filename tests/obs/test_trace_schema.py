"""Acceptance: the pinned-seed concurrent DST run, traced end to end.

Runs the three-request concurrent mix (``tests/core/dst.py``) with
``observability=True`` and pins the PR's acceptance bar:

- the exported Chrome trace is schema-valid (``validate_chrome_trace``);
- spans nest request → step/op → store round trip;
- every metered store round trip has exactly one span — op for op,
  including every logged write;
- two runs with the same seed and schedule export byte-identical
  traces, JSONL and snapshots;
- with the flag off nothing is built and the run's outcome is
  bit-for-bit identical to the traced one.

When ``$OBS_TRACE_FILE`` is set the schema test also writes the trace
there as JSONL — the CI ``obs-smoke`` job runs ``repro.obs.report`` over
it and uploads its Chrome rendering as an artifact.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import re
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "core"))
import dst  # noqa: E402
import history  # noqa: E402

from repro.kvstore import (  # noqa: E402
    KernelTimeSource,
    KVStore,
    ShardedStore,
    TransactPut,
)
from repro.obs import Observability  # noqa: E402
from repro.obs.tracer import validate_chrome_trace  # noqa: E402
from repro.sim import LatencyModel, RandomSource, SimKernel  # noqa: E402


@pytest.fixture(scope="module")
def traced():
    """One crash-free pinned-seed run of the concurrent mix, traced."""
    return dst.run_one(dst.LIGHT_FLAGS)


@pytest.fixture(scope="module")
def trace(traced):
    """That run's trace, read once."""
    return history.of(traced.travel.obs.tracer.records)


def test_exported_trace_is_schema_valid(traced):
    obs = traced.travel.obs
    assert obs is not None
    assert traced.movie.obs is obs  # runtimes sharing a store share obs
    trace = obs.tracer.to_chrome()
    assert len(trace["traceEvents"]) > 100
    problems = validate_chrome_trace(trace)
    assert problems == [], problems[:10]
    artifact = os.environ.get("OBS_TRACE_FILE")
    if artifact:
        with open(artifact, "w") as fh:
            fh.write(obs.tracer.to_jsonl())


def test_spans_nest_request_step_op_store(trace):
    def parent_cats(record):
        return {parent["cat"] for parent in trace.spans(record["parent_id"])}

    # Store round trips hang off DAAL op spans...
    store_edges = {record["name"] for record in trace.in_cat("store")
                   if "op" in parent_cats(record)}
    assert "store.cond_write" in store_edges  # the logged write path
    assert "store.query" in store_edges       # the chain traversal
    # ...op spans hang off request spans...
    assert any("request" in parent_cats(record)
               for record in trace.in_cat("op"))
    # ...and invoke steps hang off requests, with their callee's request
    # span hanging off the step in turn.
    steps = trace.in_cat("step")
    assert any("request" in parent_cats(record) for record in steps)
    assert any(record["cat"] == "request"
               for step in steps for record in trace.children(step["span_id"]))
    # Transactions appear as their own layer under the request.
    assert any(record["cat"] == "txn"
               for record in trace.prefixed("txn.finish"))
    assert trace.in_cat("gc")


def test_read_log_flush_is_its_own_op_span(trace):
    """The group flush runs between operations, so it carries its own
    ``op.read_flush`` span: request -> op -> the one conditional put."""
    flushes = trace.named("op.read_flush")
    assert flushes
    for flush in flushes:
        assert flush["cat"] == "op"
        assert trace.spans(flush["parent_id"])[-1]["cat"] == "request"
        puts = [record for record in trace.children(flush["span_id"])
                if record["cat"] == "store"]
        assert [put["name"] for put in puts][:1] == ["store.cond_write"]
        assert flush["args"]["steps"] >= 1
    # Every read-log write of the run is one of those puts: no read op
    # span has a store *write* under it any more.
    read_ops = {record["span_id"]
                for name in ("op.read", "op.roread", "op.record")
                for record in trace.named(name)}
    assert not [record for span_id in read_ops
                for record in trace.children(span_id)
                if record["name"] == "store.cond_write"]


def test_every_store_round_trip_has_exactly_one_span(traced, trace):
    """Span/metering parity, op by op — in particular every logged
    store write (cond_write on the DAAL) has exactly one span."""
    metering = traced.travel.store.metering
    span_counts: dict = {}
    for record in trace.in_cat("store"):
        span_counts[record["name"]] = span_counts.get(record["name"], 0) + 1
    assert metering.ops, "metered run expected"
    for op, rec in sorted(metering.ops.items()):
        assert span_counts.get(f"store.{op}", 0) == rec.count, op
    # No store span without a metered op behind it either.
    metered = {f"store.{op}" for op in metering.ops}
    assert set(span_counts) == metered


def test_same_seed_runs_export_byte_identically(traced):
    second = dst.run_one(dst.LIGHT_FLAGS)
    first_obs, second_obs = traced.travel.obs, second.travel.obs
    assert first_obs.tracer.chrome_json() == second_obs.tracer.chrome_json()
    assert first_obs.tracer.to_jsonl() == second_obs.tracer.to_jsonl()
    assert (json.dumps(first_obs.snapshot(traced.travel), sort_keys=True)
            == json.dumps(second_obs.snapshot(second.travel),
                          sort_keys=True))


def test_flag_off_is_bit_for_bit_identical(traced):
    flags = dict(dst.LIGHT_FLAGS, observability=False)
    dark = dst.run_one(flags)
    assert dark.travel.obs is None
    assert dark.movie.obs is None
    assert dark.travel.store.obs is None
    assert dark.kernel.tracer is None
    # Same results, same virtual end time, same bill, same final rows.
    assert dark.results == traced.results
    assert dark.kernel.now == traced.kernel.now
    assert (dark.travel.store.metering.dollar_cost()
            == traced.travel.store.metering.dollar_cost())
    assert dst.final_state(dark) == dst.final_state(traced)


def test_tracing_is_free_on_the_paper_profile_too():
    """The sequential seed-faithful paths carry their own hook sites:
    traced and dark agree on results, virtual time and the bill."""
    traced = dst.run_one({"profile": "paper", "observability": True})
    dark = dst.run_one({"profile": "paper"})
    assert dark.travel.obs is None
    assert validate_chrome_trace(traced.travel.obs.tracer.to_chrome()) == []
    assert dark.results == traced.results
    assert dark.kernel.now == traced.kernel.now
    assert (dark.travel.store.metering.dollar_cost()
            == traced.travel.store.metering.dollar_cost())


def test_unified_snapshot_sections(traced, trace):
    snap = traced.travel.obs.snapshot(traced.travel)
    # Only the stack's native stats: each count in its one home.
    assert set(snap) == {"metering", "placement", "tail_cache",
                         "resilience", "elasticity"}
    # The concurrent mix commits transactions, takes locks and runs GC
    # passes — facts that live in the trace.
    assert trace.count("txn.finish:commit") and trace.count("gc:collected")
    assert trace.count("lock:acquired")
    assert snap["metering"]["totals"]["requests"] > 0
    assert snap["metering"]["totals"]["dollars"] > 0
    assert len(snap["metering"]["per_shard"]) == 2  # LIGHT_FLAGS shards
    assert snap["tail_cache"]["tail_hits"] >= 0
    # Chain growth sits in the same block — the cache's own counters are
    # the one home of these numbers, not a second copy in the registry.
    assert {"extensions", "extension_waits", "lazy_appends",
            "append_races_lost"} <= set(snap["tail_cache"])
    assert snap["elasticity"]["checks"] >= 0
    # And the whole snapshot is JSON-clean.
    json.dumps(snap, sort_keys=True, allow_nan=False)


def test_snapshot_says_which_shard_carried_the_most(traced):
    """``placement`` = requests per shard node from the per-node
    metering books, plus the fullest shard over the mean — the number
    that tells which node saturates first."""
    runtime = traced.travel
    placement = runtime.obs.snapshot(runtime)["placement"]
    requests = placement["requests"]
    assert requests == [node.metering.op_count
                        for node in runtime.store.nodes]
    assert sum(requests) == runtime.store.metering.op_count > 0
    assert placement["max_over_mean"] == pytest.approx(
        max(requests) * len(requests) / sum(requests), abs=1e-6)
    assert placement["max_over_mean"] >= 1.0


def _traced_transaction(n_shards):
    """One two-row ``transact_write`` on a traced, kernel-timed store
    whose rows land on ``n_shards`` distinct shards. Returns the virtual
    time the call took, its ``store.transact_write`` spans, and how many
    ``transact_write`` requests were metered."""
    kernel = SimKernel(seed=5)
    nodes = [KVStore(time_source=KernelTimeSource(kernel),
                     latency=LatencyModel(RandomSource(5, f"lat{i}")),
                     rand=RandomSource(5, f"node{i}"), shard_id=i)
             for i in range(n_shards)]
    store = nodes[0] if n_shards == 1 else ShardedStore(nodes)
    obs = Observability(kernel)
    obs.attach_store(store)
    store.create_table("data", hash_key="K")
    keys = ["k0"]
    if n_shards > 1:
        keys.append(next(
            key for key in (f"k{i}" for i in range(1, 100))
            if store.shard_for("data", key) != store.shard_for(
                "data", "k0")))
    else:
        keys.append("k1")
    elapsed = []

    def client():
        before = kernel.now
        store.transact_write([TransactPut("data", {"K": key, "V": 1})
                              for key in keys])
        elapsed.append(kernel.now - before)

    kernel.spawn(client)
    kernel.run()
    kernel.shutdown()
    spans = history.of(obs.tracer.records).named("store.transact_write")
    return elapsed[0], spans, store.metering.ops["transact_write"].count


def test_transact_write_span_covers_what_the_call_paid():
    """Like every other store span, ``store.transact_write`` starts
    before the ``db.txn`` pay — its ``dur`` is the clock advance of the
    call, not the zero-length apply step."""
    elapsed, spans, metered = _traced_transaction(n_shards=1)
    assert elapsed > 0
    assert metered == 1 and len(spans) == 1
    assert spans[0]["dur"] == elapsed


def test_cross_shard_transaction_keeps_span_metering_parity():
    """Each involved shard meters its portion once and records one span
    for it, covering both 2PC rounds."""
    elapsed, spans, metered = _traced_transaction(n_shards=2)
    assert elapsed > 0
    assert metered == 2 and len(spans) == 2
    assert sorted(span["args"]["shard"] for span in spans) == [0, 1]
    assert all(span["dur"] == elapsed for span in spans)


def _traced_travel_reservation():
    """One travel reservation at real latencies; returns its tracer."""
    from repro.apps.travel import TravelReservationApp
    from repro.core import BeldiConfig, BeldiRuntime

    runtime = BeldiRuntime(seed=5, latency_scale=1.0, observability=True,
                           config=BeldiConfig(gc_t=1e12))
    app = TravelReservationApp(seed=5, n_hotels=2, n_flights=2,
                               rooms_per_hotel=2, seats_per_flight=2,
                               n_users=1)
    app.register(runtime)
    app.seed_data(runtime)
    result = runtime.run_workflow("frontend", {
        "action": "reserve", "user": "user-0000", "hotel": "hotel-0000",
        "flight": "flight-0001"})
    runtime.kernel.shutdown()
    assert result["ok"]
    return runtime.obs.tracer


def test_traced_travel_request_at_real_latency_nests_and_splits_tails():
    """At ``latency_scale=0`` every span is zero-width and containment
    proves nothing. One travel reservation at real latencies: every
    child sits inside its parent, although each sync callee outlives its
    caller's ``step.invoke`` span — the request span ends at the reply,
    the callback + ``Done`` tail is a parentless span on a row of its
    own."""
    tracer = _traced_travel_reservation()
    trace = tracer.to_chrome()
    assert validate_chrome_trace(trace) == []
    read = history.of(tracer.records)
    assert sum(1 for record in read.records
               if record["phase"] == 0 and record["dur"] > 0) > 50

    tails = read.prefixed("tail:")
    callees = [record for record in read.in_cat("request")
               if record["parent_id"] and record["phase"] == 0]
    assert len(tails) == len(callees) == 3  # reserve, hotel, flight
    replies = {record["parent_id"]: record for record in read.named("reply")}
    outlived = 0
    for tail in tails:
        request = read.spans(tail["span_id"].removesuffix("#tail"))[-1]
        step = read.spans(request["parent_id"])[-1]
        # Off the critical path: no parent, a row of its own, starting
        # where the request span ended — at the reply.
        assert tail["parent_id"] is None
        assert tail["track"] == tail["span_id"] != request["track"]
        # (``dur`` is ``end - ts``; adding it back may differ in the last bit.)
        assert tail["ts"] == pytest.approx(request["ts"] + request["dur"],
                                           abs=1e-9)
        assert replies[request["span_id"]]["ts"] == tail["ts"]
        assert tail["dur"] > 0  # a platform invocation and two updates
        outlived += tail["ts"] + tail["dur"] > step["ts"] + step["dur"]
    assert outlived == len(tails)

    # The containment check is live at this scale: a request span that
    # covered its tail as well would escape the caller's step span.
    stretched = json.loads(json.dumps(trace))
    victim = next(event for event in stretched["traceEvents"]
                  if event.get("cat") == "request"
                  and "parent_id" in event.get("args", {}))
    victim["dur"] += 1000.0 * tails[0]["dur"]
    assert any("escapes parent" in problem
               for problem in validate_chrome_trace(stretched))


# ---------------------------------------------------------------------------
# The lifecycle vocabulary: emitted = checked = documented
# ---------------------------------------------------------------------------

REPO = pathlib.Path(__file__).resolve().parents[2]


def test_lifecycle_events_are_the_ones_checked_and_documented(traced):
    """An event renamed, dropped or added moves the checker and the docs
    with it: the ``cat="lifecycle"`` names traced runs emit, the names
    ``history.check`` reads and the lifecycle row of the span-model
    table are one set, and every such event names its execution."""
    events = [record
              for records in (traced.travel.obs.tracer.records,
                              _traced_travel_reservation().records)
              for record in history.of(records).in_cat("lifecycle")]
    (row,) = [line for line in (REPO / "docs" / "observability.md")
              .read_text().splitlines() if line.startswith("| lifecycle |")]
    documented = set(re.findall(r"`([^`]+)`", row.split("|")[2]))
    assert {event["name"] for event in events} == history.EVENTS
    assert documented == history.EVENTS
    for event in events:
        assert event["phase"] == 1  # instant: its seq is happen order
        assert {"function", "invocation"} <= set(event["args"]), event
    # Read by the checker, not merely declared: the concurrent mix puts
    # every kind of row in the ledger.
    ledger = history.of(traced.travel.obs.tracer.records).rows
    assert {row[0] for row in ledger} == history.EVENTS | {"txn-start"}


def test_the_ledger_is_functions_over_records_and_nothing_else():
    """The recorder does not come back: the reader of the trace
    (``repro.obs.history``) imports no mocking, no threading and nothing
    of the system under test."""
    tree = ast.parse(
        (REPO / "src" / "repro" / "obs" / "history.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not [name for name in imported
                if name.split(".")[0] in ("unittest", "mock", "threading")
                or name.startswith(("repro.core", "repro.platform"))]


# ---------------------------------------------------------------------------
# Every count has one home: the protocol's own counts are trace events
# ---------------------------------------------------------------------------

SRC = REPO / "src" / "repro"


def _doc_rows(heading: str) -> list:
    """The table rows (``| `...``) of one section of the observability
    page, up to the next heading of any level."""
    lines = (REPO / "docs" / "observability.md").read_text().splitlines()
    section = lines[lines.index(heading) + 1:]
    section = section[:next(i for i, line in enumerate(section)
                            if line.startswith("#"))]
    return [line for line in section if line.startswith("| `")]
#: Categories whose instant events the "Protocol events" table documents.
PROTOCOL_CATS = ("txn", "readlog", "gc", "daal")


def _emitted_events(tree) -> set:
    """``(name, cat)`` of every ``.event(name, cat=...)`` call in ``tree``
    whose ``cat`` is a protocol category. A name held in a loop variable
    over a tuple of literals resolves to each of them; any other name is
    kept as its source text, which no docs row matches."""
    loops = {node.target.id: [elt.value for elt in node.iter.elts]
             for node in ast.walk(tree)
             if isinstance(node, ast.For)
             and isinstance(node.target, ast.Name)
             and isinstance(node.iter, ast.Tuple)
             and all(isinstance(elt, ast.Constant)
                     for elt in node.iter.elts)}
    found = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "event"):
            continue
        cats = [kw.value.value for kw in node.keywords
                if kw.arg == "cat" and isinstance(kw.value, ast.Constant)]
        if not cats or cats[0] not in PROTOCOL_CATS:
            continue
        name = node.args[0]
        if isinstance(name, ast.Constant):
            names = [name.value]
        elif isinstance(name, ast.Name) and name.id in loops:
            names = loops[name.id]
        else:
            names = [ast.unparse(name)]
        found.update((value, cats[0]) for value in names)
    return found


def test_protocol_events_are_the_ones_documented(trace):
    """Every count has one home. No metrics registry comes back, the
    tracer keys nothing on OS threads, and the ``cat="txn"`` /
    ``"readlog"`` / ``"gc"`` events ``src/`` emits are the rows of the
    protocol-events table in ``docs/observability.md`` — which the
    traced mix emits nothing outside of."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    assert len(trees) > 50, "the scan found almost nothing"
    assert not [path for path in trees if re.search(
        r"metrics\.(inc|observe|set_gauge)\(", path.read_text())]
    obs_imports = {name.split(".")[0]
                   for path, tree in trees.items()
                   if path.parent.name == "obs"
                   for node in ast.walk(tree)
                   for name in (
                       [alias.name for alias in node.names]
                       if isinstance(node, ast.Import)
                       else [node.module or ""]
                       if isinstance(node, ast.ImportFrom) else [])}
    assert obs_imports and "threading" not in obs_imports

    emitted = set().union(*map(_emitted_events, trees.values()))
    documented = {tuple(re.findall(r"`([^`]+)`", "|".join(
        line.split("|")[1:3]))) for line in _doc_rows("## Protocol events")}
    assert emitted == documented
    assert history.PROTOCOL <= {name for name, _cat in documented}
    traced_events = {(record["name"], record["cat"])
                     for cat in PROTOCOL_CATS
                     for record in trace.in_cat(cat)
                     if record["phase"] == 1}
    assert traced_events and traced_events <= documented


def test_op_span_args_are_the_ones_documented(trace):
    """The version facts ride on the ``op.*`` spans: the args a traced
    run puts on the spans ``history.py`` reads are the ones the docs
    list, and the concurrent mix says every fact the checkers need."""
    documented = {re.findall(r"`([^`]+)`", line)[0]
                  for line in _doc_rows("### `op.*` span args")}
    emitted = {arg for name in (*history.OPS, "op.read_flush")
               for record in trace.named(name) for arg in record["args"]}
    assert emitted <= documented
    assert {"key", "read", "landed", "txn", "first", "steps"} <= emitted
    # A lost flush's fact, which only a race shows
    # (test_schedule_exploration.py), is documented too.
    assert "lost" in documented
