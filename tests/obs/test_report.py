"""``repro.obs.report``: the answers over a run's trace, and the one
reader they share with the checkers.

- slow: every root request's exclusive per-layer ms sum to its span;
- cost: the store spans' booked dollars sum to the metered bill;
- incident: fault edges, breaker transitions and failovers in virtual
  time order, and per-transaction phase lines in protocol order;
- a trace re-read from JSONL (or from a DST failure artifact) builds the
  same history and the same answers as the live records;
- nothing but ``repro.obs.history`` passes over raw records.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "core"))
import dst  # noqa: E402
import history as checkers  # noqa: E402

from repro.apps import build_app  # noqa: E402
from repro.core import BeldiConfig, BeldiRuntime  # noqa: E402
from repro.obs import report  # noqa: E402
from repro.obs.history import History, load  # noqa: E402
from repro.obs.tracer import chrome, validate_chrome_trace  # noqa: E402
from repro.platform.crashes import CrashOnce  # noqa: E402
from repro.sim import RandomSource  # noqa: E402

REPO = pathlib.Path(__file__).resolve().parents[2]


def _drive(runtime, entry: str, payloads: list, gap_ms: float) -> None:
    """One client per payload, arriving ``gap_ms`` apart."""
    def client(at: float, payload) -> None:
        runtime.kernel.sleep(at)
        runtime.client_call(entry, payload)

    for index, payload in enumerate(payloads):
        runtime.kernel.spawn(client, index * gap_ms, payload)
    runtime.kernel.run()
    runtime.kernel.shutdown()


def _travel_run():
    """Twelve travel requests at real latencies on one node."""
    runtime = BeldiRuntime(seed=5, latency_scale=1.0, observability=True,
                           config=BeldiConfig(gc_t=1e12))
    app = build_app("travel", seed=5)
    app.install(runtime)
    mix = RandomSource(5, "report/travel")
    _drive(runtime, app.entry,
           [app.sample_request(mix) for _ in range(12)], 30.0)
    return runtime


def _profile_run():
    """Twenty profile reads + writes at real latencies on 4 shards x 2
    replicas."""
    runtime = BeldiRuntime(seed=5, latency_scale=1.0, observability=True,
                           shards=4, replicas=2,
                           config=BeldiConfig(gc_t=1e12))

    def profile(ctx, payload):
        record = ctx.read("profiles", payload) or {"visits": 0}
        ctx.write("profiles", payload, {"visits": record["visits"] + 1})

    ssf = runtime.register_ssf("profile", profile, tables=["profiles"])
    for i in range(8):
        ssf.env.seed("profiles", f"user-{i}", {"visits": 0})
    _drive(runtime, "profile", [f"user-{i % 8}" for i in range(20)], 10.0)
    return runtime


@pytest.fixture(scope="module")
def travel():
    return _travel_run()


@pytest.fixture(scope="module")
def profile():
    return _profile_run()


@pytest.fixture(scope="module")
def outage():
    """The nemesis sweep's leader outage on the deep topology."""
    return dst.run_one(dst.scenario_flags(
        dst.DEEP_FLAGS, dst.DEEP_SCENARIOS["leader-outage"])).travel


def _read(runtime) -> History:
    return History(runtime.obs.tracer.records)


# ---------------------------------------------------------------------------
# slow, cost
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("run", ["travel", "profile"])
def test_every_request_s_layers_sum_to_its_span(run, request):
    rows = report.slow(_read(request.getfixturevalue(run)))
    assert len(rows) >= 12
    for row in rows:
        assert row["dur"] > 0
        assert sum(row["layers"].values()) == pytest.approx(row["dur"],
                                                            abs=1e-6)
    layers = set().union(*(row["layers"] for row in rows))
    assert {"op", "store.cond_write"} <= layers
    if run == "travel":
        # The walk crosses into callees, which reply before their
        # callback: the tail is off the path.
        assert "step" in layers
        assert all(row["tail"] > 0 for row in rows)


def test_window_selects_requests_by_arrival(travel):
    rows = report.slow(_read(travel))
    first, last = rows[3]["ts"], rows[7]["ts"]
    picked = report.slow(_read(travel), (first, last))
    assert [row["request"] for row in picked] == [
        row["request"] for row in rows[3:7]]


def test_cost_on_one_node_is_the_bill(travel):
    bill = travel.store.metering.dollar_cost()
    spent = report.cost(_read(travel), bill)
    attributed = sum(dollars for _n, dollars in spent["rows"].values())
    assert attributed == pytest.approx(bill, rel=1e-9)
    assert spent["unattributed"] == 0
    assert {layer for layer, _op in spent["rows"]} >= {"op", "request",
                                                       "tail", "txn"}


def test_cost_on_shards_and_replicas_sums_to_the_bill(profile):
    bill = profile.store.metering.dollar_cost()
    spent = report.cost(_read(profile), bill)
    attributed = sum(dollars for _n, dollars in spent["rows"].values())
    assert attributed + spent["unattributed"] == pytest.approx(bill,
                                                               rel=1e-9)
    assert spent["unattributed"] >= 0


@pytest.mark.parametrize("run", ["travel", "profile"])
def test_past_set_up_every_store_round_trip_sits_in_a_span(run, request):
    """A callback, a transaction signal and an async registration each
    run in a span of their own, so no store span after set-up (the rows
    seeded before the first request) is parentless, and ``cost``'s
    ``background`` row holds the seeded rows and nothing else. A
    callback is booked to the step layer, inside its callee's tail."""
    history = _read(request.getfixturevalue(run))
    set_up = min(span["seq"] for span in history.prefixed("request:"))
    seeded = [span for span in history.in_cat("store")
              if span["seq"] < set_up]
    assert seeded
    assert not [span for span in history.in_cat("store")
                if span["seq"] > set_up and span["parent_id"] is None]
    background = {op: count for (layer, op), (count, _dollars)
                  in report.cost(history)["rows"].items()
                  if layer == "background"}
    assert background == dict(Counter(span["name"] for span in seeded))
    if run == "travel":
        callbacks = history.prefixed("step.callback:")
        assert callbacks and {history.parent(callback)["name"].split(":")[0]
                              for callback in callbacks} == {"tail"}
        assert all([store["name"] for store in history.children(
            callback["span_id"]) if store["cat"] == "store"]
            == ["store.cond_write"] for callback in callbacks)
        assert history.prefixed("txn.signal:")


# ---------------------------------------------------------------------------
# incident
# ---------------------------------------------------------------------------

def test_an_outage_comes_out_in_virtual_time_order(outage):
    events = [line for line in report.incident(_read(outage))
              if "event" in line]
    names = [line["event"] for line in events]
    assert any(name.startswith("fault:outage:start") for name in names)
    assert any(name.startswith("breaker:open") for name in names)
    assert any(name.startswith("failover:") for name in names)
    assert [(line["ts"], line["seq"]) for line in events] == sorted(
        (line["ts"], line["seq"]) for line in events)
    start = names.index(next(n for n in names if ":start:" in n))
    end = names.index(next(n for n in names if ":end:" in n))
    assert start < end


def test_phase_lines_run_in_protocol_order(outage):
    lines = report.phases(_read(outage))
    by_txn: dict = {}
    for line in lines:
        by_txn.setdefault(line["txn"], []).append(line)
    committed = [txn for txn, seen in by_txn.items()
                 if seen[-1]["phase"] == "commit"]
    victims = [txn for txn, seen in by_txn.items()
               if any(line["phase"] == "lock:die" for line in seen)]
    assert committed and victims
    order = ("begin", "locks", "flush", "release", "commit")
    for txn in committed:
        phases = [line["phase"] for line in by_txn[txn]
                  if line["phase"] in order]
        assert phases[0] == "begin"
        assert phases == sorted(phases, key=order.index), (txn, phases)
    for txn in victims:
        phases = [line["phase"] for line in by_txn[txn]]
        assert phases[-1] == "abort"
        assert phases.index("lock:die") < phases.index("abort")
    for seen in by_txn.values():
        assert [line["ts"] for line in seen] == sorted(
            line["ts"] for line in seen)


# ---------------------------------------------------------------------------
# one reader, two sources
# ---------------------------------------------------------------------------

def _crash_point_run():
    """One run of the travel reservation's crash-point sweep: a crash
    mid-request, recovered by the intent collector."""
    scenario = dst.TravelReserveScenario()
    flags = dst.SWEEP_SETTINGS["current"]
    points, _result, _config = dst.record_crash_space(scenario, flags)
    function, index, tag = points[len(points) // 2]
    runtime, _app = scenario.build(flags)
    runtime.platform.crash_policy = CrashOnce(function, tag,
                                              invocation_index=index)
    dst.run_until_recovered(runtime, scenario)
    runtime.kernel.shutdown()
    assert runtime.platform.stats.injected_crashes == 1
    return runtime


def _answers(read: History, total: float) -> tuple:
    return (report.slow(read), report.cost(read, total),
            report.incident(read))


@pytest.mark.parametrize("run", ["mix", "crash-point"])
def test_a_re_read_trace_is_the_same_history(run, tmp_path):
    runtime = (dst.run_one(dst.LIGHT_FLAGS).travel if run == "mix"
               else _crash_point_run())
    live = checkers.check(runtime.obs.tracer.records)
    path = tmp_path / "trace.jsonl"
    path.write_text(runtime.obs.tracer.to_jsonl())
    reread, metrics = load(path)
    assert metrics == {}
    assert reread.rows == live.rows
    assert reread.calls == live.calls
    assert reread.txns == live.txns
    checkers.check(reread.records)
    total = runtime.store.metering.dollar_cost()
    assert _answers(reread, total) == _answers(live, total)
    assert validate_chrome_trace(chrome(reread.records)) == []


def _seqs(witness) -> set:
    """Every record ``seq`` a checker's witness names."""
    out: set = set()
    if isinstance(witness, dict):
        for key, value in witness.items():
            if key in ("seq", "release", "flush", "begin_seq"):
                out |= set(value if isinstance(value, list) else [value])
            else:
                out |= _seqs(value)
    elif isinstance(witness, list):
        for value in witness:
            out |= _seqs(value)
    return out


def _report(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, "-m", "repro.obs.report", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def test_a_failing_history_s_artifact_reads_like_a_trace(tmp_path,
                                                         monkeypatch):
    from repro.core import daal

    path = tmp_path / "failure.json"
    monkeypatch.setenv("DST_FAILURE_FILE", str(path))
    monkeypatch.setattr(daal, "flush_value", dst.flush_after_release)
    with pytest.raises(dst.ScheduleFailure):
        dst.explore([dst.SEED])
    artifact = json.loads(path.read_text())
    assert "released its lock" in artifact["error"]
    assert "resilience" in artifact["metrics"]
    named = _seqs(artifact["history"])
    assert len(named) >= 2
    assert named <= {row["seq"] for row in artifact["records"]}
    done = _report("incident", str(path))
    assert done.returncode == 0, done.stderr
    assert [json.loads(line) for line in done.stdout.splitlines()]


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

def test_each_question_answers_from_a_file(travel, tmp_path, capsys):
    jsonl = tmp_path / "trace.jsonl"
    jsonl.write_text(travel.obs.tracer.to_jsonl())
    export = tmp_path / "export.json"
    export.write_text(json.dumps(travel.obs.export(travel)))
    assert report.main(["slow", str(jsonl), "--window", "0:200"]) == 0
    slow = capsys.readouterr().out
    assert "critical path" in slow and "mean of" in slow
    assert report.main(["cost", str(export)]) == 0
    cost = capsys.readouterr().out
    assert "unattributed" in cost and "store.cond_write" in cost
    assert report.main(["incident", str(jsonl)]) == 0
    phases = [json.loads(line)
              for line in capsys.readouterr().out.splitlines()]
    assert {line["phase"] for line in phases} >= {"begin", "commit"}
    assert report.main(["chrome", str(export)]) == 0
    assert validate_chrome_trace(json.loads(capsys.readouterr().out)) == []
    assert report.main(["diff", str(jsonl), str(jsonl)]) == 0
    assert capsys.readouterr().out.strip() == "no metric moved"


def test_diff_says_which_metric_moved_in_which_layer(tmp_path, capsys):
    def bench(path, p50, per_req):
        path.write_text("perfbench  seed=11\n" + json.dumps({
            "correct": True, "passes": {"travel-mix/dark": {
                "correct": True, "metrics": {
                    "p50_ms": {"value": p50, "unit": "ms"},
                    "kvstore.round_trips_per_req": {"value": per_req,
                                                    "unit": "count"}}}}})
            + "\n")

    bench(tmp_path / "a.txt", 155.4, 24.0)
    bench(tmp_path / "b.txt", 155.4, 25.5)
    assert report.main(["diff", str(tmp_path / "a.txt"),
                        str(tmp_path / "b.txt")]) == 0
    out = capsys.readouterr().out
    assert "kvstore" in out and "24.0" in out and "25.5" in out
    assert "p50_ms" not in out


# ---------------------------------------------------------------------------
# one reader
# ---------------------------------------------------------------------------

def _passes_over_records(tree: ast.AST) -> list:
    """Loops and comprehensions whose iterable names ``records``."""
    def names_records(node) -> bool:
        return any(isinstance(sub, ast.Name) and sub.id == "records"
                   or isinstance(sub, ast.Attribute)
                   and sub.attr == "records"
                   for sub in ast.walk(node))

    return [node.lineno if hasattr(node, "lineno") else node.iter.lineno
            for node in ast.walk(tree)
            if isinstance(node, (ast.For, ast.comprehension))
            and names_records(node.iter)]


def test_only_the_reader_passes_over_raw_records():
    for path in (REPO / "tests" / "core" / "history.py",
                 REPO / "src" / "repro" / "obs" / "report.py"):
        assert not _passes_over_records(ast.parse(path.read_text())), path
    reader = REPO / "src" / "repro" / "obs" / "history.py"
    assert _passes_over_records(ast.parse(reader.read_text()))


def test_obs_imports_nothing_from_the_bench():
    for path in sorted((REPO / "src" / "repro" / "obs").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module or ""]
                     if isinstance(node, ast.ImportFrom) else [])
            assert not [name for name in names
                        if name.startswith("repro.bench")], path
