"""Each protocol rule under ``src/repro/core/`` is written once.

``ops._logged_write`` is the one write / condWrite case loop,
``invoke.at_least_once`` the one delivery loop, ``daal.reachable_rows``
the one §4.1 walk and ``daal.tail_row`` the one tail resolver. These
tests fail if a copy of any of them grows back and diverges — by
behaviour (the crash-tag shapes of ``write`` and ``condWrite``, what the
traversal and the collector call reachable) and by source (the guard at
the bottom).
"""

import pathlib
import re

import pytest

from repro.core import BeldiConfig, BeldiRuntime, daal, gc, invoke
from repro.kvstore import AttrExists, AttrNotExists
from repro.platform import RecordingPolicy
from repro.platform.errors import (FunctionCrashed, FunctionTimeout,
                                   TooManyRequests)

CORE = pathlib.Path(invoke.__file__).resolve().parent
SRC = CORE.parent.parent


# ---------------------------------------------------------------------------
# one case loop: write and condWrite reach the same crash points
# ---------------------------------------------------------------------------

#: op -> what the probed handler does at its one logged write
OPS = {
    "write": lambda ctx: ctx.write("kv", "k", "v"),
    "condwrite-b1": lambda ctx: ctx.cond_write("kv", "k", "v",
                                               AttrExists("RowId")),
    "condwrite-b2": lambda ctx: ctx.cond_write("kv", "k", "v",
                                               AttrNotExists("RowId")),
}


def _fresh_key(runtime, table):
    """Nothing there yet: the probe creates the head."""


def _full_row(runtime, table):
    """A full tail nobody extended (no fast path: lazy case D)."""
    runtime.run_workflow("fill", 2)


def _stale_cached_tail(runtime, table):
    """The filler extended the chain; the cache still names the old,
    full row (case C after a bounce)."""
    runtime.run_workflow("fill", 2)
    runtime.tail_cache.remember_tail(table, "k", daal.HEAD_ROW_ID)


def _one_slot_left(runtime, table):
    """The probe's entry fills the row: it extends the chain itself."""
    runtime.run_workflow("fill", 1)


#: name -> (set-up, config, the shape every op must record)
SCENARIOS = {
    "fresh-key": (_fresh_key, {}, ["start", "try:HEAD", "done"]),
    "full-row": (_full_row, {"without": "fastpath"},
                 ["start", "try:HEAD", "try:<row>", "done"]),
    "stale-cached-tail": (_stale_cached_tail, {},
                          ["start", "try:HEAD", "try:<row>", "done"]),
    "one-slot-left": (_one_slot_left, {},
                      ["start", "try:HEAD", "done", "extend:put"]),
}


def crash_tag_shapes(op: str, scenario: str) -> list:
    """The probed op's crash tags, its ``write:<step>`` /
    ``condwrite:<step>`` prefix cut off and fresh row ids blanked."""
    prepare, config, _shape = SCENARIOS[scenario]
    runtime = BeldiRuntime(seed=7, config=BeldiConfig(
        row_log_capacity=2, gc_t=1e12, **config))
    try:
        def fill(ctx, count):
            for value in range(count):
                ctx.write("kv", "k", value)

        probe = runtime.register_ssf(
            "probe", lambda ctx, payload: OPS[op](ctx), tables=["kv"])
        runtime.register_ssf("fill", fill, env=probe.env)
        prepare(runtime, probe.env.data_table("kv"))
        policy = RecordingPolicy()
        runtime.platform.crash_policy = policy
        runtime.run_workflow("probe")
    finally:
        runtime.kernel.shutdown()
    prefix = re.compile(r"^(?:cond)?write:\d+:")
    return [re.sub(r"^try:row-.*", "try:<row>", prefix.sub("", tag))
            for function, _index, tag in policy.points
            if function == "probe" and prefix.match(tag)]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("op", sorted(OPS))
def test_write_and_cond_write_share_their_crash_tag_shapes(op, scenario):
    assert crash_tag_shapes(op, scenario) == SCENARIOS[scenario][2]


# ---------------------------------------------------------------------------
# one delivery loop
# ---------------------------------------------------------------------------

class _Sleeper:
    """Stands in for the platform context: records virtual sleeps."""

    def __init__(self):
        self.sleeps = []

    def sleep(self, duration):
        self.sleeps.append(duration)


def _failing(times, error=FunctionCrashed):
    calls = []

    def attempt():
        calls.append(len(calls))
        if len(calls) <= times:
            raise error(f"attempt {len(calls)}")
        return "delivered"

    return attempt, calls


CONFIG = BeldiConfig(invoke_retry_backoff=7.0, invoke_retry_limit=3)


class TestAtLeastOnce:
    @pytest.mark.parametrize("error", [FunctionCrashed, FunctionTimeout,
                                       TooManyRequests])
    def test_retries_on_the_linear_schedule(self, error):
        sleeper = _Sleeper()
        attempt, calls = _failing(3, error)
        assert invoke.at_least_once(sleeper, CONFIG, attempt) == "delivered"
        assert len(calls) == 4
        assert sleeper.sleeps == [7.0, 14.0, 21.0]

    def test_recovered_ends_the_loop_without_another_attempt(self):
        sleeper = _Sleeper()
        attempt, calls = _failing(10)
        looked = []

        def recovered():
            looked.append(len(calls))
            return "logged" if len(looked) == 2 else invoke.NO_RESULT

        assert invoke.at_least_once(sleeper, CONFIG, attempt,
                                    recovered=recovered) == "logged"
        assert calls == [0, 1] and looked == [1, 2]
        assert sleeper.sleeps == [7.0]

    def test_a_recovered_none_is_an_outcome(self):
        attempt, calls = _failing(10)
        assert invoke.at_least_once(_Sleeper(), CONFIG, attempt,
                                    recovered=lambda: None) is None
        assert calls == [0]

    def test_past_the_limit_it_raises_what_exhausted_builds(self):
        sleeper = _Sleeper()
        attempt, calls = _failing(10)
        with pytest.raises(invoke.InvokeFailed, match="gave up after 4"):
            invoke.at_least_once(
                sleeper, CONFIG, attempt,
                exhausted=lambda attempts: invoke.InvokeFailed(
                    f"gave up after {attempts}"))
        assert len(calls) == 4 and sleeper.sleeps == [7.0, 14.0, 21.0]

    def test_without_exhausted_the_platform_error_comes_out(self):
        attempt, calls = _failing(10, FunctionTimeout)
        with pytest.raises(FunctionTimeout, match="attempt 4"):
            invoke.at_least_once(_Sleeper(), CONFIG, attempt)
        assert len(calls) == 4

    def test_other_errors_are_not_retried(self):
        def attempt():
            raise KeyError("not a delivery failure")

        sleeper = _Sleeper()
        with pytest.raises(KeyError):
            invoke.at_least_once(sleeper, CONFIG, attempt)
        assert sleeper.sleeps == []


# ---------------------------------------------------------------------------
# one reachability rule
# ---------------------------------------------------------------------------

class TestReachableRows:
    def test_walks_head_to_tail(self):
        assert daal.reachable_rows(
            {"b": None, "HEAD": "a", "a": "b"}) == ["HEAD", "a", "b"]

    def test_no_head_no_chain(self):
        assert daal.reachable_rows({}) == []
        assert daal.reachable_rows({"a": None}) == []

    def test_stops_at_a_missing_successor(self):
        assert daal.reachable_rows(
            {"HEAD": "a", "a": "gone", "b": None}) == ["HEAD", "a"]

    def test_terminates_on_a_cycle(self):
        assert daal.reachable_rows(
            {"HEAD": "a", "a": "b", "b": "a"}) == ["HEAD", "a", "b"]

    def test_never_returns_an_orphan(self):
        assert daal.reachable_rows(
            {"HEAD": "a", "a": None, "orphan": None,
             "disconnected": "a"}) == ["HEAD", "a"]

    def test_traversal_and_collector_agree(self):
        """One chain holding a disconnected row (it still points into
        the chain) and an orphan candidate (nothing points at it): the
        rows the collector stamps as dangling are exactly the rows the
        traversal does not reach."""
        runtime = BeldiRuntime(seed=3, config=BeldiConfig(gc_t=1e12))
        try:
            ssf = runtime.register_ssf("f", lambda ctx, p: None,
                                       tables=["kv"])
            env, store = ssf.env, ssf.env.store
            table = env.data_table("kv")
            live = {"RecentWrites": {"inst#1": True}, "LogSize": 1}
            for row_id, next_row in (("HEAD", "a"), ("a", "c"),
                                     ("disconnected", "c"), ("c", None),
                                     ("orphan", None)):
                row = {"Key": "k", "RowId": row_id, "Value": 0,
                       "Version": 0, **live}
                if next_row is not None:
                    row["NextRow"] = next_row
                store.put(table, row)
            skeleton = daal.load_skeleton(store, table, "k")
            assert skeleton.reachable == ["HEAD", "a", "c"]
            assert sorted(skeleton.orphans) == ["disconnected", "orphan"]

            stats = {"stale_locks": 0, "pruned_entries": 0,
                     "disconnected": 0, "deleted_rows": 0}
            liveness = gc._Liveness(env, live={"inst"}, recyclable=set())
            runtime.kernel.spawn(
                gc._collect_chain, store, table, "k", liveness,
                now=5.0, t_bound=1e12, stats=stats)
            runtime.kernel.run()
            dangling = [row["RowId"] for row in store.query(table, "k").items
                        if "DangleTime" in row]
            assert sorted(dangling) == sorted(skeleton.orphans)
            assert stats["disconnected"] == stats["pruned_entries"] == 0
        finally:
            runtime.kernel.shutdown()


# ---------------------------------------------------------------------------
# the guard: no second copy in the source
# ---------------------------------------------------------------------------

def _core_sources() -> dict:
    sources = {path.name: path.read_text()
               for path in sorted(CORE.glob("*.py"))}
    assert len(sources) > 10, "the scan found almost nothing"
    return sources


def test_core_has_one_case_loop():
    loops = {name: source.count("range(_MAX_CHAIN_STEPS)")
             for name, source in _core_sources().items()}
    assert {name: count for name, count in loops.items() if count} == {
        "ops.py": 1}


def test_only_the_delivery_loop_catches_a_failed_delivery():
    """``except (FunctionCrashed, FunctionTimeout, TooManyRequests)`` is
    ``invoke.at_least_once`` and nothing else; the two errors that only
    a delivery raises are not even named elsewhere in core."""
    triple = re.compile(r"except\s*\(\s*FunctionCrashed\s*,\s*"
                        r"FunctionTimeout\s*,\s*TooManyRequests\s*,?\s*\)")
    sources = _core_sources()
    assert len(triple.findall(sources["invoke.py"])) == 1
    named = [name for name, source in sources.items()
             if re.search(r"\bFunction(Crashed|Timeout)\b", source)]
    assert named == ["invoke.py"]


def test_the_retry_limit_is_read_at_one_site():
    reads = [f"{path.relative_to(SRC)}:{number}"
             for path in sorted(SRC.rglob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"\.invoke_retry_limit\b", line)]
    assert len(reads) == 1 and reads[0].startswith("repro/core/invoke.py")
