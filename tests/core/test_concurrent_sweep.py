"""Concurrent-workload crash sweep at the deepest topology.

Three conflicting requests (two travel reservations on the same
hotel/flight rows + a movie compose-review) run concurrently on one
kernel over a shared 2-shard, 3-replica store with leader crashes and
hot-shard elasticity on. A recording run enumerates the combined crash
space across both hosted platforms; the sweep then re-runs the whole mix
once per recorded point, killing that one invocation there, and asserts
the full invariant triple — exactly-once effects, atomicity, clean store
and zero placement residue — after recovery + GC, for both ways wait-die
can settle the reservations' conflict (``MIXES``). See docs/testing.md.
"""

from __future__ import annotations

import pytest

import dst
from repro.platform import CrashOnce, CrashScript, RecordingPolicy
from repro.platform.crashes import PrefixedPolicy


# The two ways wait-die settles the reservations' conflict; both are
# swept. ``waits``: the seed's own request ids make the first lock holder
# the younger transaction, the second waits it out and both commit — a
# crashed holder is outlasted by its waiter. ``dies``: named clients rank
# the first holder older, the second dies and aborts (one commit).
MIXES = {"waits": dst.REQUESTS, "dies": dst.CONTENDED_REQUESTS}


def _record_points(mix="waits"):
    h = dst.build_harness(dst.DEEP_FLAGS)
    recording = RecordingPolicy()
    h.set_crash_policy(recording)
    results = dst.run_requests(h, MIXES[mix])
    dst.check_effects(h)
    h.shutdown()
    points = recording.unique_points()
    assert len(points) > 200, "suspiciously small concurrent crash space"
    return points, results


@pytest.mark.parametrize("mix,commits,event", [
    ("waits", [True, True], "lock:wait"),
    ("dies", [False, True], "lock:die")])
def test_concurrent_mix_actually_conflicts(mix, commits, event):
    """The mix must contend: under FIFO both reservations reach the same
    hotel/flight rows and wait-die resolves the conflict — the later
    transaction waits for the lock or dies at it, and the lock order (not
    capacity, which admits both) decides how many commit. Pinned per
    regime so a payload, seed or id-rule change cannot quietly
    de-conflict the sweep or fold its two regimes into one."""
    h = dst.build_harness(dst.DEEP_FLAGS)
    try:
        results = dst.run_requests(h, MIXES[mix])
        dst.check_effects(h)
        oks = sorted(bool(isinstance(results[name], dict)
                          and results[name].get("ok"))
                     for name in ("travel-a", "travel-b"))
        assert oks == commits, results
        assert results["movie-c"].get("ok"), results
        settled = {name: sum(1 for record in h.travel.obs.tracer.records
                             if record["name"] == name)
                   for name in ("lock:wait", "lock:die")}
        assert settled[event] >= 1, settled
        assert not any(count for name, count in settled.items()
                       if name != event), settled
    finally:
        h.shutdown()


def test_crash_space_covers_both_platforms_and_migrations():
    points, results = _record_points()
    functions = {fn for fn, _i, _t in points}
    assert any(fn.startswith(dst.MOVIE_PREFIX) for fn in functions)
    assert any(not fn.startswith(dst.MOVIE_PREFIX) for fn in functions)
    migration_points = sum(1 for _f, _i, tag in points
                           if tag.startswith("migrate:"))
    assert migration_points >= 3, (
        f"only {migration_points} migrate:* points recorded")
    txn_points = sum(1 for _f, _i, tag in points
                     if tag.startswith("txn:"))
    assert txn_points >= 3, f"only {txn_points} txn:* points recorded"
    # The window between a callee's reply and its callback is swept on
    # both platforms, for every callee that calls back.
    replied = {fn for fn, _i, tag in points if tag == "reply:sent"}
    assert replied == {fn for fn, _i, tag in points
                       if tag == "callback:done"}
    assert {fn.startswith(dst.MOVIE_PREFIX) for fn in replied} == {
        True, False}
    # So is the window of a pipelined open: callee running, no claim —
    # which the in-transaction invokes of ``reserve`` never have.
    opened = {fn for fn, _i, tag in points
              if tag.startswith("invoke:") and tag.endswith(":dispatched")}
    assert {fn.startswith(dst.MOVIE_PREFIX) for fn in opened} == {
        True, False}
    assert "reserve" not in opened


@pytest.mark.parametrize("mix,group", [
    ("waits", "travel"), ("waits", "movie"),
    # The movie workflow shares no row with the reservations; one regime
    # covers its points.
    ("dies", "travel")])
def test_concurrent_crash_sweep(mix, group):
    """Every reachable crash point, once, under the full concurrent mix."""
    points, _ = _record_points(mix)
    selected = [p for p in points
                if p[0].startswith(dst.MOVIE_PREFIX) == (group == "movie")]
    assert selected, f"no {group} points recorded"

    def sweep_point(point):
        """One swept run: ``(failure line or None, failovers,
        migrations)``."""
        function, index, tag = point
        h = dst.build_harness(dst.DEEP_FLAGS)
        h.set_crash_policy(CrashOnce(function, tag,
                                     invocation_index=index))
        failure = None
        try:
            dst.run_requests(h, MIXES[mix])
            dst.check_effects(h)
            assert h.injected_crashes == 1, (
                "crash point was not reached on the re-run")
            dst.run_gc_passes(*h.runtimes.values())
            dst.assert_store_clean(h.travel.store, h.runtimes.values())
        except AssertionError as exc:  # collect, report all at once
            failure = dst.failure_line(exc)
        finally:
            failovers = migrations = 0
            if hasattr(h.travel.store, "replication_stats"):
                failovers = h.travel.store.replication_stats.failovers
            if h.travel.elasticity is not None:
                stats = h.travel.elasticity.migrator.stats
                migrations = (stats.migrations + stats.rolled_forward
                              + stats.rolled_back)
            h.shutdown()
        return failure, failovers, migrations

    # The points are independent runs: two processes share them.
    runs = dst.map_forked(sweep_point, selected)
    failures = [(function, index, tag, failure)
                for (function, index, tag), (failure, _f, _m)
                in zip(selected, runs) if failure is not None]
    total_failovers = sum(failovers for _l, failovers, _m in runs)
    total_migrations = sum(migrations for _l, _f, migrations in runs)
    assert not failures, (
        f"{len(failures)}/{len(selected)} crash points violated "
        f"exactly-once/cleanliness:\n" + "\n".join(
            f"  {f}#{i} @ {t}: {msg}"
            for f, i, t, msg in failures[:10]))
    # The deep sweep is only meaningful if the topology actually bit:
    # leaders crashed and chains migrated across the swept re-runs.
    assert total_failovers > len(selected), (
        f"only {total_failovers} leader failovers across "
        f"{len(selected)} swept runs")
    assert total_migrations > len(selected), (
        f"only {total_migrations} migrations across "
        f"{len(selected)} swept runs")


def test_multi_request_crash_script():
    """Crash *two* requests in one run — one travel invocation and one
    movie invocation — and still demand the full invariant triple."""
    points, _ = _record_points()
    travel_pt = next((f, i, t) for f, i, t in points
                     if not f.startswith(dst.MOVIE_PREFIX)
                     and t == "body:done")
    movie_pt = next((f, i, t) for f, i, t in points
                    if f.startswith(dst.MOVIE_PREFIX)
                    and t == "body:done")
    script = CrashScript.of(
        (travel_pt[0], travel_pt[1], travel_pt[2]),
        (movie_pt[0], movie_pt[1], movie_pt[2]))
    h = dst.build_harness(dst.DEEP_FLAGS)
    h.set_crash_policy(script)
    try:
        dst.run_requests(h)
        dst.check_effects(h)
        assert h.injected_crashes == 2, (
            f"expected both scripted crashes, got {h.injected_crashes}")
        assert not script.remaining
        dst.run_gc_passes(*h.runtimes.values())
        dst.assert_store_clean(h.travel.store, h.runtimes.values())
    finally:
        h.shutdown()


def test_prefixed_policy_namespaces_functions():
    inner = RecordingPolicy()
    prefixed = PrefixedPolicy(inner, "movie:")
    prefixed.should_crash("frontend", 0, "enter")
    inner.should_crash("frontend", 0, "enter")
    assert inner.points == [("movie:frontend", 0, "enter"),
                            ("frontend", 0, "enter")]


def test_a_failure_without_a_message_still_names_itself():
    """The sweeps report ``dst.failure_line(exc)`` per failing point; a
    bare ``assert`` in a harness module (no pytest rewriting there) has
    an empty ``str()`` and used to crash the report itself."""
    def bare():
        raise AssertionError

    try:
        bare()
    except AssertionError as exc:
        line = dst.failure_line(exc)
    assert line.startswith("test_concurrent_sweep.py:")
    assert line.endswith("raise AssertionError")
    assert dst.failure_line(AssertionError("first\nsecond")) == "first"
    assert dst.failure_line(AssertionError()) == "AssertionError"
