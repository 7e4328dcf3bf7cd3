"""Concurrent-workload crash sweep at the deepest topology.

Three conflicting requests (two travel reservations on the same
hotel/flight rows + a movie compose-review) run concurrently on one
kernel over a shared 2-shard, 3-replica store with leader crashes and
hot-shard elasticity on. A recording run enumerates the combined crash
space across both hosted platforms; the sweep then re-runs the whole mix
once per recorded point, killing that one invocation there, and asserts
the full invariant triple — exactly-once effects, atomicity, clean store
and zero placement residue — after recovery + GC. See docs/testing.md.
"""

from __future__ import annotations

import pytest

import dst
from repro.platform import CrashOnce, CrashScript, RecordingPolicy
from repro.platform.crashes import PrefixedPolicy


def _record_points():
    h = dst.build_harness(dst.DEEP_FLAGS)
    recording = RecordingPolicy()
    h.set_crash_policy(recording)
    results = dst.run_requests(h)
    dst.check_effects(h)
    h.shutdown()
    points = recording.unique_points()
    assert len(points) > 200, "suspiciously small concurrent crash space"
    return points, results


def test_concurrent_mix_actually_conflicts():
    """The mix must contend: under FIFO both reservations reach the same
    hotel/flight rows and wait-die resolves the conflict — exactly one
    of the two commits (capacity admits both, the lock order does not).
    Pinned so a payload change cannot quietly de-conflict the sweep."""
    h = dst.build_harness(dst.DEEP_FLAGS)
    try:
        results = dst.run_requests(h)
        dst.check_effects(h)
        oks = sorted(bool(isinstance(results[name], dict)
                          and results[name].get("ok"))
                     for name in ("travel-a", "travel-b"))
        assert oks == [False, True], results
        assert results["movie-c"].get("ok"), results
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


@pytest.mark.parametrize("group", ["travel", "movie"])
def test_concurrent_crash_sweep(group):
    """Every reachable crash point, once, under the full concurrent mix."""
    points, _ = _record_points()
    selected = [p for p in points
                if p[0].startswith(dst.MOVIE_PREFIX) == (group == "movie")]
    assert selected, f"no {group} points recorded"
    failures = []
    total_failovers = 0
    total_migrations = 0
    for function, index, tag in selected:
        h = dst.build_harness(dst.DEEP_FLAGS)
        h.set_crash_policy(CrashOnce(function, tag,
                                     invocation_index=index))
        try:
            dst.run_requests(h)
            dst.check_effects(h)
            assert h.injected_crashes == 1, (
                "crash point was not reached on the re-run")
            dst.run_gc_passes(h)
            dst.assert_store_clean(h)
        except AssertionError as exc:  # collect, report all at once
            failures.append((function, index, tag, str(exc)))
        finally:
            if hasattr(h.travel.store, "replication_stats"):
                total_failovers += (
                    h.travel.store.replication_stats.failovers)
            if h.travel.elasticity is not None:
                stats = h.travel.elasticity.migrator.stats
                total_migrations += (stats.migrations
                                     + stats.rolled_forward
                                     + stats.rolled_back)
            h.shutdown()
    assert not failures, (
        f"{len(failures)}/{len(selected)} crash points violated "
        f"exactly-once/cleanliness:\n" + "\n".join(
            f"  {f}#{i} @ {t}: {msg.splitlines()[0]}"
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
        dst.run_gc_passes(h)
        dst.assert_store_clean(h)
    finally:
        h.shutdown()


def test_prefixed_policy_namespaces_functions():
    inner = RecordingPolicy()
    prefixed = PrefixedPolicy(inner, "movie:")
    prefixed.should_crash("frontend", 0, "enter")
    inner.should_crash("frontend", 0, "enter")
    assert inner.points == [("movie:frontend", 0, "enter"),
                            ("frontend", 0, "enter")]
