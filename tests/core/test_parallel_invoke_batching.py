"""The batched parallel-invoke claim path, swept through every crash.

The ``async_io`` feature replaces the N conditional invoke-log puts of a
parallel fan-out with one unconditional ``batch_write`` of
*deterministic* entries (callee ids derived from ``(instance id,
step)``). The soundness argument — overwrites commute, an erased
``Result`` is re-derived from the callee's intent table — is exactly the
kind of claim that needs a crash sweep, so this file enumerates every
crash point of a fan-out workflow and re-runs it once per point with
``CrashOnce`` + intent-collector recovery, asserting exactly-once
effects both on ``current`` and with ``without="async_io"``.
"""

from __future__ import annotations

import pytest

import dst
from repro.core import BeldiConfig, BeldiRuntime
from repro.core import intents
from repro.core.invoke import _derived_callee_id
from repro.platform import CrashOnce, RecordingPolicy
from repro.platform.errors import FunctionCrashed, TooManyRequests

SEED = 11
N_BRANCHES = 3
RECOVERY_HORIZON = 40_000.0


def build_runtime(without=None) -> BeldiRuntime:
    runtime = BeldiRuntime(
        seed=SEED,
        config=BeldiConfig(gc_t=1e12, ic_restart_delay=200.0,
                           without=without))

    def fan(ctx, payload):
        results = ctx.parallel_invoke(
            [("bump", {"slot": i}) for i in range(N_BRANCHES)])
        return {"ok": True, "results": results}

    def bump(ctx, payload):
        key = f"counter-{payload['slot']}"
        current = ctx.read("counters", key) or 0
        ctx.write("counters", key, current + 1)
        return current + 1

    runtime.register_ssf("fan", fan)
    runtime.register_ssf("bump", bump, tables=["counters"])
    return runtime


def run_recovered(runtime) -> dict:
    box = {}

    def client():
        try:
            box["result"] = runtime.client_call("fan", None)
        except (FunctionCrashed, TooManyRequests):
            box["result"] = "crashed"

    runtime.start_collectors(ic_period=100.0, gc_period=1e12)
    runtime.kernel.spawn(client)
    elapsed = 0.0
    while elapsed < RECOVERY_HORIZON:
        elapsed += 500.0
        runtime.kernel.run(until=elapsed)
        if "result" in box and all(
                not intents.pending_intents(env)
                for env in runtime.envs.values()):
            break
    runtime.stop_collectors()
    runtime.kernel.run(until=elapsed + 500.0)
    assert "result" in box, "client never completed"
    assert all(not intents.pending_intents(env)
               for env in runtime.envs.values())
    return box


def check_effects(runtime, client_ok: bool) -> None:
    env = runtime.envs["bump"]
    counters = [env.peek("counters", f"counter-{i}") or 0
                for i in range(N_BRANCHES)]
    # Exactly once or (crash before the root intent) exactly zero —
    # never twice, never a partial fan-out left behind.
    assert set(counters) in ({0}, {1}), f"partial/duplicated {counters}"
    if client_ok:
        assert counters == [1] * N_BRANCHES


@pytest.mark.parametrize("without", [None, "async_io"])
def test_fan_out_crash_sweep(without):
    runtime = build_runtime(without)
    recording = RecordingPolicy()
    runtime.platform.crash_policy = recording
    result = runtime.run_workflow("fan", None)
    assert result["ok"] and result["results"] == [1] * N_BRANCHES
    points = recording.unique_points()
    runtime.kernel.shutdown()
    if without is None:
        # The batched claim's own crash points must be in the space.
        assert any(tag.startswith("pinvoke:") for _, _, tag in points)
    assert len(points) > 15, "suspiciously small crash space"

    failures = []
    for function, index, tag in points:
        runtime = build_runtime(without)
        runtime.platform.crash_policy = CrashOnce(
            function, tag, invocation_index=index)
        try:
            box = run_recovered(runtime)
            assert runtime.platform.stats.injected_crashes == 1
            client_ok = (isinstance(box["result"], dict)
                         and bool(box["result"].get("ok")))
            check_effects(runtime, client_ok)
        except AssertionError as exc:
            failures.append((function, index, tag,
                             dst.failure_line(exc)))
        finally:
            runtime.kernel.shutdown()
    assert not failures, (
        f"{len(failures)}/{len(points)} crash points broke the fan-out:\n"
        + "\n".join(f"  {f}#{i} @ {t}: {m}"
                    for f, i, t, m in failures[:10]))


def test_batched_claims_are_deterministic_and_coalesced():
    """One batch_write claims all N entries with derivable callee ids."""
    runtime = build_runtime()
    result = runtime.run_workflow("fan", None)
    assert result["ok"]
    env = runtime.envs["fan"]
    rows = runtime.store.scan(env.invoke_log).items
    assert len(rows) == N_BRANCHES
    for row in rows:
        assert row["CalleeId"] == _derived_callee_id(row["InstanceId"],
                                                     row["Step"])
        assert "Result" in row  # callbacks landed on the batched entries
    assert runtime.store.metering.ops["batch_write"].count == 1
    runtime.kernel.shutdown()


def test_without_async_io_keeps_conditional_claims():
    runtime = build_runtime(without="async_io")
    result = runtime.run_workflow("fan", None)
    assert result["ok"]
    assert "batch_write" not in runtime.store.metering.ops
    runtime.kernel.shutdown()
