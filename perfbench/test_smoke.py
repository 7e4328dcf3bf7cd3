"""Smoke test of the benchmark itself (collected by the tier-1 command).

Every workload at 2% size: the dark pass emits every end-to-end metric
BENCHMARK.json names, the traced pass every per-layer metric, all finite;
two dark passes agree exactly on the virtual clock; the traced pass
reproduces the dark pass's latencies; every correctness check holds.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from perfbench import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SCALE = 0.02
SEED = 11


def assert_metrics(result: dict, spec: list) -> None:
    assert not result["problems"]
    assert result["child"]["unscripted_failures"] == 0
    line = run.contract_line(result, spec)
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {entry["name"] for entry in spec}
    for name, metric in line["metrics"].items():
        assert NAME.fullmatch(name)
        assert math.isfinite(metric["value"]), name


@pytest.mark.parametrize(
    "workload", [entry["name"] for entry in SPEC["workloads"]])
def test_workload(workload, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 0)
    first = run.dark_pass(workload, SEED, SCALE)
    assert_metrics(first, SPEC["end_to_end"])
    second = run.dark_pass(workload, SEED, SCALE)
    for name, value in first["metrics"].items():
        if name not in run.HOST_METRICS:
            assert second["metrics"][name] == value, name
    assert_metrics(run.traced_pass(workload, SEED, SCALE), SPEC["per_layer"])
