"""Re-running a bench must not dirty the tree: ``write_bench_json``
leaves an unchanged record alone, ``emit`` writes nothing, and no gate
reads the host clock (a wall-clock number differs on every run)."""

import importlib.util
import json
import os
import re

from repro.bench import reporting

BENCHMARKS = reporting.REPO_ROOT / "benchmarks"


def test_unchanged_payload_leaves_the_file_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(reporting, "git_rev", lambda: "aaaaaaa")
    path = reporting.write_bench_json("demo", {"p50": 1.5, "rows": (1, 2)},
                                      directory=tmp_path)
    before = path.read_bytes()
    os.utime(path, ns=(1, 1))
    monkeypatch.setattr(reporting, "git_rev", lambda: "bbbbbbb")
    reporting.write_bench_json("demo", {"p50": 1.5, "rows": (1, 2)},
                               directory=tmp_path)
    assert path.read_bytes() == before
    assert path.stat().st_mtime_ns == 1
    assert json.loads(before)["git_rev"] == "aaaaaaa"


def test_changed_payload_is_rewritten_with_the_new_rev(tmp_path,
                                                       monkeypatch):
    monkeypatch.setattr(reporting, "git_rev", lambda: "aaaaaaa")
    path = reporting.write_bench_json("demo", {"p50": 1.5},
                                      directory=tmp_path)
    monkeypatch.setattr(reporting, "git_rev", lambda: "bbbbbbb")
    reporting.write_bench_json("demo", {"p50": 1.6}, directory=tmp_path)
    assert json.loads(path.read_text()) == {
        "bench": "demo", "git_rev": "bbbbbbb", "p50": 1.6}


def test_emit_creates_no_file(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "benchmarks_conftest", BENCHMARKS / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    monkeypatch.chdir(tmp_path)
    before = sorted(BENCHMARKS.iterdir())
    conftest.emit("a table")
    assert "a table" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    assert sorted(BENCHMARKS.iterdir()) == before


def test_no_gate_reads_the_host_clock():
    host_clock = re.compile(
        r"\bimport time\b|\bfrom time import\b|perf_counter"
        r"|process_time|datetime\.now")
    sources = sorted(BENCHMARKS.glob("*.py")) + sorted(
        (reporting.REPO_ROOT / "src" / "repro" / "bench").glob("*.py"))
    assert len(sources) > 10, "the scan found almost nothing"
    hits = [f"{path.relative_to(reporting.REPO_ROOT)}:{number}: {line}"
            for path in sources
            for number, line in enumerate(
                path.read_text().splitlines(), 1)
            if host_clock.search(line)]
    assert not hits, "a gate reads the host clock:\n" + "\n".join(hits)
