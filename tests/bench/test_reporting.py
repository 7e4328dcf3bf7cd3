"""Re-running a bench must not dirty the tree: ``write_bench_json``
leaves an unchanged record alone, ``emit`` writes nothing, and no gate
reads the host clock (a wall-clock number differs on every run). And the
library does not lean on its benches: nothing outside ``repro.bench``
imports it."""

import ast
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


def _imports_the_bench(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "repro.bench" or name.startswith("repro.bench.")
               for name in names):
            return True
    return False


def test_nothing_outside_the_bench_imports_it():
    """Measurement code sits on top of the library, never under it:
    what ``repro.obs`` reports (per-shard rows, load imbalance) lives in
    ``repro.obs``, and ``repro.bench.reporting`` re-imports it."""
    src = reporting.REPO_ROOT / "src" / "repro"
    modules = [path for path in sorted(src.rglob("*.py"))
               if src / "bench" not in path.parents]
    assert len(modules) > 40, "the scan found almost nothing"
    hits = [str(path.relative_to(src)) for path in modules
            if _imports_the_bench(ast.parse(path.read_text()))]
    assert not hits, f"modules outside repro.bench import it: {hits}"
