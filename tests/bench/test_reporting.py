"""``write_bench_json``: re-running a bench must not dirty the tree."""

import json
import os

from repro.bench import reporting


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
