"""Bench output files: ``BENCH_<name>.json`` and the git revision it was
written at. Tables render in :mod:`repro.obs.report`."""

from __future__ import annotations

import json
import pathlib
import subprocess
from typing import Any, Optional

# Placement facts are observability's; benches and perfbench keep
# importing them from here.
from repro.obs import load_imbalance, per_shard_rows  # noqa: F401

#: Repo root (three levels above ``src/repro/bench``): where the
#: ``BENCH_<name>.json`` trajectory files accumulate.
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


def git_rev() -> str:
    """Short git revision of the repo, or ``"unknown"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _json_safe(value: Any) -> Any:
    """Recursively replace non-finite floats (JSON has no NaN/inf)."""
    if isinstance(value, float):
        return value if value == value and value not in (
            float("inf"), float("-inf")) else None
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def write_bench_json(name: str, payload: dict,
                     directory: Optional[pathlib.Path] = None
                     ) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` at the repo root (machine-readable
    benchmark trajectory; see ROADMAP).

    ``payload`` is augmented with the git revision; keys are sorted and
    non-finite floats nulled so files diff cleanly. An existing file
    whose body differs from the new one in ``git_rev`` alone is left
    untouched, so ``git_rev`` is the revision at which the numbers last
    changed and re-running a bench does not dirty the tree.
    """
    target = directory or REPO_ROOT
    target.mkdir(parents=True, exist_ok=True)
    body = dict(payload)
    body.setdefault("bench", name)
    body.setdefault("git_rev", git_rev())
    path = target / f"BENCH_{name}.json"
    body = _json_safe(body)
    if not _same_but_for_rev(path, body):
        path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    return path


def _same_but_for_rev(path: pathlib.Path, body: dict) -> bool:
    """Does ``path`` already hold ``body``, ``git_rev`` aside?"""
    try:
        old = json.loads(path.read_text())
    except (OSError, ValueError):
        return False
    if not isinstance(old, dict):
        return False
    return ({k: v for k, v in old.items() if k != "git_rev"}
            == {k: v for k, v in body.items() if k != "git_rev"})
