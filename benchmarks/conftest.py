"""Shared helpers for the figure-regeneration benchmarks."""

from __future__ import annotations


def emit(text: str) -> None:
    """Print a gate's result table (``pytest -s`` shows it). The record
    is the gate's ``BENCH_<name>.json``; nothing is written here."""
    print()
    print(text)


def emit_json(name: str, **payload) -> None:
    """Write the gate's machine-readable ``BENCH_<name>.json`` at the
    repo root (see ``repro.bench.reporting.write_bench_json``)."""
    from repro.bench.reporting import write_bench_json

    path = write_bench_json(name, payload)
    print(f"[bench-json] {path}")
