"""Per-figure experiment drivers.

Each module regenerates one of the paper's evaluation results
(§7.3-§7.5 and Appendix C) or one comparison against a ``without=``
ablation; the ``benchmarks/`` pytest files are thin wrappers that run
these drivers and assert the qualitative shape. See docs/benchmarks.md
for what each gate asserts and how to read its ``BENCH_<name>.json``.
"""
