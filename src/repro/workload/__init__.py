"""Load generation and latency measurement (§7.2's methodology).

The paper drives its applications with wrk2 — an *open-loop* constant
throughput generator that avoids coordinated omission: requests are
launched on schedule whether or not earlier ones completed. This package
reproduces that methodology inside the simulation: a generator process
spawns one client process per arrival, a recorder keeps full latency
distributions (and time-bucketed series for the GC experiment), and the
runner assembles rate sweeps like Figures 14/15/26.
"""

from repro.workload.generator import (
    LoadGenerator,
    LoadResult,
    ZipfSampler,
    skewed_keys,
    zipf_weights,
)
from repro.workload.openloop import (
    AdmissionStats,
    AdmissionWindow,
    OpenLoopConfig,
    OpenLoopResult,
    merge_streams,
    poisson_arrivals,
    run_open_loop,
)
from repro.workload.recorder import LatencyRecorder
from repro.workload.runner import (
    ClosedLoopResult,
    SweepPoint,
    run_closed_loop,
    run_constant_load,
    run_sweep,
)

__all__ = [
    "AdmissionStats",
    "AdmissionWindow",
    "ClosedLoopResult",
    "LatencyRecorder",
    "LoadGenerator",
    "LoadResult",
    "OpenLoopConfig",
    "OpenLoopResult",
    "SweepPoint",
    "ZipfSampler",
    "merge_streams",
    "poisson_arrivals",
    "run_closed_loop",
    "run_constant_load",
    "run_open_loop",
    "run_sweep",
    "skewed_keys",
    "zipf_weights",
]
