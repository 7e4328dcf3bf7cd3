"""Load generation and latency measurement (§7.2's methodology).

The paper drives its applications with wrk2 — an *open-loop* constant
throughput generator that avoids coordinated omission: requests are
launched on schedule whether or not earlier ones completed. This package
reproduces that methodology inside the simulation with one driver per
loop shape. The open-loop driver (:func:`run_open_loop`) spawns one
client process per arrival of either arrival process — Poisson, or
wrk2's uniform schedule (:func:`uniform_arrivals`), which
:func:`run_constant_load` and the rate sweeps of Figures 14/15/26 use.
The closed-loop driver (:func:`run_closed_loop`) runs N users back to
back. A recorder keeps full latency distributions and time-bucketed
series for the GC experiment.
"""

from repro.workload.generator import ZipfSampler, skewed_keys, zipf_weights
from repro.workload.openloop import (
    AdmissionStats,
    AdmissionWindow,
    OpenLoopConfig,
    OpenLoopResult,
    merge_streams,
    poisson_arrivals,
    run_open_loop,
    uniform_arrivals,
)
from repro.workload.recorder import LatencyRecorder
from repro.workload.runner import (
    ClosedLoopResult,
    run_closed_loop,
    run_constant_load,
    run_sweep,
)

__all__ = [
    "AdmissionStats",
    "AdmissionWindow",
    "ClosedLoopResult",
    "LatencyRecorder",
    "OpenLoopConfig",
    "OpenLoopResult",
    "ZipfSampler",
    "merge_streams",
    "poisson_arrivals",
    "run_closed_loop",
    "run_constant_load",
    "run_open_loop",
    "run_sweep",
    "skewed_keys",
    "uniform_arrivals",
    "zipf_weights",
]
